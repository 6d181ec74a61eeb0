"""picturecalc benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload {cli,arith} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  The package is imported from `src/` of the
checkout this file sits in; nothing is installed or built.  The last line
of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it carries the run's
provenance and sample counts.  With `--trace 0` the metrics are the
end-to-end ones, measured with tracing off.  With `--trace 1` the same
timed passes run first; then an untraced pass, one traced set-up and one
traced pass in the run's own interpreter give the per-layer metrics and
the tracing overhead.  Spans and per-task tables of a traced run go to
`.perfbench_out/`.  See README.md beside this file for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
MIN_PASSES = 3
WORKLOADS = ("cli", "arith")

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

IMPORT_TIMER = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import picturecalc, picturecalc.cli, picturecalc.sampling; "
                "print(time.perf_counter() - t)")


def import_package():
    """Import picturecalc from this checkout's src/, or exit with an error."""
    if not (SRC / "picturecalc" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'picturecalc'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import picturecalc
    import picturecalc.cli  # noqa: F401  (the package does not import its front end)
    import picturecalc.sampling  # noqa: F401
    if Path(picturecalc.__file__).resolve().parent != SRC / "picturecalc":
        sys.exit(f"error: imported picturecalc from {picturecalc.__file__}, not {SRC}")
    return picturecalc


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_TIMER, str(SRC)], check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout)


def make_workload(name: str, seed: int, out_dir: str, small: bool = False,
                  references: dict | None = None, only: list | None = None):
    """The workload `name`; `small` gives the smoke test's tiny size, and
    `only` names the CLI tasks a pass runs (default: all)."""
    if name == "arith":
        return workloads.Arith(seed, **(workloads.ARITH_SMALL if small else {}))
    small_tasks = workloads.CLI_SMALL
    return workloads.CliWorkload(name, small_tasks if small else workloads.CLI_TASKS,
                                 small_tasks, seed, out_dir, references, only)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unknown (not a git checkout)"
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return f"unknown ({ref} not found)"


def provenance(pc) -> dict:
    src_lines = 0
    for path in sorted((SRC / "picturecalc").glob("*.py")):
        with open(path) as f:
            src_lines += sum(1 for _ in f)
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "package_version": pc.__version__,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "unset"),
        "src_lines": src_lines,
    }


def run_setups(spec: dict, pc, repeats: int):
    """Set the workload up `repeats` times, each with a fresh-interpreter
    import; returns the last workload and the set-up times."""
    times = []
    for _ in range(repeats):
        imported = import_seconds()
        t0 = time.perf_counter()
        wl = make_workload(**spec)
        wl.setup(pc)
        times.append(imported + time.perf_counter() - t0)
    return wl, times


def measure_pass(wl, pc) -> tuple:
    """One timed pass, then its outputs checked untimed:
    (seconds, ops, (attempted, failed), info)."""
    gc.collect()
    dt, ops, out = wl.run_pass(pc)
    return dt, ops, wl.check(pc, out), wl.describe(out)


CHILD = "import sys; sys.path.insert(0, sys.argv[1]); import run; run.child_pass()"


def child_pass() -> None:
    """Entry of a pass interpreter: workload spec on stdin, result on stdout."""
    spec = json.load(sys.stdin)
    pc = import_package()
    wl = make_workload(**spec)
    wl.setup(pc)
    json.dump(measure_pass(wl, pc), sys.stdout)


def pass_in_child(spec: dict) -> tuple:
    proc = subprocess.run([sys.executable, "-c", CHILD, str(HERE)], input=json.dumps(spec),
                          capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        sys.exit(f"error: pass interpreter failed:\n{proc.stderr}")
    return tuple(json.loads(proc.stdout))


def fitting_tasks(names: list, ops: dict, overhead: float, left: float) -> list:
    """The tasks, in pass order, whose median latencies so far fit into
    `left` seconds after one interpreter's `overhead`."""
    left -= overhead
    fit = []
    for name in names:
        need = statistics.median(ops[name])
        if need <= left:
            fit.append(name)
            left -= need
    return fit


def run_passes(wl, spec: dict, pc, seconds: float, min_passes: int):
    """Timed passes until the next one would end after `seconds`.  Each
    pass's outputs are checked, untimed, before the next pass starts, so
    no output stays alive into it.  A workload whose speed depends on the
    interpreter's hash seed runs each pass in a fresh interpreter; after
    `min_passes` whole passes, a pass holds the tasks that still fit, so
    the run measures for nearly all of `seconds`."""
    passes, checks, overheads = [], [0, 0], []
    ops: dict[str, array] = {}  # compact, so the samples barely add to peak memory
    info: dict = {}
    start = time.perf_counter()
    while True:
        left = seconds - (time.perf_counter() - start)
        if wl.pass_per_interpreter:
            only = wl.task_names
            if len(passes) >= min_passes:
                only = fitting_tasks(only, ops, statistics.median(overheads), left)
            if not only:
                break
            t0 = time.perf_counter()
            dt, pass_ops, pass_checks, pass_info = pass_in_child({**spec, "only": only})
            overheads.append(time.perf_counter() - t0 - dt)
        elif len(passes) < min_passes or statistics.median(passes) <= left:
            dt, pass_ops, pass_checks, pass_info = measure_pass(wl, pc)
        else:
            break
        passes.append(dt)
        for kind, values in pass_ops.items():
            ops.setdefault(kind, array("d")).extend(values)
        for i, n in enumerate(pass_checks):
            checks[i] += n
        for key, value in pass_info.items():  # a partial pass describes only its tasks
            if isinstance(value, dict):
                info.setdefault(key, {}).update(value)
            else:
                info[key] = value
    return passes, ops, checks, info


def traced_run(spec: dict, pc):
    """An untraced pass, then one traced set-up and one traced pass, all in
    this interpreter; returns (tracer, traced seconds, untraced seconds,
    traced pass outputs, workload)."""
    wl = make_workload(**spec)
    wl.setup(pc)
    gc.collect()
    untraced, _, _ = wl.run_pass(pc)
    tracer = Tracer(pc)
    tracer.install()
    try:
        with tracer.span("bench:setup"):
            wl = make_workload(**spec)
            wl.setup(pc)
        gc.collect()
        traced, _, out = wl.run_pass(pc, tracer)
    finally:
        tracer.uninstall()
    return tracer, traced, untraced, out, wl


def layer_metrics(tracer: Tracer, overhead: float) -> tuple[dict, dict]:
    """Per-layer metrics of the traced pass (sampling: of the traced set-up)."""
    tables = tracer.aggregate()
    passed: dict[str, dict] = {}
    for task, table in tables.items():
        if task == "bench:setup":
            continue
        for name, row in table.items():
            acc = passed.setdefault(name, Counter())
            acc.update(row)
    counts = Counter()
    for (task, name), v in tracer.counts.items():
        if task != "bench:setup":
            counts[name] += v
    setup = tables.get("bench:setup", {})

    def row(name, table=passed):
        return table.get(name, {})

    def calls(name, table=passed):
        return row(name, table).get("spans", 0)

    def secs(name, table=passed):
        return row(name, table).get("s", 0.0)

    def mean_us(name, n=None):
        n = calls(name) if n is None else n
        return secs(name) / n * 1e6 if n else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, tuple[float, str]] = {}
    for fn in ("concat", "reduce", "canonical_key"):
        m[f"picture.{fn}.calls"] = (calls(f"picture.{fn}"), "count")
        m[f"picture.{fn}.us"] = (mean_us(f"picture.{fn}"), "us")
    m["picture.reduce.dipoles"] = (counts["picture.reduce.dipoles"], "count")
    m["picture.reduce.noop_ratio"] = (ratio(counts["picture.reduce.noops"],
                                            calls("picture.reduce")), "ratio")
    for fn in ("invert", "multiply", "length", "factorize"):
        m[f"picture.{fn}.us"] = (mean_us(f"picture.{fn}"), "us")
    nd_calls = counts["moves.neighbor_diagrams.calls"]
    nd_yielded = counts["moves.neighbor_diagrams.yielded"]
    m["moves.neighbor_diagrams.calls"] = (nd_calls, "count")
    m["moves.neighbor_diagrams.yielded"] = (nd_yielded, "count")
    m["moves.neighbor_diagrams.us"] = (mean_us("moves.neighbor_diagrams", nd_calls), "us")
    m["moves.geometry_class_key.calls"] = (calls("moves.geometry_class_key"), "count")
    m["moves.geometry_class_key.us"] = (mean_us("moves.geometry_class_key"), "us")
    m["moves.bfs_classes.s"] = (secs("moves.bfs_classes"), "s")
    m["moves.enumerate_reduced.s"] = (secs("moves.enumerate_reduced"), "s")
    m["moves.new_class_ratio"] = (ratio(counts["moves.bfs_classes.classes"], nd_yielded), "ratio")
    for fn in ("pair_distance", "geodesic"):
        m[f"qmgraph.{fn}.calls"] = (calls(f"qmgraph.{fn}"), "count")
        m[f"qmgraph.{fn}.us"] = (mean_us(f"qmgraph.{fn}"), "us")
    dist = calls("qmgraph.distance")
    m["qmgraph.distance.calls"] = (dist, "count")
    m["qmgraph.distance.hit_ratio"] = (
        ratio(dist - row("qmgraph.distance").get("misses", 0), dist), "ratio")
    m["qmgraph.ball.s"] = (secs("qmgraph.ball"), "s")
    for fn in ("verify_qm_axioms", "pins_report", "hyperplanes_report",
               "condition_plus_check", "rotative_stab_probe"):
        m[f"qmgraph.{fn}.s"] = (secs(f"qmgraph.{fn}"), "s")
        m[f"qmgraph.{fn}.self_s"] = (row(f"qmgraph.{fn}").get("self_s", 0.0), "s")
    for mod, fn in (("thompson", "tp_multiply"), ("thompson", "evaluate_map"),
                    ("embed", "psi"), ("embed", "pi"), ("coeff", "gp_multiply")):
        m[f"{mod}.{fn}.calls"] = (calls(f"{mod}.{fn}"), "count")
        m[f"{mod}.{fn}.us"] = (mean_us(f"{mod}.{fn}"), "us")
    m["sampling.random_element.calls"] = (calls("sampling.random_element", setup), "count")
    m["sampling.random_element.s"] = (secs("sampling.random_element", setup), "s")
    m["cli.main.self_s"] = (row("cli.main").get("self_s", 0.0), "s")
    m["qmgraph.to_json_dict.s"] = (secs("qmgraph.to_json_dict"), "s")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, tables


def task_counts(tracer: Tracer, tables: dict) -> dict:
    """Exact per-task counts that later changes can be compared on."""
    out = {}
    for task, table in sorted(tables.items()):
        if not task:
            continue
        entry = {name: table[name]["spans"] for name in
                 ("qmgraph.pair_distance", "qmgraph.distance", "picture.reduce",
                  "picture.concat", "picture.canonical_key", "moves.geometry_class_key")
                 if name in table}
        for (t, name), v in tracer.counts.items():
            if t == task:
                entry[name] = v
        out[task] = entry
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, pc,
                 small: bool = False, references: dict | None = None,
                 setup_repeats: int = SETUP_REPEATS,
                 min_passes: int = MIN_PASSES) -> tuple[dict, dict]:
    """Measure one workload; returns (result, info)."""
    OUT.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    spec = {"name": name, "seed": seed, "out_dir": out_dir, "small": small,
            "references": references}
    try:
        wl, setup_times = run_setups(spec, pc, setup_repeats)
        passes, ops, (attempted, failed), pass_info = run_passes(wl, spec, pc, seconds,
                                                                 min_passes)
        peak_kb = peak_rss_kb()
        p50, p99, n_ops = wl.op_stats(ops)
        info = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
                "passes": len(passes), "pass_s": passes, "setup_s": setup_times,
                "op_samples": n_ops, **pass_info,
                "op_kinds": {k: {"n": len(v), "p50_us": statistics.median(v) * 1e6}
                             for k, v in sorted(ops.items())}}
        if trace:
            tracer, traced_s, untraced_s, out, traced_wl = traced_run(spec, pc)
            a, f = traced_wl.check(pc, out)
            attempted += a
            failed += f
            overhead = traced_s / untraced_s
            metrics, tables = layer_metrics(tracer, overhead)
            info["task_counts"] = task_counts(tracer, tables)
            info["traced_pass_s"] = traced_s
            info["untraced_pass_s"] = untraced_s
            info["spans"] = len(tracer.span_name)
            tracer.write(str(OUT / f"trace-{name}"),
                         {"tables": tables, "metrics": metrics, "info": info})
        else:
            metrics = {
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                "run_s": {"value": wl.pass_seconds(passes, ops), "unit": "s"},
                "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
                "op_us_p50": {"value": p50 * 1e6, "unit": "us"},
                "op_us_p99": {"value": p99 * 1e6, "unit": "us"},
            }
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, info


def peak_rss_kb() -> int:
    """Peak resident set of this process or of any pass interpreter."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    pc = import_package()
    result, info = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), pc)
    info["provenance"] = provenance(pc)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
