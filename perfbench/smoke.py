"""Smoke test of the benchmark harness.

    python3 perfbench/smoke.py

Runs every workload at a tiny size, untraced and traced, and checks that
each prints exactly the metrics BENCHMARK.json names and passes its
correctness gate.  Then it corrupts one reference per workload and checks
that the mismatch is counted as failed, and it checks that `run.py` exits
with an error, printing no result, where the package sources are absent.
Exits 0 when all of that holds.  The file is not named `test_*.py`, so the
repository's pytest run does not collect it.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import workloads  # noqa: E402


def require(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"smoke: FAIL: {message}")


def corrupted(references: dict) -> dict:
    bad = copy.deepcopy(references)
    bad["cli"]["verify_thompson_r2"]["qm_axioms"][1] += 1
    bad["cli"]["ball_thompson_braided_r2"]["vertices"] += 1
    return bad


def run_tiny(name: str, trace: bool, pc, references: dict | None = None) -> dict:
    result, _ = run.run_workload(name, 1, 0.0, trace, pc, small=True, references=references,
                                 setup_repeats=1, min_passes=1)
    return result


def corrupted_arith_failures(pc) -> tuple[int, int]:
    """Check one tiny arith pass against a wrong identity for one word."""
    wl = run.make_workload("arith", 1, "", small=True)
    wl.setup(pc)
    _, _, out = wl.run_pass(pc)
    name, product, _, peak = out["words"][0]
    wrong = next(e for e in wl.words[0][1] if pc.picture.length(e) > 0)
    out["words"][0] = (name, product, wrong, peak)
    return wl.check(pc, out)


def check_bare_checkout() -> None:
    """run.py in a directory holding only BENCHMARK.json and perfbench/."""
    run.OUT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="smoke-bare-", dir=run.OUT))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload", "cli",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        require(proc.returncode != 0, "run.py succeeded without the package sources")
        require('"correct"' not in proc.stdout, "run.py printed a result without the sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    pc = run.import_package()
    with open(workloads.REFERENCES) as f:
        references = json.load(f)
    for name in run.WORKLOADS:
        for trace, names in ((False, end_to_end), (True, per_layer)):
            result = run_tiny(name, trace, pc)
            require(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                    f"{name} trace={trace}: {result}")
            require(set(result["metrics"]) == names,
                    f"{name} trace={trace}: metrics {sorted(set(result['metrics']) ^ names)}")
        if name == "arith":
            attempted, failed = corrupted_arith_failures(pc)
        else:
            result = run_tiny(name, False, pc, corrupted(references))
            require(not result["correct"], f"{name}: corrupted result marked correct")
            attempted, failed = result["attempted"], result["failed"]
        require(failed > 0, f"{name}: a corrupted reference was not counted as failed")
        print(f"smoke: {name}: ok (corrupted reference: {failed} of {attempted} checks failed)")
    check_bare_checkout()
    print("smoke: bare checkout: ok (run.py exits non-zero without a result)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
