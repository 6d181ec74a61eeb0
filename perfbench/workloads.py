"""The benchmark's workloads.

Each workload has the same life cycle, driven by `run.py`:

* `setup(pc)` resolves the configuration, makes the inputs from the seed
  and warms up; `pc` is the imported `picturecalc` package.
* `run_pass(pc, tracer)` does the workload's fixed timed work once,
  rebuilding everything from the configuration, and returns
  `(seconds, ops, outputs)`: the pass's wall time, per-kind latency samples
  of the timed calls, and the outputs to check.
* `check(pc, outputs)` compares one pass's outputs with references that do
  not depend on the hash seed and returns `(attempted, failed)`.
* `op_stats(ops)` turns the run's latency samples into `(p50, p99, n)` in
  seconds, `pass_seconds(passes, ops)` gives the run's time of one pass,
  and `describe(outputs)` gives a few facts about a pass for the run's
  info line.

`cli` calls `cli.main` in-process, so argument parsing and JSON export are
timed as a user sees them; `arith` calls the public arithmetic functions
directly.  `cli` runs fixed builtin configurations: its seed only sets the
order of the tasks in a pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import statistics
import time
from array import array
from collections import Counter

CLI_TASKS = {
    "verify_thompson_r4": "verify --builtin thompson --coeff x=cyclic:2 --radius 4",
    "verify_commuting_abc_r3": "verify --builtin commuting_abc --coeff a=cyclic:2 --radius 3",
    "ball_thompson_braided_r5": "ball --builtin thompson --coeff x=cyclic:2 --radius 5",
    "ball_thompson_annular_r5":
        "ball --builtin thompson --coeff x=cyclic:2 --geometry annular --radius 5",
    "ball_commuting_abc_r4": "ball --builtin commuting_abc --coeff a=cyclic:2 --radius 4",
    "enumerate_commuting_abc_b4": "enumerate --builtin commuting_abc --budget 4",
}
CLI_SMALL = {
    "verify_thompson_r2": "verify --builtin thompson --coeff x=cyclic:2 --radius 2",
    "verify_commuting_abc_r1": "verify --builtin commuting_abc --coeff a=cyclic:2 --radius 1",
    "ball_thompson_braided_r2": "ball --builtin thompson --coeff x=cyclic:2 --radius 2",
    "ball_thompson_annular_r2":
        "ball --builtin thompson --coeff x=cyclic:2 --geometry annular --radius 2",
    "ball_commuting_abc_r2": "ball --builtin commuting_abc --coeff a=cyclic:2 --radius 2",
    "enumerate_commuting_abc_b2": "enumerate --builtin commuting_abc --budget 2",
}

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


def task_span(tracer, task: str):
    return tracer.span("bench:" + task) if tracer else contextlib.nullcontext()


def summarize_output(command: str, exit_code: int, path: str) -> dict:
    """The hash-seed independent content of one CLI task's --out file."""
    with open(path) as f:
        doc = json.load(f)
    out: dict = {"exit": exit_code}
    if command == "verify":
        out["ball"] = [doc["ball"]["vertices"], doc["ball"]["edges"]]
        for name, rep in sorted(doc.items()):
            if name != "ball":
                out[name] = [rep["passed"], rep["checked"], rep["skipped"],
                             len(rep["inconclusive"]), len(rep["violations"])]
    elif command == "ball":
        # vertex keys carry a per-process tag, so only counts are compared
        depths = Counter(v["depth"] for v in doc["vertices"])
        out["vertices"] = len(doc["vertices"])
        out["edges"] = len(doc["edges"])
        out["depths"] = [depths[d] for d in range(max(depths) + 1)]
    elif command == "enumerate":
        # the list is ordered by tagged keys; digest it as a sorted set
        items = sorted(json.dumps(d, sort_keys=True) for d in doc)
        out["count"] = len(items)
        out["digest"] = hashlib.sha256("\n".join(items).encode()).hexdigest()
    else:
        raise ValueError(f"no summary for command {command!r}")
    return out


def compare(reference: dict, got: dict) -> tuple[int, int]:
    """(attempted, failed) over the fields of one reference entry."""
    failed = sum(1 for key, want in reference.items() if got.get(key) != want)
    return len(reference), failed


class CliWorkload:
    """Fixed CLI tasks through `cli.main(argv)` with `--out` to a file."""

    # The tasks' speed depends on the interpreter's hash seed (class keys
    # carry a hashed tag, which orders the search): about 8% between
    # interpreters.  A fresh interpreter per pass averages over seeds.
    pass_per_interpreter = True

    def __init__(self, name: str, tasks: dict, warmup: dict, seed: int,
                 out_dir: str, references: dict | None = None, only: list | None = None):
        self.name = name
        order = sorted(tasks)
        random.Random(seed).shuffle(order)
        self.task_names = order
        # `only`: the tasks this pass runs, kept in the seeded order
        self.tasks = [(t, tasks[t].split()) for t in order if only is None or t in only]
        self.warmup = [(t, warmup[t].split()) for t in sorted(warmup)]
        self.out_dir = out_dir
        if references is None:
            with open(REFERENCES) as f:
                references = json.load(f)
        self.references = references

    def _run_task(self, pc, task: str, argv: list, tracer=None):
        path = os.path.join(self.out_dir, task + ".json")
        if os.path.exists(path):
            os.remove(path)
        sink = io.StringIO()
        with task_span(tracer, task), contextlib.redirect_stdout(sink):
            t0 = time.perf_counter()
            code = pc.cli.main(argv + ["--out", path])
            dt = time.perf_counter() - t0
        return dt, summarize_output(argv[0], code, path)

    def setup(self, pc) -> None:
        for task, argv in self.warmup:
            self._run_task(pc, task, argv)

    def run_pass(self, pc, tracer=None):
        ops: dict[str, list] = {}
        outputs = []
        total = 0.0
        for task, argv in self.tasks:
            dt, summary = self._run_task(pc, task, argv, tracer)
            total += dt
            ops[task] = [dt]
            outputs.append((task, summary))
        return total, ops, outputs

    def check(self, pc, outputs) -> tuple[int, int]:
        attempted = failed = 0
        for task, summary in outputs:
            a, f = compare(self.references[self.name][task], summary)
            attempted += a
            failed += f
        return attempted, failed

    @staticmethod
    def describe(outputs) -> dict:
        return {"outputs": dict(outputs)}

    @staticmethod
    def op_stats(ops: dict[str, list]):
        """One op is one task; its latency is the median of its repeats.
        p50 and p99 are taken over the tasks' medians (p99 is their max)."""
        per_task = sorted(statistics.median(v) for v in ops.values())
        return statistics.median(per_task), per_task[-1], sum(len(v) for v in ops.values())

    @staticmethod
    def pass_seconds(passes: list, ops: dict[str, list]) -> float:
        """The sum of the tasks' median latencies: a run's last pass may
        hold only some of the tasks."""
        return sum(statistics.median(v) for v in ops.values())


# -- arith -------------------------------------------------------------------------

# the four group-law configurations of acceptance criterion 2:
# (builtin, parameters, letter -> cyclic coefficient order)
GROUP_CONFIGS = (
    ("thompson", (), {"x": 2}),
    ("higman", (3, 1), {}),
    ("houghton", (2, 0), {"a": 2}),
    ("commuting_abc", (), {}),
)
GEOMETRIES = ("braided", "annular", "planar")
GRID = 256  # evaluation points k/256
ARITH_SMALL = {"chains": 1, "factors": 4, "psi_pairs": 1, "tree_pairs": 2, "grid_points": 4,
               "gp_pairs": 4}


def nearest_rank(sorted_values: list, q: float):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Arith:
    """Group arithmetic on seeded inputs, every public call timed alone."""

    pass_per_interpreter = False  # its set-up is long, and keys are untimed

    def __init__(self, seed: int, chains: int = 4, factors: int = 32, psi_pairs: int = 24,
                 tree_pairs: int = 32, grid_points: int = 32, gp_pairs: int = 512):
        self.seed = seed
        self.chains = chains
        self.factors = factors
        self.psi_pairs = psi_pairs
        self.tree_pairs = tree_pairs
        self.grid_points = grid_points
        self.gp_pairs = gp_pairs

    # -- setup -----------------------------------------------------------------

    def setup(self, pc) -> None:
        rng = random.Random(self.seed)
        CyclicSpec, FreeSpec = pc.coeff.CyclicSpec, pc.coeff.FreeSpec
        configs = []
        for name, params, cyclic in GROUP_CONFIGS:
            pres, w = pc.presentation.builtin_presentation(name, params)
            coeffs = pc.coeff.make_system(pres.alphabet,
                                          {x: CyclicSpec(k) for x, k in cyclic.items()})
            configs.append((name, pres, coeffs, w, pc.coeff.trivial_system(pres.alphabet)))
        # words: per geometry and configuration, `chains` words of `factors`
        # random elements each
        self.words = []
        for geometry in GEOMETRIES:
            for name, pres, coeffs, w, _ in configs:
                identity = pc.picture.eps(pres, coeffs, w, annular=(geometry == "annular"))
                for _ in range(self.chains):
                    elems = [pc.sampling.random_element(pres, coeffs, w, rng, geometry,
                                                        steps=3, max_width=8)
                             for _ in range(self.factors)]
                    self.words.append((f"{name}/{geometry}", elems, identity))
        # psi / pi: products of trivial-coefficient elements
        self.psi_inputs = []
        for name, pres, _, w, triv in configs:
            for _ in range(self.psi_pairs):
                self.psi_inputs.append(tuple(
                    pc.sampling.random_element(pres, triv, w, rng, steps=3, max_width=8)
                    for _ in range(2)))
        # Thompson tree pairs on a seeded sample of the k/256 grid
        self.tp_inputs = [(pc.sampling.random_tree_pair(rng, 2, 3),
                           pc.sampling.random_tree_pair(rng, 2, 3))
                          for _ in range(self.tree_pairs)]
        self.grid = [pc.thompson.nadic(k, 8) if k else pc.thompson.nadic(0, 0)
                     for k in sorted(rng.sample(range(GRID), self.grid_points))]
        # graph-product words over the criterion-12 graph (a 4-cycle)
        specs = {"u": CyclicSpec(2), "v": FreeSpec(("t",)), "w": CyclicSpec(2),
                 "z": FreeSpec(("t",))}
        graph = pc.coeff.product_graph("uvwz", [("u", "v"), ("v", "w"), ("w", "z"),
                                                ("z", "u")], specs)

        def letter(v):
            spec = graph.spec(v)
            if isinstance(spec, CyclicSpec):
                return pc.coeff.cyclic_element(spec, 1)
            return pc.coeff.free_element(spec, [[("t", 1)], [("t", -1)],
                                                [("t", 1), ("t", 1)]][rng.randrange(3)])

        def gp_word():
            n = rng.randrange(4, 13)
            return pc.coeff.GraphProductWord(
                graph, tuple((v, letter(v)) for v in (rng.choice("uvwz") for _ in range(n))))

        self.gp_inputs = [(gp_word(), gp_word()) for _ in range(self.gp_pairs)]
        self._warm_up(pc)

    def _warm_up(self, pc) -> None:
        """One pass over a slice of every input kind."""
        self._pass(pc, [(n, elems[:2], e) for n, elems, e in self.words[::self.chains]],
                   self.psi_inputs[::self.psi_pairs], self.tp_inputs[:1], self.gp_inputs[:1])

    # -- timed pass ----------------------------------------------------------------

    def run_pass(self, pc, tracer=None):
        return self._pass(pc, self.words, self.psi_inputs, self.tp_inputs, self.gp_inputs,
                          tracer)

    def _pass(self, pc, words, psi_inputs, tp_inputs, gp_inputs, tracer=None):
        picture, embed, thompson, coeff = pc.picture, pc.embed, pc.thompson, pc.coeff

        def fresh(d):
            """Rebuild from the inputs' fields: no cached key or flag survives."""
            return picture.Diagram(d.pres, d.coeffs, dict(d.wires), dict(d.transistors),
                                   dict(d.t_top), dict(d.t_bot), d.top_ports,
                                   d.bottom_ports, d.annular)

        words = [(n, [fresh(d) for d in elems], fresh(e)) for n, elems, e in words]
        psi_inputs = [(fresh(a), fresh(b)) for a, b in psi_inputs]

        ops = {k: array("d") for k in ("multiply", "invert", "psi", "pi", "tp_multiply",
                                       "evaluate_map", "gp_multiply")}
        clock = time.perf_counter
        outputs: dict[str, list] = {"words": [], "psi": [], "tp": [], "gp": []}
        t_pass = clock()
        with task_span(tracer, "words"):
            lat_mul, lat_inv = ops["multiply"], ops["invert"]
            for name, elems, identity in words:
                p = elems[0]
                peak = 0
                for e in elems[1:]:
                    t0 = clock(); p = picture.multiply(p, e); lat_mul.append(clock() - t0)
                    peak = max(peak, len(p.transistors))
                for e in reversed(elems):
                    t0 = clock(); inv = picture.invert(e); lat_inv.append(clock() - t0)
                    t0 = clock(); p = picture.multiply(p, inv); lat_mul.append(clock() - t0)
                outputs["words"].append((name, p, identity, peak))
        with task_span(tracer, "psi"):
            lat_psi, lat_pi = ops["psi"], ops["pi"]
            for a, b in psi_inputs:
                t0 = clock(); ab = picture.multiply(a, b); lat_mul.append(clock() - t0)
                images = []
                for d in (a, b, ab):
                    t0 = clock(); images.append(embed.psi(d)); lat_psi.append(clock() - t0)
                t0 = clock(); prod = picture.multiply(images[0], images[1])
                lat_mul.append(clock() - t0)
                pairs = []
                for d in (a, b, ab):
                    t0 = clock(); pairs.append(embed.pi(d)[0]); lat_pi.append(clock() - t0)
                outputs["psi"].append((images[2], prod, pairs))
        with task_span(tracer, "thompson"):
            lat_tp, lat_ev = ops["tp_multiply"], ops["evaluate_map"]
            for a, b in tp_inputs:
                t0 = clock(); ab = thompson.tp_multiply(a, b); lat_tp.append(clock() - t0)
                values = []
                for q in self.grid:
                    t0 = clock(); values.append(thompson.evaluate_map(ab, q))
                    lat_ev.append(clock() - t0)
                outputs["tp"].append((a, b, values))
        with task_span(tracer, "graph_product"):
            lat_gp = ops["gp_multiply"]
            for w1, w2 in gp_inputs:
                t0 = clock(); u = coeff.gp_multiply(w1, w2); lat_gp.append(clock() - t0)
                outputs["gp"].append((w1, w2, u))
        return clock() - t_pass, ops, outputs

    # -- checks ------------------------------------------------------------------------

    def check(self, pc, outputs) -> tuple[int, int]:
        picture, thompson, coeff = pc.picture, pc.thompson, pc.coeff
        results = []
        for _, p, identity, _ in outputs["words"]:
            results.append(p == identity)
        for psi_ab, prod, (pi_a, pi_b, pi_ab) in outputs["psi"]:
            results.append(picture.canonical_key(psi_ab) == picture.canonical_key(prod))
            results.append(pi_ab == thompson.tp_multiply(pi_a, pi_b))
        for a, b, values in outputs["tp"]:
            for q, v in zip(self.grid, values):
                results.append(v == thompson.evaluate_map(a, thompson.evaluate_map(b, q)))
        for w1, w2, u in outputs["gp"]:
            results.append(coeff.gp_equal(coeff.gp_multiply(u, coeff.gp_invert(w2)), w1))
            trivial_w2 = not coeff.gp_reduce(w2).syllables
            results.append(coeff.gp_equal(u, w1) == trivial_w2)
        return len(results), results.count(False)

    @staticmethod
    def op_stats(ops: dict[str, list]):
        """p50 and nearest-rank p99 over every timed call of the run."""
        samples = sorted(x for v in ops.values() for x in v)
        return statistics.median(samples), nearest_rank(samples, 0.99), len(samples)

    @staticmethod
    def pass_seconds(passes: list, ops: dict[str, list]) -> float:
        return statistics.median(passes)

    @staticmethod
    def describe(outputs) -> dict:
        return {"peak_transistors": max(peak for _, _, _, peak in outputs["words"])}
