"""In-memory span tracer for the benchmark's traced runs.

`Tracer.install()` replaces every public module-level function of the
library modules, and the front end's `cli.main`, with a wrapper that
records one span (name, parent, start, end) per call.  The wrapper is put
in every namespace that binds the function -- the defining module, each
module that imported it (`qmgraph.multiply`, `moves.reduce`, ...) and the
package itself -- so calls from the benchmark, from other modules and
from inside the defining module are all recorded.  `BallGraph.distance`
is wrapped as well, because it is the distance oracle's cache.  Generator
functions (`moves.neighbor_diagrams`) get one span per generator step.

Spans live in flat arrays until the end of the run; `aggregate()` turns
them into span counts, inclusive time and self time per name, split by
the benchmark task span (`bench:<task>`) each one descends from.  No source file of the
library changes; `uninstall()` restores every original binding.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import time
from array import array
from collections import Counter

# Library modules whose public functions are layer boundaries.  `cli` is
# the front end: only its entry point is a boundary, its handlers are not.
LAYER_MODULES = ("presentation", "coeff", "picture", "moves", "thompson",
                 "embed", "qmgraph", "io", "sampling")
TASK_PREFIX = "bench:"


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        # (task span name or "", counter name) -> count, for counters that
        # spans cannot give: generator calls and yields, dipoles cancelled
        self.counts: Counter = Counter()
        self.task = ""

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself; a `bench:` span also names
        the task that counters recorded inside it belong to."""
        outer = self.task
        if name.startswith(TASK_PREFIX):
            self.task = name
        i = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(i)
            self.task = outer

    def _open(self, nid: int) -> int:
        i = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(i)
        self.span_start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.span_end[i] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, on_return=None):
        nid = self._name_id(name)
        open_, close = self._open, self._close

        if inspect.isgeneratorfunction(fn):
            counts = self.counts

            def gen_wrapper(*args, **kwargs):
                counts[self.task, name + ".calls"] += 1
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        i = open_(nid)
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            close(i)
                        counts[self.task, name + ".yielded"] += 1
                        yield item
                finally:
                    gen.close()

            gen_wrapper.__wrapped__ = fn
            return gen_wrapper

        def wrapper(*args, **kwargs):
            i = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(i)
            if on_return is not None:
                on_return(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-layer counters that need the call's arguments or result ---------

    def _on_reduce(self, args, result):
        cancelled = (len(args[0].transistors) - len(result.transistors)) // 2
        self.counts[self.task, "picture.reduce.dipoles"] += cancelled
        if cancelled == 0:
            self.counts[self.task, "picture.reduce.noops"] += 1

    def _on_bfs_classes(self, args, result):
        self.counts[self.task, "moves.bfs_classes.classes"] += len(result[0])

    # -- patching ------------------------------------------------------------

    def _modules(self):
        pkg = self.package.__name__
        return {m: importlib.import_module(f"{pkg}.{m}") for m in LAYER_MODULES + ("cli",)}

    def install(self) -> None:
        modules = self._modules()
        hooks = {"picture.reduce": self._on_reduce,
                 "moves.bfs_classes": self._on_bfs_classes}
        originals = {}
        for short, mod in modules.items():
            for attr, value in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != mod.__name__:
                    continue
                if short == "cli" and attr != "main":
                    continue
                name = f"{short}.{attr}"
                originals[value] = self._wrap(name, value, hooks.get(name))
        namespaces = [self.package] + list(modules.values())
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                wrapper = originals.get(value) if inspect.isfunction(value) else None
                if wrapper is not None:
                    self._patches.append((ns, attr, value))
                    setattr(ns, attr, wrapper)
        ball_graph = modules["qmgraph"].BallGraph
        dist = ball_graph.distance
        self._patches.append((ball_graph, "distance", dist))
        ball_graph.distance = self._wrap("qmgraph.distance", dist)

    def uninstall(self) -> None:
        while self._patches:
            ns, attr, value = self._patches.pop()
            setattr(ns, attr, value)

    # -- aggregation ---------------------------------------------------------

    def aggregate(self) -> dict:
        """Per benchmark task span name ("" outside any task): span name ->
        {spans, s, self_s}.  A generator function has one span per step; its
        calls are in `counts`.  The row `qmgraph.distance` also carries
        `misses`, the pair_distance spans it opened (cache misses)."""
        n = len(self.span_name)
        names, parent = self.span_name, self.span_parent
        start, end = self.span_start, self.span_end
        pd, dist = self._ids.get("qmgraph.pair_distance"), self._ids.get("qmgraph.distance")
        child = array("d", bytes(8 * n))
        task = array("i", [-1]) * n
        is_task = [nm.startswith(TASK_PREFIX) for nm in self.names]
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
                task[i] = task[p]
            if is_task[names[i]]:
                task[i] = names[i]
        tables: dict[str, dict[str, dict]] = {}
        for i in range(n):
            dur = end[i] - start[i]
            table = tables.setdefault(self.names[task[i]] if task[i] >= 0 else "", {})
            row = table.get(self.names[names[i]])
            if row is None:
                row = table[self.names[names[i]]] = {"spans": 0, "s": 0.0, "self_s": 0.0}
            row["spans"] += 1
            row["s"] += dur
            row["self_s"] += dur - child[i]
            p = parent[i]
            if names[i] == pd and p >= 0 and names[p] == dist:
                miss = table.setdefault("qmgraph.distance", {"spans": 0, "s": 0.0, "self_s": 0.0})
                miss["misses"] = miss.get("misses", 0) + 1
        return tables

    def write(self, prefix: str, summary: dict) -> None:
        """Spans as four raw arrays (int32 name, int32 parent, float64 start,
        float64 end) in `<prefix>.spans`, names and summary in `<prefix>.json`."""
        with open(prefix + ".spans", "wb") as f:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(f)
        with open(prefix + ".json", "w") as f:
            json.dump({"spans": len(self.span_name), "names": self.names, **summary},
                      f, indent=1, sort_keys=True)

