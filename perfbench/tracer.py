"""Per-layer tracing from outside the program.

Entering a `Tracer` replaces each public layer function of usdkit with a
wrapper at every module that imported it (for example both
`usdkit.pipeline.reduce_fully` and `usdkit.reductions.reduce_fully`), plus
`FeasibleSet.project`.  A wrapper records a span (name, start, end, parent,
solve id) and the outcome facts the layer metrics need.  `linalg.support`
and numpy's dense decompositions are only counted: they are called
thousands of times per sweep, and a span each would cost more than the
work.  Spans stay in memory and are written out once, at the end.

Only calls made inside a span are counted, so the benchmark's own use of
numpy never shows up in the counts.
"""
from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, function) -> span name; two functions may share one name
SPANNED = {
    ("usdkit.pipeline", "dispatch"): "pipeline.dispatch",
    ("usdkit.reductions", "reduce_fully"): "reductions.reduce_fully",
    ("usdkit.closed_form", "try_single_state_detection"):
        "closed_form.single_detection",
    ("usdkit.closed_form", "try_fidelity_form"): "closed_form.fidelity",
    ("usdkit.solver4d", "solve_4d"): "solver4d.solve_4d",
    ("usdkit.solver4d", "enumerate_candidates_12"): "solver4d.enumerate",
    ("usdkit.solver4d", "enumerate_candidates_11"): "solver4d.enumerate",
    ("usdkit.solver4d", "finalize_candidate_12"): "solver4d.finalize",
    ("usdkit.solver4d", "finalize_candidate_11"): "solver4d.finalize",
    ("usdkit.optimality", "check_optimality"): "optimality.check",
    ("usdkit.optimality", "build_certificate"): "optimality.certificate",
    ("usdkit.model", "complete_measurement"): "model.complete_measurement",
    ("usdkit.oracle", "oracle_optimize"): "oracle.optimize",
}
COUNTED = {("usdkit.linalg", "support"): "linalg.support"}
DECOMPOSITIONS = ("eigh", "svd", "eigvalsh", "pinv")
ROOT = "bench.call"


def _observe(name, result, counts):
    """Record what a layer call produced, for the ratio metrics."""
    if name.startswith("closed_form.") and result is not None:
        counts[name + ".hit"] += 1
    elif name == "solver4d.enumerate":
        counts["solver4d.candidates"] += len(result)
    elif name == "solver4d.finalize" and type(result).__name__ != "Rejection":
        counts[name + ".accept"] += 1
    elif name == "oracle.optimize":
        counts["oracle.iterations"] += result.iterations


class Tracer:
    """Spans and counts of one traced phase of a benchmark run."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, solve]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._solve = -1
        self._next_solve = 0
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------------
    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._solve])
        self._stack.append(idx)
        self.counts[name + ".calls"] += 1
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def call(self, fn, *args):
        """Run one benchmark call as a root span."""
        idx = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _span(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            is_solve = name == "pipeline.dispatch"
            if is_solve:
                outer = tracer._solve
                tracer._solve = tracer._next_solve
                tracer._next_solve += 1
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.counts[name + ".fail"] += 1
                raise
            finally:
                tracer._close(idx)
                if is_solve:
                    tracer._solve = outer
            _observe(name, result, tracer.counts)
            return result

        return wrapper

    def _counter(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._stack:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------
    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        """Wrap the layer functions at every usdkit import site."""
        wrappers = {}
        for table, make in ((SPANNED, self._span), (COUNTED, self._counter)):
            for (module, attr), name in table.items():
                fn = getattr(sys.modules[module], attr)
                wrappers[id(fn)] = (fn, make(name, fn))
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "usdkit" or n.startswith("usdkit.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
        feasible = sys.modules["usdkit.oracle"].FeasibleSet
        self._patch(feasible, "project",
                    self._span("oracle.project", feasible.project))
        for attr in DECOMPOSITIONS:
            self._patch(np.linalg, attr,
                        self._counter("linalg." + attr,
                                      getattr(np.linalg, attr)))
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------------
    def durations(self):
        """Total and self time per span name, in seconds."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = defaultdict(float)
        own = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[i]
        return total, own

    def write(self, path):
        names = sorted({span[0] for span in self.spans})
        ids = {name: i for i, name in enumerate(names)}
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [[ids[name], round(s - origin, 9), round(e - origin, 9),
                 parent, solve]
                for name, s, e, parent, solve in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent",
                                  "solve"],
                       "names": names, "spans": rows,
                       "counts": dict(sorted(self.counts.items()))}, fh)
