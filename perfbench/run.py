#!/usr/bin/env python3
"""usdkit benchmark: three seeded workloads, a correctness gate, a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-4d --seed 1 --seconds 35 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

  sweep-4d         `sweep` over the 99-point prior grid of 12 pairs whose core
                   is 4-dim of ranks (2,2)
  dispatch-mixed   one `dispatch` (certificate on) per distinct instance,
                   across every analytic branch and the trivial one
  oracle-fallback  `dispatch` on rank-(3,3) pairs in C^6 and C^7 that only
                   the oracle solves

The load is a closed loop on one thread: each call starts when the previous
one returned.  A run cycles over its workload's instances until `--seconds`
have passed, so every run does nearly the same mix of work.

With `--trace 0` the last stdout line reports the end-to-end metrics; with
`--trace 1` it reports the per-layer metrics of one traced cycle (and writes
its spans to perfbench/out/).  Either way it also reports how many solves
were attempted and how many failed the correctness gate.
"""
from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up time counts from here, before numpy loads

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

sys.path.insert(0, str(HERE))
import instances as inst  # noqa: E402
from tracer import DECOMPOSITIONS, ROOT, Tracer  # noqa: E402

# Tolerances of the test suite: analytic successes agree to 1e-9, oracle
# successes to 1e-6, and sweep rows sit in [lower - 1e-12, upper + 1e-9].
TOL_ANALYTIC = 1e-9
TOL_ORACLE = 1e-6
TOL_LOWER = 1e-12
TOL_UPPER = 1e-9

SETUP_SAMPLES = 5

# dispatch on example1 at p1 = 0.5 made these calls at the commit that
# defined this benchmark (the decomposition-count baseline)
EXAMPLE1_BASELINE = {"eigh": 125, "svd": 69, "eigvalsh": 31, "pinv": 11,
                     "check": 5, "certificate": 2}


def import_program():
    if not (SRC / "usdkit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: usdkit sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import usdkit  # noqa: F401
    return sys.modules


def load_reference():
    if not REFERENCE.is_file():
        raise SystemExit(f"perfbench: reference values missing: {REFERENCE}")
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def cycle_rng(seed, cycle):
    """Generator of one cycle's inputs; cycle 0 is the traced cycle."""
    return np.random.default_rng([seed, cycle])


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

class Sweep4d:
    """`sweep` of each pair over the 99-point grid; one prior = one solve."""

    name = "sweep-4d"

    def __init__(self, mods, reference, size=None):
        pairs = inst.sweep_pairs()[:size]
        self.pipeline = mods["usdkit.pipeline"]
        self.grid = inst.SWEEP_GRID
        self.pairs = [(name, r1, r2, reference["sweep"][name])
                      for name, r1, r2 in pairs]
        if size is not None:  # every 11th prior
            self.grid = self.grid[::11]
            self.pairs = [(n, r1, r2, ref[::11]) for n, r1, r2, ref in self.pairs]

    def cycle(self, rng):
        out = []
        for k in rng.permutation(len(self.pairs)):
            name, r1, r2, ref = self.pairs[k]
            u = inst.haar_unitary(rng, r1.shape[0])
            out.append((name, inst.rotate(u, r1), inst.rotate(u, r2), ref))
        return out

    def call(self, item):
        _, r1, r2, _ = item
        return self.pipeline.sweep(r1, r2, self.grid)

    def solves(self, item):
        return len(self.grid)

    def check(self, item, rows):
        name, _, _, ref = item
        bad = []
        for row, expected in zip(rows, ref):
            ok = (abs(row.success_probability - expected) <= TOL_ANALYTIC
                  and row.lower_bound - TOL_LOWER <= row.success_probability
                  <= row.upper_bound + TOL_UPPER
                  and not row.branch.startswith("oracle"))
            if not ok:
                bad.append(f"{name} p1={row.p1:.2f}: success "
                           f"{row.success_probability!r} ({row.branch}), "
                           f"reference {expected!r}, bounds "
                           f"[{row.lower_bound!r}, {row.upper_bound!r}]")
        if len(rows) != len(ref):
            bad.append(f"{name}: {len(rows)} rows for {len(ref)} priors")
        return bad


class DispatchMixed:
    """One `dispatch` per instance; every call gets a fresh random unitary."""

    name = "dispatch-mixed"
    tolerance = TOL_ANALYTIC

    def __init__(self, mods, reference, size=None):
        self.pipeline = mods["usdkit.pipeline"]
        self.model = mods["usdkit.model"]
        base = zip(inst.dispatch_instances(), reference["dispatch"])
        taken = Counter()
        self.items = []
        for i, ((shape, r1, r2, p1), ref) in enumerate(base):
            taken[shape] += 1
            if size is None or taken[shape] <= size:
                self.items.append((f"{shape}#{i}", r1, r2, p1, ref))

    def cycle(self, rng):
        out = []
        for k in rng.permutation(len(self.items)):
            name, r1, r2, p1, ref = self.items[k]
            u = inst.haar_unitary(rng, r1.shape[0])
            out.append((name, inst.rotate(u, r1), inst.rotate(u, r2), p1, ref))
        return out

    def call(self, item):
        _, r1, r2, p1, _ = item
        pair = self.model.WeightedDensityPair.from_states(r1, r2, p1)
        return self.pipeline.dispatch(pair)

    def solves(self, item):
        return 1

    def check(self, item, outcome):
        name, _, _, p1, ref = item
        problems = []
        if not outcome.optimal:
            problems.append("not certified optimal")
        if abs(outcome.success - ref) > self.tolerance:
            problems.append(f"success {outcome.success!r} vs reference {ref!r}")
        analytic = (outcome.branch != "trivial"
                    and not outcome.branch.startswith("oracle"))
        if analytic and outcome.certificate is None:
            problems.append("analytic branch without a verified certificate")
        if problems:
            return [f"{name} p1={p1:.4f} ({outcome.branch}): "
                    + "; ".join(problems)]
        return []


class OracleFallback(DispatchMixed):
    """`dispatch` on pairs only the oracle solves.

    The instances are not rotated: the oracle's run time depends on where
    its seeded start lands relative to the pair, so a rotation changes the
    cost of a solve by up to 3x, and a run would measure its draw of
    rotations instead of the program.  The seed sets the order.
    """

    name = "oracle-fallback"
    tolerance = TOL_ORACLE

    def __init__(self, mods, reference, size=None):
        self.pipeline = mods["usdkit.pipeline"]
        self.model = mods["usdkit.model"]
        self.items = []
        for d in inst.ORACLE_DIMS:
            for index, ref in reference["oracle"][str(d)][:size]:
                r1, r2, p1 = inst.oracle_candidate(d, index)
                self.items.append((f"{d};3,3#{index}", r1, r2, p1, ref))

    def cycle(self, rng):
        return [self.items[k] for k in rng.permutation(len(self.items))]


WORKLOADS = {w.name: w for w in (Sweep4d, DispatchMixed, OracleFallback)}


def warm_up(mods):
    """One cheap dispatch per code path that every workload shares."""
    pipeline = mods["usdkit.pipeline"]
    model = mods["usdkit.model"]
    for r1, r2 in (inst.example1_states(), inst.peres_states(),
                   (np.eye(2) / 2, np.diag([0.3, 0.7]))):
        pipeline.dispatch(model.WeightedDensityPair.from_states(r1, r2, 0.5))


def setup(name, size=None):
    """Import the program, build the workload's instances, warm up."""
    mods = import_program()
    workload = WORKLOADS[name](mods, load_reference(), size)
    warm_up(mods)
    return mods, workload


def setup_probe(args):
    """Set-up time of a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         args.workload, "--seed", str(args.seed), "--setup-probe"],
        capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.split()[-1])


# --------------------------------------------------------------------------
# measurement
# --------------------------------------------------------------------------

class Tally:
    """Solves attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, workload, item, result):
        n = workload.solves(item)
        self.attempted += n
        if isinstance(result, Exception):
            bad = [f"{item[0]}: raised {type(result).__name__}: {result}"] * n
        else:
            bad = workload.check(item, result)
        self.failed += len(bad)
        self.messages.extend(bad[:max(0, 20 - len(self.messages))])


def timed_call(workload, item, tally, tracer=None):
    """One call of the closed loop; returns (seconds, solves)."""
    start = time.perf_counter()
    try:
        if tracer is None:
            result = workload.call(item)
        else:
            result = tracer.call(workload.call, item)
    except Exception as exc:  # a raising solve is a failed solve
        result = exc
    seconds = time.perf_counter() - start
    tally.add(workload, item, result)
    return seconds, workload.solves(item)


def measure(workload, seed, seconds, tally, pauses=0, pause=None):
    """Cycles 1, 2, ... for `seconds`, split into `pauses + 1` equal
    stretches with `pause()` run between them; at least one call each."""
    times = []
    solves = 0
    cycle = 0
    items = []
    for stretch in range(pauses + 1):
        if stretch:
            pause()
        deadline = time.perf_counter() + seconds / (pauses + 1)
        first = True
        while first or time.perf_counter() < deadline:
            first = False
            if not items:
                cycle += 1
                items = workload.cycle(cycle_rng(seed, cycle))[::-1]
            t, s = timed_call(workload, items.pop(), tally)
            times.append(t)
            solves += s
    return times, solves, cycle


def percentile(values, q):
    return float(np.percentile(np.asarray(values) * 1e3, q))


def end_to_end(workload, args, tally):
    # set-up samples: this process, then fresh ones spread over the run, so
    # that their median sees the host at several moments
    samples = [time.perf_counter() - T0]
    times, solves, cycles = measure(
        workload, args.seed, args.seconds, tally, pauses=SETUP_SAMPLES - 1,
        pause=lambda: samples.append(setup_probe(args)))
    metrics = {
        "setup_s": (statistics.median(samples), "s"),
        "solves_per_s": (solves / sum(times), "1/s"),
        "call_ms_p50": (percentile(times, 50), "ms"),
        "call_ms_p90": (percentile(times, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    info = {"calls": len(times), "solves": solves, "cycles": cycles,
            "setup_samples_s": samples}
    return metrics, info


def example1_probe(mods):
    """Decompositions and checks of one dispatch on example1 at p1 = 0.5."""
    pipeline = mods["usdkit.pipeline"]
    model = mods["usdkit.model"]
    r1, r2 = inst.example1_states()
    pair = model.WeightedDensityPair.from_states(r1, r2, 0.5)
    with Tracer() as probe:
        probe.call(pipeline.dispatch, pair)
    counts = {name: probe.counts["linalg." + name] for name in DECOMPOSITIONS}
    counts["check"] = probe.counts["optimality.check.calls"]
    counts["certificate"] = probe.counts["optimality.certificate.calls"]
    return counts


def layer_metrics(tracer, solves, overhead):
    """Per-layer metrics of one traced cycle; counts are per solve."""
    c = tracer.counts
    total, own = tracer.durations()
    busy = total[ROOT]

    def per_solve(key):
        return (c[key] / solves, "count")

    def ratio(part, whole):
        return (c[part] / c[whole] if c[whole] else 0.0, "ratio")

    def frac(seconds):
        return (seconds / busy, "frac")

    decomp = sum(c["linalg." + n] for n in DECOMPOSITIONS)
    m = {f"linalg.{n}_per_solve": per_solve("linalg." + n)
         for n in DECOMPOSITIONS}
    m["linalg.decomp_per_solve"] = (decomp / solves, "count")
    m["linalg.support.calls_per_solve"] = per_solve("linalg.support")
    m["optimality.check.calls_per_solve"] = per_solve("optimality.check.calls")
    m["optimality.check.time_frac"] = frac(total["optimality.check"])
    m["optimality.certificate.calls_per_solve"] = per_solve(
        "optimality.certificate.calls")
    m["optimality.certificate.time_frac"] = frac(
        total["optimality.certificate"])
    m["optimality.certificate.fail_ratio"] = ratio(
        "optimality.certificate.fail", "optimality.certificate.calls")
    for layer in ("single_detection", "fidelity"):
        key = "closed_form." + layer
        m[key + ".calls_per_solve"] = per_solve(key + ".calls")
        m[key + ".hit_ratio"] = ratio(key + ".hit", key + ".calls")
        m[key + ".time_frac"] = frac(total[key])
    m["solver4d.solve_4d.calls_per_solve"] = per_solve(
        "solver4d.solve_4d.calls")
    m["solver4d.solve_4d.self_frac"] = frac(own["solver4d.solve_4d"])
    m["solver4d.candidates_per_solve"] = per_solve("solver4d.candidates")
    m["solver4d.finalize.calls_per_solve"] = per_solve(
        "solver4d.finalize.calls")
    m["solver4d.finalize.accept_ratio"] = ratio(
        "solver4d.finalize.accept", "solver4d.finalize.calls")
    m["solver4d.finalize.time_frac"] = frac(total["solver4d.finalize"])
    m["solver4d.enumerate.time_frac"] = frac(total["solver4d.enumerate"])
    m["reductions.reduce_fully.calls_per_solve"] = per_solve(
        "reductions.reduce_fully.calls")
    m["reductions.reduce_fully.time_frac"] = frac(
        total["reductions.reduce_fully"])
    m["pipeline.dispatch.calls_per_solve"] = per_solve(
        "pipeline.dispatch.calls")
    m["pipeline.dispatch.self_frac"] = frac(own["pipeline.dispatch"])
    m["model.complete_measurement.calls_per_solve"] = per_solve(
        "model.complete_measurement.calls")
    m["oracle.optimize.calls_per_solve"] = per_solve("oracle.optimize.calls")
    m["oracle.optimize.time_frac"] = frac(total["oracle.optimize"])
    m["oracle.iterations_per_call"] = (
        c["oracle.iterations"] / c["oracle.optimize.calls"]
        if c["oracle.optimize.calls"] else 0.0, "count")
    m["oracle.project.calls_per_solve"] = per_solve("oracle.project.calls")
    m["oracle.project.time_frac"] = frac(total["oracle.project"])
    m["trace.overhead_frac"] = (overhead, "frac")
    return m


def traced(workload, mods, args, tally):
    """Untraced cycles for half the time, then traced cycle 0."""
    times, solves, cycles = measure(workload, args.seed, args.seconds / 2,
                                    tally)
    untraced = sum(times) / solves
    traced_time = 0.0
    traced_solves = 0
    with Tracer() as tracer:
        for item in workload.cycle(cycle_rng(args.seed, 0)):
            t, s = timed_call(workload, item, tally, tracer)
            traced_time += t
            traced_solves += s
    overhead = (traced_time / traced_solves) / untraced - 1.0
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload.name}.json")
    metrics = layer_metrics(tracer, traced_solves, overhead)
    probe = example1_probe(mods)
    for key, value in probe.items():
        metrics[f"example1.{key}"] = (value, "count")
    info = {"traced_solves": traced_solves, "untraced_cycles": cycles,
            "spans": len(tracer.spans),
            "example1_matches_baseline": probe == EXAMPLE1_BASELINE}
    return metrics, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    # a few instances per workload, for perfbench/smoke.py
    parser.add_argument("--size", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    mods, workload = setup(args.workload, args.size)
    if args.setup_probe:
        print(time.perf_counter() - T0)
        return 0
    tally = Tally()
    if args.trace:
        metrics, info = traced(workload, mods, args, tally)
    else:
        metrics, info = end_to_end(workload, args, tally)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in info.items()))
    for key, (value, unit) in metrics.items():
        print(f"{key} {value:.6g} {unit}")
    print(f"failed_frac {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} solves)")
    for message in tally.messages:
        print(f"FAILED {message}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
