#!/usr/bin/env python3
"""Write perfbench/reference.json: the successes the correctness gate expects.

    python3 perfbench/freeze.py

The values were frozen once, from the commit that defined the benchmark,
on the unrotated base instances of `instances.py`.  They are the program's
answers at that commit, not a tuning knob: never regenerate them to make a
mismatch go away.  A run that disagrees with them has found a change in
the program's answers, and that is what the gate is for.

Besides the values, the file lists which rank-(3,3) candidates reach the
oracle (the first ORACLE_PER_DIM per dimension), so the oracle workload's
instance filter is frozen with them.
"""
from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import instances as inst  # noqa: E402
from usdkit import WeightedDensityPair, dispatch, sweep  # noqa: E402

ORACLE_PER_DIM = 3


def main():
    out = {"note": "frozen successes; see freeze.py before touching",
           "pool_seed": inst.POOL_SEED, "sweep": {}, "dispatch": [],
           "oracle": {}}
    for name, r1, r2 in inst.sweep_pairs():
        rows = sweep(r1, r2, inst.SWEEP_GRID)
        out["sweep"][name] = [r.success_probability for r in rows]
        print(name, Counter(r.branch for r in rows), file=sys.stderr)

    branches = Counter()
    for shape, r1, r2, p1 in inst.dispatch_instances():
        outcome = dispatch(WeightedDensityPair.from_states(r1, r2, p1))
        branches[(shape, outcome.branch)] += 1
        if not outcome.optimal:
            print("not optimal:", shape, p1, outcome.branch, file=sys.stderr)
        out["dispatch"].append(outcome.success)
    for key, n in sorted(branches.items()):
        print(*key, n, file=sys.stderr)

    for d in inst.ORACLE_DIMS:
        kept = []
        index = 0
        while len(kept) < ORACLE_PER_DIM:
            r1, r2, p1 = inst.oracle_candidate(d, index)
            start = time.perf_counter()
            outcome = dispatch(WeightedDensityPair.from_states(r1, r2, p1))
            seconds = time.perf_counter() - start
            print(f"C^{d} #{index}: {outcome.branch} {seconds:.2f} s",
                  file=sys.stderr)
            if outcome.branch.startswith("oracle"):
                kept.append([index, outcome.success])
            index += 1
        out["oracle"][str(d)] = kept

    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
