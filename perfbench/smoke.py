#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes; takes about a minute.

    python3 perfbench/smoke.py

Runs every workload untraced and traced on a few instances each, with the
correctness gate on, and checks that:
  - each run exits 0 and ends with the result line BENCHMARK.json promises,
    with every solve correct;
  - two traced runs of one seed give identical counts;
  - in a directory holding only BENCHMARK.json and perfbench/, the benchmark
    exits non-zero without printing a result.
It also reports whether dispatch on example1 at p1 = 0.5 still makes the
decomposition counts recorded when the benchmark was defined.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = HERE / "out" / "smoke"

sys.path.insert(0, str(HERE))
from run import EXAMPLE1_BASELINE, WORKLOADS  # noqa: E402


def bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


def result(workload, trace, seed=3):
    proc = bench(ROOT, "--workload", workload, "--seed", str(seed),
                 "--seconds", "0", "--trace", str(trace), "--size", "1")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(out) == ["attempted", "correct", "failed", "metrics"], out
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, \
        proc.stdout
    return out


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    for workload in sorted(WORKLOADS):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            metrics = result(workload, trace)["metrics"]
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in metrics.items()}
            assert got == expected, (workload, kind, got, expected)
            if trace:
                again = result(workload, trace)["metrics"]
                counts = {k: v["value"] for k, v in metrics.items()
                          if v["unit"] in ("count", "ratio")}
                assert counts == {k: again[k]["value"] for k in counts}, \
                    workload
                probe = {k: metrics["example1." + k]["value"]
                         for k in EXAMPLE1_BASELINE}
            print(f"ok {workload} trace={trace}")
    print("example1 counts", "match" if probe == EXAMPLE1_BASELINE
          else "differ from", "the baseline", EXAMPLE1_BASELINE, probe)

    shutil.rmtree(SCRATCH, ignore_errors=True)
    shutil.copytree(HERE, SCRATCH / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", SCRATCH)
    proc = bench(SCRATCH, "--workload", "sweep-4d", "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0 and "{" not in proc.stdout, proc.stdout
    shutil.rmtree(SCRATCH)
    print("ok bare checkout fails without a result")


if __name__ == "__main__":
    main()
