"""Self-test of the benchmark harness; exits non-zero on the first failed assertion.

    PYTHONPATH=src python3 perfbench/selftest.py

Checks that
* a seed changes the drawn values but not the mix of regimes;
* every count in a traced block repeats exactly when the block is run
  twice with the same seed, and every per-layer metric is reported;
* ``run.py`` fails without printing a result when the checkout has no
  qslip sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from collections import Counter

import worker
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check(condition, message):
    if not condition:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}")


def test_stratification(scratch):
    for cls in (*workloads.WORKLOADS.values(), workloads.CliCalls):
        mixes, values = [], []
        for seed in (1, 2):
            w = cls(seed, scratch)
            mixes.append(Counter(workloads.REGIMES[workloads.regime_of(p.a, p.b, p.omega)] for p in w.points))
            values.append([p.a for p in w.points])
        check(mixes[0] == mixes[1] and values[0] != values[1],
              f"{cls.__name__}: seeds 1 and 2 draw other values in the same mix {dict(mixes[0])}")


def test_exact_counts(scratch):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = {m["name"] for m in spec["per_layer"]} - {"import.numpy_ms", "import.qslip_ms"}
    counted = {m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "bytes")}
    for name, cls in workloads.WORKLOADS.items():
        runs = []
        for _ in range(2):
            failures = []
            w = cls(7, scratch)
            _, per_layer, _, _ = worker.traced_run(w, 7, scratch, [1.0] * w.trace_ops, failures)
            check(not failures, f"{name}: traced run passes its output checks")
            runs.append(per_layer)
        check(set(runs[0]) == names, f"{name}: traced run reports every per-layer metric")
        first, second = ({k: r[k] for k in counted} for r in runs)
        check(first == second, f"{name}: counts repeat exactly for seed 7 ({first['trace.spans']} spans)")


def test_bare_directory(scratch):
    bare = os.path.join(scratch, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, timeout=180)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout, "run.py fails without output when src/ is absent")


def main():
    scratch = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(scratch, exist_ok=True)
    test_stratification(scratch)
    test_exact_counts(scratch)
    test_bare_directory(scratch)


if __name__ == "__main__":
    main()
