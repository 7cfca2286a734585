"""qslip benchmark: seeded workloads, checked outputs, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload sweep|crosscheck --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src`` and nothing is installed.  Workloads (see ``workloads.py`` and
BENCHMARK.json for why each exists):

* ``sweep``: one operation analyses one phase-diagram point with the
  closed forms and the window scan; no oracle is called.  Its traced run
  also measures the command line: 28 calls over all 7 subcommands, each
  as a ``python -m qslip`` subprocess and in-process.
* ``crosscheck``: one operation is one oracle-against-closed-form check
  (RK4, Jacobi, Wootters, golden section, Choi scan).

The set-up time is the median wall time of SETUP_RUNS fresh interpreters
that each import qslip, generate the inputs and run one warm-up operation.
A separate fresh interpreter then measures (``worker.py``).  With
``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics from the span recorder.  The
line before it is the run record (commit, interpreter, machine, seed,
operation and sample counts).  Both also go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
SETUP_RUNS = 8
# Every process must end inside the benchmark's 180 s limit.
DEADLINE_S = 170.0


def run_process(cmd, env, timeout):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"{' '.join(cmd)} did not finish in {timeout:.0f} s")
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(stdout.decode().strip().splitlines()[-1])


def commit():
    """HEAD of the checkout's git metadata, if the checkout has any."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown"
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = os.path.join(ROOT, ".git", name)
    if os.path.isfile(loose):
        with open(loose) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    return "unknown"


def source_digest():
    """sha256 over src/, which identifies the code where there is no git metadata."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "crosscheck"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "qslip", "__init__.py")):
        print(f"error: no qslip sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    scratch = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(os.path.join(scratch, "tmp"), exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), TMPDIR=os.path.join(scratch, "tmp"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    base = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--scratch", scratch]

    started = perf_counter()
    setup_s, setups = [], []

    def set_up():
        t0 = perf_counter()
        setups.append(run_process(base + ["--mode", "setup"], env, DEADLINE_S))
        setup_s.append(perf_counter() - t0)

    # Half the set-ups before and half after the measurement, so that they
    # sample the machine at different times of the run.
    for _ in range(SETUP_RUNS // 2):
        set_up()
    result = run_process(base + ["--mode", "measure"], env, DEADLINE_S - (perf_counter() - started))
    for _ in range(SETUP_RUNS - SETUP_RUNS // 2):
        set_up()

    failures = [f for s in setups for f in s["failures"]] + result["failures"]
    attempted = SETUP_RUNS + 1 + result["ops"] + result.get("traced_ops", 0)
    if args.trace:
        metrics = dict(result["per_layer"])
        metrics["import.numpy_ms"] = statistics.median(s["import_numpy_ms"] for s in setups)
        metrics["import.qslip_ms"] = statistics.median(s["import_qslip_ms"] for s in setups)
    else:
        metrics = {name: result[name] for name in ("ops_per_s", "op_ms_p50", "op_ms_p90", "peak_rss_mb")}
        metrics["setup_s"] = statistics.median(setup_s)
        metrics["ok_ratio"] = 1.0 - len(failures) / attempted

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    mismatch = {m["name"] for m in wanted} ^ set(metrics)
    if mismatch:
        raise SystemExit(f"metrics and BENCHMARK.json disagree on: {sorted(mismatch)}")

    record = {
        "commit": commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_runs": SETUP_RUNS,
        "timed_ops": result["ops"],
        "percentile_samples": result["samples"],
        "traced_ops": result.get("traced_ops", 0),
        "span_calls": result.get("span_calls", {}),
        "elapsed_s": result["elapsed_s"],
        "failures": failures[:20],
    }
    summary = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in sorted(metrics.items())},
    }
    stem = os.path.join(scratch, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"record": record, "result": summary}, fh, indent=1)
    for failure in failures[:5]:
        print(failure, file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
