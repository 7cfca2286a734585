"""One benchmark process: set up a workload, then optionally measure it.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace T --mode setup|measure

Started by ``run.py`` in a fresh interpreter with ``src`` on PYTHONPATH.
Set-up is: import numpy, import qslip, generate the inputs, and run
operation 0 untimed as warm-up.  ``--mode setup`` stops there.  ``--mode
measure`` then times operations 1, 2, ... in a closed loop until at least
``--seconds`` have passed, at least MIN_TIMED_OPS operations have run and
the last period of the operation pattern is complete.  With ``--trace 1``
operations 1..trace_ops are then run again under the span recorder, and
for ``sweep`` also the 28 calls of ``workloads.CliCalls``, so every count
in the trace repeats exactly for a given seed.  The last stdout line is
one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import traceback
from time import perf_counter

_t0 = perf_counter()
import numpy  # noqa: E402

_t1 = perf_counter()
import qslip  # noqa: E402

_t2 = perf_counter()

import spans  # noqa: E402
import workloads  # noqa: E402

# op_ms_p90 needs at least ten samples above it.
MIN_TIMED_OPS = 100


def attempt(w, i, failures):
    """Run and check operation i; return its timed seconds, or None if it raised."""
    try:
        start = perf_counter()
        result = w.run(i)
        elapsed = perf_counter() - start
        error = w.check(i, result)
    except Exception:  # a raising operation counts as failed; the loop goes on
        elapsed, error = None, traceback.format_exc(limit=3)
    if error is not None:
        failures.append(f"op {i}: {error}")
    return elapsed


def timed_phase(w, seconds, failures):
    """Closed loop over operations 1, 2, ...; returns (durations, ops, elapsed)."""
    durations = []
    i = 0
    start = perf_counter()
    while True:
        i += 1
        elapsed = attempt(w, i, failures)
        if elapsed is not None:
            durations.append(elapsed)
        done = perf_counter() - start
        if i % w.period == 0 and i >= MIN_TIMED_OPS and done >= seconds:
            return durations, i, done


def traced_block(w, rec, failures):
    """Operations 1..trace_ops under the recorder; returns each one's traced seconds."""
    traced = []
    with rec.tracing():
        for i in range(1, w.trace_ops + 1):
            with rec.op_span(i):
                start = perf_counter()
                result = w.run(i)
                traced.append(perf_counter() - start)
            error = w.check(i, result)
            if error is not None:
                failures.append(f"traced op {i}: {error}")
    return traced


def cli_block(calls, rec, failures):
    """Each CLI call as a subprocess, then in-process untraced, then in-process traced.

    Returns the untraced in-process seconds and the subprocess seconds of
    each call.  Span op ids of the calls are negative.
    """
    plain, sub = [], []
    for i in range(calls.calls):
        start = perf_counter()
        proc = calls.run(i)
        sub.append(perf_counter() - start)
        error = calls.check(i, proc)
        seconds, code, out = calls.main_inprocess(i)
        plain.append(seconds)
        with rec.tracing(), rec.op_span(-1 - i):
            _, traced_code, traced_out = calls.main_inprocess(i)
        rec.counts["cli.out_bytes"] += len(traced_out)
        if error is None and not (code == traced_code == 0 and out == traced_out == proc.stdout):
            error = "in-process output differs from the subprocess's stdout"
        if error is not None:
            failures.append(f"cli call {i}: {error}")
    return plain, sub


def _per(total, count, scale):
    return total / count * scale if count else 0.0


def layer_metrics(rec, traced, plain, sub, untraced):
    """Per-layer metrics from the recorded spans and counts, and the calls per span name.

    The calls are the sample counts behind the per-layer percentiles.
    """
    s = rec.summary()
    counts = rec.counts

    def durations(name):
        return s[name]["durations"]

    m = {}
    for module in spans.MODULES:
        names = [name for name in s if name.startswith(module + ".")]
        m[f"{module}.busy_s"] = sum(s[name]["self_s"] for name in names)
        m[f"{module}.calls"] = sum(s[name]["calls"] for name in names)
    subcommands = workloads.CliCalls.subcommands
    for j, name in enumerate(subcommands):
        m[f"cli.{name}.main_ms_p50"] = spans.p50(plain[j::len(subcommands)], 1e3)
    m["cli.startup_ms_p50"] = spans.p50([a - b for a, b in zip(sub, plain)], 1e3)
    m["cli.out_bytes"] = counts["cli.out_bytes"]
    steps_2, steps_4 = counts["rk4_steps_2x2"], counts["rk4_steps_4x4"]
    m["oracle.rk4_steps"] = steps_2 + steps_4
    m["oracle.rk4_us_per_step_2x2"] = _per(durations("oracle.integrate_master_2x2").sum(), steps_2, 1e6)
    m["oracle.rk4_us_per_step_4x4"] = _per(durations("oracle.integrate_master_4x4").sum(), steps_4, 1e6)
    m["oracle.maximize_scalar.ms_p50"] = spans.p50(durations("oracle.maximize_scalar"), 1e3)
    m["qmat.hermitian_eigenvalues.us_p50"] = spans.p50(durations("qmat.hermitian_eigenvalues"), 1e6)
    m["bipartite.detect_windows.ms_p50"] = spans.p50(durations("bipartite.detect_windows"), 1e3)
    m["bipartite.detect_windows.intervals"] = counts["detect_windows.intervals"]
    for name in ("eigenvalues_closed_form", "concurrence_closed_form",
                 "concurrence_wootters", "evolve_isotropic"):
        m[f"bipartite.{name}.us_p50"] = spans.p50(durations(f"bipartite.{name}"), 1e6)
    m["slippage.choi_points"] = counts["choi_points"]
    m["slippage.is_completely_positive.us_per_point"] = _per(
        durations("slippage.is_completely_positive").sum(), counts["choi_points"], 1e6)
    m["semigroup.bloch_trajectory.us_p50"] = spans.p50(durations("semigroup.bloch_trajectory"), 1e6)
    m["semigroup.norm_bound_max.us_p50"] = spans.p50(durations("semigroup.norm_bound_max"), 1e6)
    m["trace.spans"] = len(rec.start)
    # The same operations on both sides.
    base = untraced[: len(traced)]
    m["trace.overhead_ratio"] = sum(traced[: len(base)]) / sum(base)
    return m, {name: v["calls"] for name, v in s.items() if v["calls"]}


def traced_run(w, seed, scratch, untraced, failures):
    """Traced block, then the CLI calls if the workload traces them.

    Returns the recorder, the per-layer metrics, the calls per span name
    and the number of operations and calls run.
    """
    rec = spans.Recorder(qslip)
    traced = traced_block(w, rec, failures)
    plain, sub = [], []
    if w.traces_cli:
        plain, sub = cli_block(workloads.CliCalls(seed, scratch), rec, failures)
    per_layer, span_calls = layer_metrics(rec, traced, plain, sub, untraced)
    return rec, per_layer, span_calls, w.trace_ops + len(plain)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args(argv)

    src = os.path.realpath(os.path.join(os.path.dirname(__file__), "..", "src"))
    if not os.path.realpath(qslip.__file__).startswith(src + os.sep):
        raise SystemExit(f"qslip imported from {qslip.__file__}, not from {src}")

    w = workloads.WORKLOADS[args.workload](args.seed, args.scratch)
    failures = []
    attempt(w, 0, failures)
    out = {
        "import_numpy_ms": (_t1 - _t0) * 1e3,
        "import_qslip_ms": (_t2 - _t1) * 1e3,
        "numpy": numpy.__version__,
        "failures": failures,
    }
    if args.mode == "measure":
        durations, ops, elapsed = timed_phase(w, args.seconds, failures)
        deciles = statistics.quantiles(durations, n=10)
        out.update(
            ops=ops,
            samples=len(durations),
            elapsed_s=elapsed,
            ops_per_s=ops / elapsed,
            op_ms_p50=statistics.median(durations) * 1e3,
            op_ms_p90=deciles[8] * 1e3,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if args.trace:
            rec, out["per_layer"], out["span_calls"], out["traced_ops"] = traced_run(
                w, args.seed, args.scratch, durations, failures)
            numpy.savez(os.path.join(args.scratch, f"spans-{args.workload}-{args.seed}.npz"),
                        **rec.arrays())
    print(json.dumps(out))


if __name__ == "__main__":
    main()
