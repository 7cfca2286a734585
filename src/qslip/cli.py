"""Command-line front end.

Subcommands: classify, derive-params, eigs, windows, bounds, verify,
evolve.  CSV output is deterministic (header row, '.' decimals, 17
significant digits, LF line endings, NA for undefined concurrence); JSON
objects carry a top-level ``"schema": 1``.  Each subcommand's parameters
are declared once, in ``_COMMANDS``, which gives every one its flag, its
config key (the long flag name), its type, its default and its help text.
A JSON config file may supply any parameter; explicit flags win.  Each
handler returns its text and exit code, and ``main`` writes the text once,
to stdout or to ``--output``.

Exit codes: 0 success, 1 verification failure, 2 invalid input.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import crosscheck
from .bipartite import (concurrence_curve, detect_windows, eigenvalues_closed_form,
                        positivity_bound, r4_max, window_functions)
from .oracle import MAX_STEPS, IntegratorConfig
from .semigroup import (BlochVector, ModelParams, StochasticFieldParams, bloch_trajectory,
                        classify, derive_params, norm_bound_max)
from .slippage import checked_mu

SCHEMA_VERSION = 1

_REQUIRED = object()


def _fmt(x) -> str:
    """Locale-independent float rendering at 17 significant digits."""
    return format(float(x), ".17g")


def _effective(args: argparse.Namespace) -> dict:
    """Merge flag values over config-file values over the table's defaults."""
    params = _COMMANDS[args.command][3]
    config = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = sorted(set(config) - set(params))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    merged = {}
    for name, (cast, fallback, _) in params.items():
        value = getattr(args, name.replace("-", "_"))
        if value is None and name in config:
            value = config[name]
            if type(value) not in (int, cast) or not abs(value) <= sys.float_info.max:
                raise ValueError(f"config value {name}={value!r} is not a finite {cast.__name__}")
            value = cast(value)
        if value is None:
            value = fallback
        if value is _REQUIRED:
            raise ValueError(f"missing required parameter --{name}")
        merged[name] = value
    return merged


def _json_doc(payload: dict) -> str:
    return json.dumps({"schema": SCHEMA_VERSION, **payload}, indent=2, allow_nan=False) + "\n"


def _table(args, header: list[str], rows: list[list], report=None) -> str:
    """Rows of finite floats (None for NA) as CSV or as a JSON table.

    A window report goes out as the CSV trailer ``# window_report: {...}``
    or as the JSON key ``"report"``.  A NaN or infinite value, where the
    closed forms overflow for these inputs, raises ``ValueError``.
    """
    finite = math.isfinite
    if not all(x is None or finite(x) for row in rows for x in row):
        i, name, x = next((i, name, x) for i, row in enumerate(rows)
                          for name, x in zip(header, row) if not (x is None or finite(x)))
        raise ValueError(f"{name}={x} in row {i} is not a finite float for these inputs")
    payload = {"columns": header, "rows": rows}
    if report is not None:
        payload["report"] = {"schema": SCHEMA_VERSION, **dataclasses.asdict(report)}
    if args.format == "json":
        return _json_doc(payload)
    lines = [",".join(header)]
    lines += [",".join("NA" if x is None else _fmt(x) for x in row) for row in rows]
    if report is not None:
        lines.append("# window_report: " + json.dumps(payload["report"]))
    return "\n".join(lines) + "\n"


def _cmd_classify(args, eff: dict) -> tuple[str, int]:
    a, b = eff["a"], eff["b"]
    tag = classify(ModelParams(a, b, eff["omega"]))
    return _json_doc({"tag": tag.value, **eff, "a2_minus_b2": a * a - b * b}), 0


def _cmd_derive_params(args, eff: dict) -> tuple[str, int]:
    rates = derive_params(StochasticFieldParams(
        g1=eff["g1"], g2=eff["g2"], g3=eff["g3"], lam=eff["lambda"], lam3=eff["lambda3"],
        omega_tilde=eff["omega-tilde"]))
    return _json_doc({**rates._asdict(), "b_abs": abs(rates.b_raw)}), 0


def _check_grid(steps: int, t_max: float, omega: float) -> None:
    if not 1 <= steps <= MAX_STEPS:
        raise ValueError(f"steps must lie in [1, {MAX_STEPS}], got {steps}")
    if not 0.0 < t_max < math.inf:
        raise ValueError(f"time horizon must be finite and > 0, got {t_max}")
    # Grid times k * t_max / steps and the phase 2 Omega t (Omega <= omega)
    # must not overflow, or the rows would hold inf and NaN.
    if not (steps * t_max < math.inf and 2.0 * omega * t_max < math.inf):
        raise ValueError(
            f"time grid overflows: steps * t_max and 2 * omega * t_max must be finite, "
            f"got steps={steps}, t_max={t_max}, omega={omega}"
        )


def _cmd_eigs(args, eff: dict) -> tuple[str, int]:
    mu = checked_mu(eff["mu"])
    p = ModelParams(eff["a"], eff["b"], eff["omega"])
    _check_grid(eff["steps"], eff["t-max"], p.omega)
    times = np.arange(eff["steps"] + 1) * eff["t-max"] / eff["steps"]
    columns = [times, *eigenvalues_closed_form(p, mu, times), concurrence_curve(p, mu, times)]
    rows = [[*row[:5], None if math.isnan(row[5]) else row[5]]
            for row in np.column_stack(columns).tolist()]
    return _table(args, ["t", "e1", "e2", "e3", "e4", "concurrence"], rows), 0


def _cmd_windows(args, eff: dict) -> tuple[str, int]:
    p = ModelParams(eff["a"], eff["b"], eff["omega"])
    horizon = eff["t-max-offset"]
    if horizon is None:
        horizon = math.pi / p.Omega
    _check_grid(eff["steps"], horizon, p.omega)
    report = detect_windows(p, horizon)
    offsets = np.linspace(0.0, horizon, eff["steps"] + 1)
    rows = np.column_stack([offsets, *window_functions(p, offsets)]).tolist()
    return _table(args, ["t_offset", "f", "g", "headroom"], rows, report), 0


def _cmd_bounds(args, eff: dict) -> tuple[str, int]:
    p = ModelParams(eff["a"], eff["b"], eff["omega"])
    radius, t_prime = norm_bound_max(p)
    peak4, t_star = r4_max(p)
    return _json_doc({"R": radius, "t_prime": t_prime, "R4": peak4, "t_star": t_star,
                      "R4_inv": 1.0 / peak4,
                      "mu_corrected": detect_windows(p).mu_upper_corrected}), 0


def _cmd_evolve(args, eff: dict) -> tuple[str, int]:
    p = ModelParams(eff["a"], eff["b"], eff["omega"])
    _check_grid(eff["steps"], eff["t-max"], p.omega)
    r0 = BlochVector(eff["r1"], eff["r2"], eff["r3"])
    times = np.linspace(0.0, eff["t-max"], eff["steps"] + 1)
    traj = bloch_trajectory(p, r0, times)
    norms = np.sqrt((traj * traj).sum(axis=1))
    rows = np.column_stack([times, traj, norms]).tolist()
    return _table(args, ["t", "r1", "r2", "r3", "norm"], rows), 0


def _cmd_verify(args, eff: dict) -> tuple[str, int]:
    mu, tol_ode, t_max = checked_mu(eff["mu"]), eff["tol"], eff["t-max"]
    if not (0.0 < tol_ode < math.inf):
        raise ValueError(f"tol must be finite and > 0, got {tol_ode}")
    p = ModelParams(eff["a"], eff["b"], eff["omega"])
    tol_alg, tol_max = 1e-10, 1e-6
    r0 = BlochVector(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), 0.0)
    rk4 = crosscheck.propagator_vs_rk4(p, r0, IntegratorConfig(step=eff["step"], t_max=t_max))
    sample_ts = np.linspace(0.0, t_max, 9).tolist()
    spectrum = crosscheck.spectrum_vs_jacobi(p, mu, sample_ts)
    # Also just inside the positivity bound, where the concurrence is typically nonzero.
    concurrence, points = crosscheck.concurrence_vs_wootters(
        p, dict.fromkeys((mu, 0.999 * positivity_bound(p))), sample_ts)
    maxima = crosscheck.maxima_vs_golden_section(p)
    ppt = crosscheck.spectrum_vs_jacobi(p, mu, sample_ts, transposed=True)
    checks = [
        ("propagator_vs_rk4", rk4 <= tol_ode, f"max_dev={rk4:.3e} tol={tol_ode:.1e}"),
        ("eigenvalues_vs_jacobi", spectrum <= tol_alg, f"max_dev={spectrum:.3e} tol={tol_alg:.1e}"),
        ("concurrence_closed_vs_wootters", concurrence <= tol_alg and points > 0,
         f"max_dev={concurrence:.3e} tol={tol_alg:.1e} points={points}"),
        ("maxima_vs_golden_section", maxima <= tol_max, f"max_dev={maxima:.3e} tol={tol_max:.1e}"),
        ("ppt_mu_sign_symmetry", ppt <= tol_alg, f"tol={tol_alg:.1e}"),
    ]
    lines = [f"{'PASS' if ok else 'FAIL'}  {name:<32} {detail}" for name, ok, detail in checks]
    failures = sum(not ok for _, ok, _ in checks)
    lines.append(f"{failures} check(s) failed" if failures else "all checks passed")
    return "\n".join(lines) + "\n", 1 if failures else 0


_MODEL = {
    "a": (float, _REQUIRED, "damping rate a >= 0"),
    "b": (float, _REQUIRED, "off-diagonal rate b >= 0"),
    "omega": (float, 1.0, "precession frequency (default 1)"),
}

# name -> (handler, help, has --format, {flag: (type, default, help)}).
# argparse leaves each flag None when absent, so a config value can fill it.
_COMMANDS = {
    "classify": (_cmd_classify, "positivity class of the map family", False, _MODEL),
    "derive-params": (_cmd_derive_params, "model rates from stochastic-field constants", False, {
        "g1": (float, _REQUIRED, "first transverse noise strength"),
        "g2": (float, _REQUIRED, "second transverse noise strength"),
        "g3": (float, _REQUIRED, "longitudinal noise strength"),
        "lambda": (float, _REQUIRED, "transverse correlation rate"),
        "lambda3": (float, _REQUIRED, "longitudinal correlation rate"),
        "omega-tilde": (float, _REQUIRED, "bare precession frequency"),
    }),
    "eigs": (_cmd_eigs, "spectrum and concurrence of the evolved isotropic state", True, {
        **_MODEL,
        "mu": (float, 1.0, "contraction strength in [0, 1] (default 1)"),
        "t-max": (float, 5.0, "time horizon (default 5)"),
        "steps": (int, 1000, "number of grid steps (default 1000)"),
    }),
    "windows": (_cmd_windows, "entanglement-creation window diagnostics", True, {
        **_MODEL,
        "t-max-offset": (float, None, "offset horizon (default pi/Omega)"),
        "steps": (int, 4000, "grid steps of the printed table only (default 4000)"),
    }),
    "bounds": (_cmd_bounds, "critical radii and contraction bounds", False, _MODEL),
    "verify": (_cmd_verify, "run the oracle cross-check suite", False, {
        **_MODEL,
        "mu": (float, 0.2, "contraction strength (default 0.2)"),
        "tol": (float, 1e-8, "tolerance for the ODE checks (default 1e-8)"),
        "t-max": (float, 2.0, "integration horizon (default 2)"),
        "step": (float, 1e-4, "RK4 step (default 1e-4)"),
    }),
    "evolve": (_cmd_evolve, "Bloch-vector trajectory of a single qubit", True, {
        **_MODEL,
        "r1": (float, 1.0 / math.sqrt(2.0), "initial r1 (default 1/sqrt(2))"),
        "r2": (float, 1.0 / math.sqrt(2.0), "initial r2 (default 1/sqrt(2))"),
        "r3": (float, 0.0, "initial r3 (default 0)"),
        "t-max": (float, 5.0, "time horizon (default 5)"),
        "steps": (int, 1000, "number of grid steps (default 1000)"),
    }),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qslip",
        description="Dephasing-qubit semigroup, slippage channel, and entanglement diagnostics.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, has_format, params) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        for flag, (cast, _, flag_help) in params.items():
            sub.add_argument(f"--{flag}", type=cast, help=flag_help)
        sub.add_argument("--config", help="JSON file whose keys mirror the long flag names")
        sub.add_argument("--output", help="output path (default: stdout)")
        if has_format:
            sub.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Overflow reaches the output as inf or NaN, which _table rejects.
        with np.errstate(all="ignore"):
            text, code = _COMMANDS[args.command][0](args, _effective(args))
        if args.output is None or args.output == "-":
            sys.stdout.write(text)
        else:
            with open(args.output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        return code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
