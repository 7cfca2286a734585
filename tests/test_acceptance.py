"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
pass; every tolerance is pinned here, nothing is calibrated at runtime.
"""

import math
import subprocess
import sys

import numpy as np

from conftest import CLI_COMMANDS, FIGURE_PARAMS, bloch_of, random_model_params
from qslip import (
    BlochVector,
    Classification,
    IntegratorConfig,
    ModelParams,
    SlippageChannel,
    bloch_trajectory,
    can_create_entanglement,
    classify,
    compose_actions,
    detect_windows,
    integrate_master_2x2,
    is_completely_positive,
    maximize_scalar,
    norm_bound_curve,
    norm_bound_max,
    positivity_bound,
    rate_factor_product_form,
    semigroup_action,
    slippage_action,
    window_functions,
)
from qslip import crosscheck

R_PLUS = BlochVector(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), 0.0)
R_MINUS = BlochVector(1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0), 0.0)


def _criterion(number, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {number:>2}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_classification_grid():
    ts = np.linspace(0.0, 10.0, 4001)
    rule_ok = True
    behavior_ok = True
    for a in np.linspace(0.0, 1.0, 20):
        for b in np.linspace(0.0, 0.95, 20):
            p = ModelParams(float(a), float(b), 1.0)
            tag = classify(p)
            if b == 0.0:
                expected = Classification.COMPLETELY_POSITIVE
            elif a * a >= b * b:
                expected = Classification.POSITIVE_NOT_CP
            else:
                expected = Classification.NON_POSITIVE
            rule_ok &= tag is expected
            if b == 0.0:
                behavior_ok &= np.exp(-4.0 * a * ts).max() <= 1.0 + 1e-12
                continue
            peak = norm_bound_curve(p, ts).max()
            _, t_prime = norm_bound_max(p)
            peak = max(peak, float(norm_bound_curve(p, t_prime)))
            if tag is Classification.NON_POSITIVE:
                behavior_ok &= peak > 1.0 + 1e-6
            else:
                behavior_ok &= peak <= 1.0 + 1e-12
    _criterion(1, rule_ok and behavior_ok,
               f"400-point grid, rule={rule_ok}, norm behavior={behavior_ok}")


def test_criterion_02_figure_caption_radius():
    value = positivity_bound(ModelParams(0.1, 0.9))
    _criterion(2, abs(value - 0.25) <= 0.005, f"R4^-1 = {value:.6f} vs 0.25 +- 0.005")


def test_criterion_03_propagator_vs_rk4():
    cfg = IntegratorConfig(step=1e-4, t_max=5.0)
    worst = float(np.max([crosscheck.propagator_vs_rk4(p, R_PLUS, cfg) for p in FIGURE_PARAMS]))
    _criterion(3, worst <= 1e-8, f"sup deviation {worst:.3e} <= 1e-8, step 1e-4, t in [0,5]")


def test_criterion_04_spectrum_closed_forms():
    rng = np.random.default_rng(104)
    devs = []
    for _ in range(1000):
        p = random_model_params(rng)
        mu = rng.uniform(0.0, 1.0)
        devs.append(crosscheck.spectrum_vs_jacobi(p, mu, [rng.uniform(0.0, 5.0)]))
    worst = float(np.max(devs))
    _criterion(4, worst <= 1e-10, f"1000 draws, max deviation {worst:.3e} <= 1e-10")


def test_criterion_05_concurrence_equivalence():
    rng = np.random.default_rng(105)
    devs, points = [], 0
    for _ in range(1000):
        p = random_model_params(rng)
        mu = rng.uniform(0.0, 1.0) * positivity_bound(p)
        dev, n = crosscheck.concurrence_vs_wootters(p, [mu], [rng.uniform(0.0, 5.0)])
        devs.append(dev)
        points += n
    worst = float(np.max(devs))
    _criterion(5, worst <= 1e-10 and points == 1000,
               f"{points} draws, max deviation {worst:.3e} <= 1e-10")


def test_criterion_06_partial_transpose_symmetry():
    rng = np.random.default_rng(106)
    ok = True
    for _ in range(200):
        p = random_model_params(rng)
        mu = rng.uniform(0.0, 1.0)
        ok &= crosscheck.spectrum_vs_jacobi(p, mu, [rng.uniform(0.0, 5.0)], transposed=True) <= 1e-10
    _criterion(6, ok, "200 draws, transposed spectrum = closed forms at -mu, 1e-10")


def test_criterion_07_maxima_match_golden_section():
    worst = float(np.max([crosscheck.maxima_vs_golden_section(p) for p in FIGURE_PARAMS]))
    _criterion(7, worst <= 1e-6, f"(R,t'), (R4,t*), (G,t_bar) vs maximizer: {worst:.3e} <= 1e-6")


def test_criterion_08_entanglement_creation_criterion():
    rng = np.random.default_rng(108)
    ok = True
    tested = 0
    for _ in range(1000):
        p = random_model_params(rng)
        # The sign of max G from the maximizer on the product form, not from
        # the closed-form peak that shares its algebra with the criterion.
        _, peak = maximize_scalar(lambda t: rate_factor_product_form(p, t), 0.0,
                                  math.pi / (2.0 * p.Omega))
        if abs(peak) < 1e-10:
            continue
        ok &= can_create_entanglement(p) == (peak > 0.0)
        tested += 1
    _criterion(8, ok and tested > 900, f"{tested} draws, criterion == sign(max G)")


def test_criterion_09_window_reproduction():
    ok = True
    details = []
    for a, b, expect_kill in ((0.1, 0.8, True), (0.01, 0.4, True), (0.3, 0.8, False)):
        p = ModelParams(a, b)
        report = detect_windows(p)
        nonempty = bool(report.intervals)
        ok &= nonempty
        if expect_kill and nonempty:
            best_headroom = max(
                float(window_functions(p, np.linspace(t1, t2, 200))[2].max())
                for t1, t2 in report.intervals
            )
            ok &= best_headroom >= 0.0
            ok &= report.kills_all_entanglement
        details.append(f"({a},{b}): n={len(report.intervals)} kill={report.kills_all_entanglement}")
    _criterion(9, ok, "; ".join(details))


def test_criterion_10_choi_complete_positivity():
    grid = np.arange(0.0, 5.0001, 0.01)
    cp_branch = is_completely_positive(semigroup_action(ModelParams(0.5, 0.0, 1.0)), grid)
    ok = cp_branch.min_eigenvalue >= -1e-12

    positive_branch = is_completely_positive(semigroup_action(ModelParams(1.0, 0.5, 2.0)), grid)
    ok &= positive_branch.min_eigenvalue < -1e-8

    gamma = semigroup_action(ModelParams(0.1, 0.9))
    slip = slippage_action(SlippageChannel(0.25))
    slipped = is_completely_positive(lambda t: compose_actions(gamma(t), slip), grid)
    ok &= slipped.is_cp
    _criterion(
        10,
        ok,
        f"b=0 min {cp_branch.min_eigenvalue:.1e}; positive-not-CP min "
        f"{positive_branch.min_eigenvalue:.1e}; slipped CP={slipped.is_cp}",
    )


def test_criterion_11_small_time_norm_law():
    worst_ratio = 0.0
    for p in FIGURE_PARAMS:
        for r, rate in ((R_PLUS, p.a + p.b), (R_MINUS, p.a - p.b)):
            for t in (1e-4, 1e-3):
                r1, r2, r3 = bloch_trajectory(p, r, [t])[0].tolist()
                dev = abs(r1 * r1 + r2 * r2 + r3 * r3 - (1.0 - 4.0 * t * rate))
                worst_ratio = max(worst_ratio, dev / (t * t))
    _criterion(11, worst_ratio <= 50.0, f"|drift|/t^2 <= {worst_ratio:.2f} (allowed 50)")


def test_criterion_12_rk4_convergence_order():
    p = ModelParams(0.1, 0.9)

    def final_error(step):
        traj = integrate_master_2x2(p, R_PLUS.to_density_matrix(), IntegratorConfig(step=step, t_max=1.0))
        numeric = bloch_of(traj.states[-1:])[0]
        analytic = bloch_trajectory(p, R_PLUS, traj.times[-1:])[0]
        return np.abs(numeric - analytic).max()

    ratio = final_error(4e-3) / final_error(2e-3)
    _criterion(12, 12.0 <= ratio <= 20.0, f"error ratio h/(h/2) = {ratio:.2f} in [12, 20]")


def test_criterion_13_cli_determinism():
    ok = True
    for command in CLI_COMMANDS:
        first = subprocess.run([sys.executable, "-m", "qslip", *command], capture_output=True)
        second = subprocess.run([sys.executable, "-m", "qslip", *command], capture_output=True)
        ok &= first.returncode == second.returncode == 0
        ok &= first.stdout == second.stdout
    _criterion(13, ok, f"{len(CLI_COMMANDS)} subcommands, two runs each, byte-identical stdout")
