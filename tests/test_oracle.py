import math
from pathlib import Path

import numpy as np
import pytest

from conftest import random_model_params
from qslip import (
    BlochVector,
    IntegratorConfig,
    ModelParams,
    bloch_trajectory,
    evolve_isotropic,
    integrate_master_2x2,
    integrate_master_4x4,
    isotropic,
    maximize_scalar,
    r4_curve,
    r4_max,
    concurrence_rate_factor,
    rate_factor_max,
)
from qslip import oracle, qmat
from qslip.oracle import MAX_STEPS, central_difference


def bloch_of(states):
    return np.stack(
        [
            2.0 * states[:, 0, 1].real,
            -2.0 * states[:, 0, 1].imag,
            2.0 * states[:, 0, 0].real - 1.0,
        ],
        axis=-1,
    )


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(step=0.0, t_max=1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(step=1e-3, t_max=-1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(step=2.0, t_max=1.0)


def test_config_caps_step_count():
    IntegratorConfig(step=1.0, t_max=float(MAX_STEPS))  # exactly at the cap
    for step, t_max in ((1e-4, 1e7), (5e-324, 1.0)):  # the second ratio overflows
        with pytest.raises(ValueError, match=f"must not exceed {MAX_STEPS} RK4 steps"):
            IntegratorConfig(step=step, t_max=t_max)


def test_step_accuracy_guard():
    p = ModelParams(0.1, 0.9)
    rho0 = BlochVector(0.0, 0.0, 1.0).to_density_matrix()
    with pytest.raises(ValueError):
        integrate_master_2x2(p, rho0, IntegratorConfig(step=0.05, t_max=1.0))


def test_initial_state_validation():
    p = ModelParams(0.1, 0.9)
    cfg = IntegratorConfig(step=1e-3, t_max=0.1)
    with pytest.raises(ValueError):
        integrate_master_2x2(p, np.array([[1.0, 1.0], [0.0, 0.0]]), cfg)  # not Hermitian
    with pytest.raises(ValueError):
        integrate_master_2x2(p, np.eye(2), cfg)  # trace 2


def test_non_finite_initial_state_rejected():
    # An all-NaN matrix has a NaN Hermiticity defect and a NaN trace; it
    # used to pass both checks and integrate to a NaN trajectory.
    p = ModelParams(0.1, 0.9)
    cfg = IntegratorConfig(step=1e-3, t_max=0.1)
    for integrate, dim in ((integrate_master_2x2, 2), (integrate_master_4x4, 4)):
        with pytest.raises(ValueError, match="not Hermitian"):
            integrate(p, np.full((dim, dim), np.nan), cfg)


def test_unitary_limit_conserves_norm():
    # a = b = 0: pure precession, passed as a raw triple.
    rho0 = BlochVector(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), 0.0).to_density_matrix()
    traj = integrate_master_2x2((0.0, 0.0, 1.0), rho0, IntegratorConfig(step=1e-3, t_max=1.0))
    norms = np.sqrt((bloch_of(traj.states) ** 2).sum(axis=1))
    assert np.abs(norms - 1.0).max() <= 1e-10


def test_matches_analytic_propagator():
    p = ModelParams(0.1, 0.9)
    r0 = BlochVector(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), 0.0)
    traj = integrate_master_2x2(p, r0.to_density_matrix(), IntegratorConfig(step=1e-4, t_max=0.5))
    analytic = bloch_trajectory(p, r0, traj.times)
    assert np.abs(bloch_of(traj.states) - analytic).max() <= 1e-8


def test_trace_and_hermiticity_preserved():
    p = ModelParams(0.3, 0.8)
    r0 = BlochVector(0.3, -0.4, 0.2)
    traj = integrate_master_2x2(p, r0.to_density_matrix(), IntegratorConfig(step=1e-3, t_max=5.0))
    traces = np.einsum("kii->k", traj.states)
    assert np.abs(traces - 1.0).max() <= 1e-10
    defects = np.abs(traj.states - np.conj(np.swapaxes(traj.states, 1, 2))).max()
    assert defects <= 1e-10


def test_rk4_order_of_convergence():
    p = ModelParams(0.1, 0.9)
    r0 = BlochVector(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), 0.0)

    def final_error(step):
        traj = integrate_master_2x2(p, r0.to_density_matrix(), IntegratorConfig(step=step, t_max=1.0))
        analytic = bloch_trajectory(p, r0, traj.times[-1:])
        return np.abs(bloch_of(traj.states[-1:]) - analytic).max()

    ratio = final_error(4e-3) / final_error(2e-3)
    assert 12.0 <= ratio <= 20.0


# Longer horizon and larger steps than test_rk4_order_of_convergence: the
# errors (about 1e-10) sit far above round-off, so the ratio reads 16.02.
def test_rk4_order_of_convergence_2x2_long_horizon():
    p = ModelParams(0.1, 0.9)
    r0 = BlochVector(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), 0.0)

    def max_error(step):
        traj = integrate_master_2x2(p, r0.to_density_matrix(), IntegratorConfig(step=step, t_max=5.0))
        return np.abs(bloch_of(traj.states) - bloch_trajectory(p, r0, traj.times)).max()

    ratio = max_error(1e-2) / max_error(5e-3)
    assert 15.0 <= ratio <= 17.0


def test_rk4_order_of_convergence_4x4_long_horizon():
    p = ModelParams(0.1, 0.9)
    mu = 0.2

    def max_error(step):
        traj = integrate_master_4x4(p, isotropic(mu), IntegratorConfig(step=step, t_max=5.0))
        return max(
            np.abs(state - evolve_isotropic(p, mu, t)).max()
            for t, state in zip(traj.times, traj.states)
        )

    ratio = max_error(1e-2) / max_error(5e-3)
    assert 15.0 <= ratio <= 17.0


def test_4x4_product_state_evolves_first_factor_only():
    # Checks the vectorization layout: rho (x) sigma must follow rho(t) (x) sigma.
    p = ModelParams(0.3, 0.8)
    cfg = IntegratorConfig(step=1e-3, t_max=1.0)
    rho = BlochVector(0.3, -0.4, 0.2).to_density_matrix()
    sigma = BlochVector(-0.5, 0.1, 0.6).to_density_matrix()
    single = integrate_master_2x2(p, rho, cfg).states
    joint = integrate_master_4x4(p, np.kron(rho, sigma), cfg).states
    expected = np.einsum("kij,lm->kiljm", single, sigma).reshape(-1, 4, 4)
    assert np.abs(joint - expected).max() <= 1e-13


def test_4x4_maximally_mixed_is_fixed():
    p = ModelParams(0.1, 0.9)
    traj = integrate_master_4x4(p, np.eye(4, dtype=complex) / 4.0, IntegratorConfig(step=1e-3, t_max=0.5))
    assert np.abs(traj.states - np.eye(4) / 4.0).max() <= 1e-12


def test_4x4_matches_closed_form_evolution():
    p = ModelParams(0.1, 0.9)
    mu = 0.3
    traj = integrate_master_4x4(p, isotropic(mu), IntegratorConfig(step=1e-4, t_max=0.3))
    expected = evolve_isotropic(p, mu, traj.times[-1])
    assert np.abs(traj.states[-1] - expected).max() <= 1e-8


def test_4x4_ancilla_state_is_constant():
    p = ModelParams(0.3, 0.8)
    traj = integrate_master_4x4(p, isotropic(0.6), IntegratorConfig(step=1e-3, t_max=1.0))
    reduced = np.einsum("kaiaj->kij", traj.states.reshape(-1, 2, 2, 2, 2))
    assert np.abs(reduced - reduced[0]).max() <= 1e-10


def test_maximizer_parabola():
    t, v = maximize_scalar(lambda x: -((x - 1.0) ** 2), 0.0, 2.0, tol=1e-12)
    assert abs(t - 1.0) <= 1e-10
    assert abs(v) <= 1e-12


def test_maximizer_validation():
    with pytest.raises(ValueError):
        maximize_scalar(lambda x: x, 1.0, 1.0)
    with pytest.raises(ValueError):
        maximize_scalar(lambda x: x, 0.0, 1.0, tol=0.0)


def test_maximizer_recovers_positivity_radius_peak():
    p = ModelParams(0.1, 0.9)
    peak, t_star = r4_max(p)
    t, v = maximize_scalar(lambda x: r4_curve(p, x), 0.0, math.pi / (2.0 * p.Omega))
    assert abs(t - t_star) <= 1e-6
    assert abs(v - peak) <= 1e-6


def test_maximizer_recovers_rate_factor_peak():
    p = ModelParams(0.3, 0.8)
    peak, t_bar = rate_factor_max(p)
    t, v = maximize_scalar(lambda x: concurrence_rate_factor(p, x), 0.0, math.pi / (2.0 * p.Omega))
    assert abs(t - t_bar) <= 1e-6
    assert abs(v - peak) <= 1e-6


def test_maximizer_is_deterministic():
    p = ModelParams(0.1, 0.8)
    first = maximize_scalar(lambda x: r4_curve(p, x), 0.0, 3.0)
    second = maximize_scalar(lambda x: r4_curve(p, x), 0.0, 3.0)
    assert first == second


def test_central_difference():
    assert abs(central_difference(math.sin, 0.3) - math.cos(0.3)) <= 1e-9
    with pytest.raises(ValueError):
        central_difference(math.sin, 0.3, h=0.0)


def test_integrators_accept_random_params():
    rng = np.random.default_rng(9)
    for _ in range(3):
        p = random_model_params(rng)
        r0 = BlochVector(*(0.5 * rng.uniform(-1, 1, size=3)))
        traj = integrate_master_2x2(p, r0.to_density_matrix(), IntegratorConfig(step=1e-3, t_max=0.2))
        analytic = bloch_trajectory(p, r0, traj.times)
        assert np.abs(bloch_of(traj.states) - analytic).max() <= 1e-8


def test_oracle_layer_never_calls_lapack():
    # The closed forms are checked against these modules precisely because
    # they do not share LAPACK with numpy/scipy; keep it that way.
    for module in (qmat, oracle):
        source = Path(module.__file__).read_text(encoding="utf-8").lower()
        assert "linalg" not in source, module.__name__
        assert "scipy" not in source, module.__name__
