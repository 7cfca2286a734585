import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIGURE_PARAMS, bloch_of, random_model_params
from qslip import (
    BlochVector,
    Classification,
    IntegratorConfig,
    ModelParams,
    StochasticFieldParams,
    bloch_trajectory,
    classify,
    derive_params,
    detect_windows,
    integrate_master_2x2,
    maximize_scalar,
    norm_bound_curve,
    norm_bound_max,
    r4_max,
    semigroup_action,
)

R_PLUS = BlochVector(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), 0.0)
R_MINUS = BlochVector(1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0), 0.0)


def _generator(p: ModelParams) -> np.ndarray:
    """The 3x3 Bloch generator L (dr/dt = -2 L r), written out from the model."""
    return np.array([[p.a, p.b + p.omega, 0.0], [p.b - p.omega, p.a, 0.0], [0.0, 0.0, 0.0]])


def _image(p: ModelParams, r: BlochVector, t: float) -> np.ndarray:
    """Closed-form image of r after time t, from a one-point trajectory."""
    return bloch_trajectory(p, r, [t])[0]


def _exit_rate(p: ModelParams, r: BlochVector) -> float:
    """Quadratic form -2 <r|D|r> = -2a (r1^2 + r2^2) - 4b r1 r2, D = (L + L^T)/2.

    Its sign is the sign of d||r_t||^2/dt (the full derivative is twice
    this value); a positive rate on the unit sphere means the vector is
    leaving the Bloch ball.
    """
    return -2.0 * p.a * (r.r1 * r.r1 + r.r2 * r.r2) - 4.0 * p.b * r.r1 * r.r2


# ---------------------------------------------------------------- parameters

def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(-0.1, 0.5)
    with pytest.raises(ValueError, match="off-diagonal rate b must be >= 0, got -0.5"):
        ModelParams(0.1, -0.5)
    with pytest.raises(ValueError):
        ModelParams(0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        ModelParams(0.1, np.nan)
    p = ModelParams(0.1, 0.9, 1.0)
    assert abs(p.Omega ** 2 + p.b ** 2 - p.omega ** 2) <= 1e-12


def test_model_params_reject_overflowing_omega():
    # omega * omega overflows (Omega = inf) or underflows (Omega = 0).
    with pytest.raises(ValueError, match="omega=1e\\+200, b=0.9 give Omega=inf"):
        ModelParams(0.1, 0.9, 1e200)
    with pytest.raises(ValueError, match="give Omega=0.0, not finite and > 0"):
        ModelParams(0.1, 5e-201, 1e-200)
    assert 0.0 < ModelParams(0.1, 0.9, 1e154).Omega < np.inf


# ------------------------------------------------------- parameter converter

def test_derive_params_frozen_point():
    # Independently evaluated: den = 10^2 + 4 = 104.
    rates = derive_params(StochasticFieldParams(2.0, 1.0, 1.0, 10.0, 1.0, 1.0))
    assert abs(rates.omega - 1.0576923076923077) <= 1e-15
    assert abs(rates.alpha1 - 0.38461538461538464) <= 1e-15
    assert abs(rates.alpha2 - 0.19230769230769232) <= 1e-15
    assert abs(rates.a - 2.0) <= 1e-15
    assert abs(rates.b_raw - (-0.019230769230769232)) <= 1e-15
    assert rates.b_raw < 0.0


def test_derive_params_symmetric_limit_kills_b():
    # g1 = g2 is excluded by the type invariant; approach it from above.
    rates = derive_params(StochasticFieldParams(2.0, 2.0 - 1e-12, 1.0, 10.0, 1.0, 1.0))
    assert abs(rates.b_raw) <= 1e-13


def test_derive_params_white_noise_limit():
    rates = derive_params(StochasticFieldParams(2.0, 1.0, 1.0, 1e8, 1.0, 1.0))
    assert abs(rates.omega - 1.0) <= 1e-7
    assert rates.alpha1 <= 1e-7 and rates.alpha2 <= 1e-7
    assert abs(rates.b_raw) <= 1e-15


def test_stochastic_params_validation():
    with pytest.raises(ValueError):
        StochasticFieldParams(1.0, 2.0, 1.0, 1.0, 1.0, 1.0)  # g1 <= g2
    with pytest.raises(ValueError):
        StochasticFieldParams(2.0, 1.0, -1.0, 1.0, 1.0, 1.0)
    # den = lam^2 + 4 omega_tilde^2 underflows to 0 or overflows to inf.
    for lam, omega_tilde in ((1e-170, 1e-170), (1e200, 1.0), (1.0, 1e200)):
        with pytest.raises(ValueError, match="lam\\^2 \\+ 4 omega_tilde\\^2 must be finite and > 0"):
            StochasticFieldParams(2.0, 1.0, 1.0, lam, 1.0, omega_tilde)


# ----------------------------------------------------------------- generator

def test_dissipative_part_spectrum():
    rng = np.random.default_rng(8)
    for _ in range(20):
        p = random_model_params(rng)
        full = _generator(p)
        d = (full + full.T) / 2.0
        w = np.linalg.eigvalsh(d)
        expected = np.sort([p.a + p.b, p.a - p.b, 0.0])
        assert np.abs(w - expected).max() <= 1e-12


# ---------------------------------------------------------------- propagator

def test_propagate_identity_at_t0():
    p = ModelParams(0.1, 0.9)
    r = BlochVector(0.3, -0.2, 0.5)
    assert _image(p, r, 0.0).tolist() == [r.r1, r.r2, r.r3]


def test_third_axis_is_fixed():
    p = ModelParams(0.2, 0.5)
    r = BlochVector(0.0, 0.0, 1.0)
    for t in (0.1, 1.0, 7.3):
        r1, r2, r3 = _image(p, r, t)
        assert r1 == 0.0 and r2 == 0.0 and r3 == 1.0


def test_propagate_matches_rk4_oracle():
    p = ModelParams(0.1, 0.9)
    cfg = IntegratorConfig(step=1e-4, t_max=0.3)
    traj = integrate_master_2x2(p, R_PLUS.to_density_matrix(), cfg)
    final = bloch_of(traj.states[-1:])[0]
    expected = _image(p, R_PLUS, traj.times[-1])
    assert np.abs(final - expected).max() <= 1e-8


def test_semigroup_law():
    rng = np.random.default_rng(21)
    for _ in range(50):
        p = random_model_params(rng)
        r = BlochVector(*rng.uniform(-1.0, 1.0, size=3))
        s, t = rng.uniform(0.0, 3.0, size=2)
        two_step = _image(p, BlochVector(*_image(p, r, s)), t)
        one_step = _image(p, r, s + t)
        assert np.abs(two_step - one_step).max() <= 1e-10


def test_analytic_propagator_equals_matrix_exponential():
    for p in FIGURE_PARAMS:
        for t in (0.0, 0.3, 1.1, 4.0):
            numeric = scipy.linalg.expm(-2.0 * t * _generator(p))
            assert np.abs(numeric - semigroup_action(p)(t)[1:, 1:]).max() <= 1e-10


def test_propagated_state_has_unit_trace():
    rng = np.random.default_rng(4)
    for _ in range(20):
        p = random_model_params(rng)
        r = BlochVector(*(0.9 * np.array([1, 1, 1]) * rng.uniform(-0.5, 0.5, size=3)))
        rho = BlochVector(*_image(p, r, rng.uniform(0.0, 4.0))).to_density_matrix()
        assert abs(np.trace(rho) - 1.0) <= 1e-14


# ------------------------------------------------------------ classification

def test_classification_rule():
    assert classify(ModelParams(0.5, 0.0, 1.0)) is Classification.COMPLETELY_POSITIVE
    assert classify(ModelParams(1.0, 0.5, 2.0)) is Classification.POSITIVE_NOT_CP
    assert classify(ModelParams(0.1, 0.9, 1.0)) is Classification.NON_POSITIVE


def test_classification_where_the_squares_underflow():
    # a*a and b*b are both 0 here, so a^2 >= b^2 would read 0 >= 0.
    for a, b, tag in ((0.0, 1e-170, Classification.NON_POSITIVE),
                      (1e-170, 2e-170, Classification.NON_POSITIVE),
                      (2e-170, 1e-170, Classification.POSITIVE_NOT_CP)):
        p = ModelParams(a, b)
        assert classify(p) is tag
        assert norm_bound_max(p) == (1.0, 0.0)


def test_classify_validation():
    with pytest.raises(ValueError):
        classify(ModelParams(-0.1, 0.5, 1.0))
    with pytest.raises(ValueError):
        classify(ModelParams(0.1, 1.2, 1.0))


def test_classification_matches_norm_behavior():
    ts = np.linspace(0.0, 10.0, 2001)
    for a, b in ((0.1, 0.9), (0.9, 0.1), (0.5, 0.5)):
        p = ModelParams(a, b)
        curve = norm_bound_curve(p, ts)
        if classify(p) is Classification.NON_POSITIVE:
            assert curve.max() > 1.0 + 1e-6
        else:
            assert curve.max() <= 1.0 + 1e-12


# ------------------------------------------------------------------ exit rate

def test_exit_rate_examples():
    p = ModelParams(0.3, 0.2, 1.0)
    assert _exit_rate(p, BlochVector(0.0, 0.0, 1.0)) == 0.0
    assert abs(_exit_rate(p, R_PLUS) - (-2.0 * p.a - 2.0 * p.b)) <= 1e-15
    assert abs(_exit_rate(p, R_MINUS) - (-2.0 * p.a + 2.0 * p.b)) <= 1e-15
    q = ModelParams(0.1, 0.9)
    assert _exit_rate(q, R_MINUS) > 0.0  # b > a pushes this state outward


def test_exit_rate_is_half_norm_squared_derivative():
    rng = np.random.default_rng(31)
    h = 1e-6
    for _ in range(20):
        p = random_model_params(rng)
        r = BlochVector(*rng.uniform(-0.7, 0.7, size=3))
        t = rng.uniform(0.1, 2.0)
        plus, minus, at_t = bloch_trajectory(p, r, [t + h, t - h, t])
        derivative = (plus @ plus - minus @ minus) / (2.0 * h)
        assert abs(derivative - 2.0 * _exit_rate(p, BlochVector(*at_t))) <= 1e-6


def test_small_time_norm_expansion():
    for p in FIGURE_PARAMS:
        for r, rate in ((R_PLUS, p.a + p.b), (R_MINUS, p.a - p.b)):
            for t in (1e-4, 1e-3):
                image = _image(p, r, t)
                drift = image @ image - (1.0 - 4.0 * t * rate)
                assert abs(drift) <= 50.0 * t * t


# ------------------------------------------------------------- norm bounds

def test_norm_bound_curve_at_zero():
    assert norm_bound_curve(ModelParams(0.1, 0.9), 0.0) == 1.0


def test_norm_bound_curve_small_b_contracts():
    p = ModelParams(0.2, 1e-8)
    ts = np.linspace(0.0, 5.0, 101)
    assert np.abs(norm_bound_curve(p, ts) - np.exp(-4.0 * p.a * ts)).max() <= 1e-6


def test_norm_bound_curve_matches_gram_matrix():
    p = ModelParams(0.1, 0.9)
    for t in (0.2, 0.7, 1.9):
        g = scipy.linalg.expm(-2.0 * t * _generator(p))
        gram = g.T @ g
        w_full = np.linalg.eigvalsh(gram)
        w_block = np.linalg.eigvalsh(gram[:2, :2])
        r2 = norm_bound_curve(p, t)
        assert abs(r2 - w_block[-1]) <= 1e-10
        assert abs(max(r2, 1.0) - w_full[-1]) <= 1e-10


def test_norm_bound_max_matches_maximizer():
    for p in FIGURE_PARAMS:
        radius, t_prime = norm_bound_max(p)
        bracket = math.pi / (2.0 * p.Omega)
        t_num, v_num = maximize_scalar(lambda t: math.sqrt(norm_bound_curve(p, t)), 0.0, bracket)
        assert abs(radius - v_num) <= 1e-6
        assert abs(t_prime - t_num) <= 1e-6


def test_peak_times_at_small_damping():
    # a / Omega = 2.3e-6, where arcsin(Omega / hyp) sits at 1 - 3e-12; the
    # references are 50-digit mpmath evaluations at the same float inputs.
    p = ModelParams(1e-6, 0.9)
    assert abs(r4_max(p)[1] / 1.8018243287852227 - 1.0) <= 1e-15
    assert abs(norm_bound_max(p)[1] / 1.8018240363875619 - 1.0) <= 1e-15


def test_norm_bound_max_positive_regime():
    assert norm_bound_max(ModelParams(0.5, 0.3)) == (1.0, 0.0)


def test_norm_bound_exceeds_one_in_non_positive_regime():
    rng = np.random.default_rng(41)
    for _ in range(25):
        b = rng.uniform(0.1, 0.9)
        a = rng.uniform(0.0, b * 0.999)
        radius, _ = norm_bound_max(ModelParams(a, b))
        assert radius > 1.0


# ------------------------------------------------- completely positive branch

@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(1.0, 50.0)),
       st.floats(1e-3, 1e3))
def test_b_zero_branch(a, omega):
    p = ModelParams(a, 0.0, omega)
    assert classify(p) is Classification.COMPLETELY_POSITIVE
    assert norm_bound_max(p) == (1.0, 0.0)
    assert r4_max(p)[0] == 1.0
    report = detect_windows(p)
    assert report.intervals == ()
    assert report.mu_upper_corrected == 1.0
