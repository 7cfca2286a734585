import inspect
import math

import numpy as np
import pytest

from conftest import FIGURE_PARAMS, pauli_images, random_model_params
from qslip import (
    IntegratorConfig,
    ModelParams,
    SlippageChannel,
    can_create_entanglement,
    concurrence_closed_form,
    concurrence_curve,
    concurrence_rate_factor,
    concurrence_wootters,
    detect_windows,
    eigenvalues_closed_form,
    evolve_isotropic,
    integrate_master_4x4,
    isotropic,
    maximize_scalar,
    norm_bound_curve,
    positivity_bound,
    r1_curve,
    r4_curve,
    r4_max,
    rate_factor_max,
    rate_factor_product_form,
    semigroup_action,
    window_functions,
)
from qslip import bipartite, crosscheck, qmat

# Closed-form spectrum at (a=0.1, b=0.9, omega=1, mu=0.2, t=0.5), frozen
# from an independent evaluation of the eigenvalue formulas.
FROZEN_SPECTRUM = np.array([
    0.42003963840586023,
    0.27888096892045539,
    0.17996036159413981,
    0.12111903107954461,
])


def closed_signed_concurrence(p, mu, t):
    """c_mu(t) reconstructed from the top eigenvalue: c = 2 e1 - 1."""
    return 2.0 * eigenvalues_closed_form(p, mu, t)[0] - 1.0


# ------------------------------------------------------------ initial states

def test_isotropic_extremes():
    p = isotropic(1.0)
    w = qmat.hermitian_eigenvalues(p)
    assert np.abs(w - np.array([1.0, 0.0, 0.0, 0.0])).max() <= 1e-12
    assert np.abs(isotropic(0.0) - np.eye(4) / 4.0).max() == 0.0


def test_isotropic_standard_form():
    rng = np.random.default_rng(3)
    for mu in rng.uniform(0.0, 1.0, size=10):
        direct = isotropic(mu)
        standard = (1.0 - mu) / 4.0 * np.eye(4) + mu * isotropic(1.0)
        assert np.abs(direct - standard).max() <= 1e-15


def test_isotropic_validation():
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            isotropic(bad)


def test_separability_boundary():
    state = isotropic(1.0 / 3.0)
    assert concurrence_wootters(state) == 0.0
    assert abs(concurrence_closed_form(ModelParams(0.5, 0.4), 1.0 / 3.0, 0.0)) == 0.0


# -------------------------------------------------------------- evolved state

def test_evolve_reduces_to_isotropic_at_t0():
    p = ModelParams(0.1, 0.9)
    assert np.abs(evolve_isotropic(p, 0.37, 0.0) - isotropic(0.37)).max() <= 1e-15


def test_evolve_maximally_mixed_is_stationary():
    p = ModelParams(0.1, 0.9)
    for t in (0.0, 0.7, 3.1):
        assert np.abs(evolve_isotropic(p, 0.0, t) - np.eye(4) / 4.0).max() <= 1e-15


@pytest.mark.parametrize("mu", [-0.1, 2.0, 1.0 + 5e-13, math.nan])
@pytest.mark.parametrize("call", [
    isotropic,
    lambda mu: evolve_isotropic(ModelParams(0.1, 0.9), mu, 0.5),
    lambda mu: concurrence_curve(ModelParams(0.1, 0.9), mu, 0.5),
    SlippageChannel,
], ids=["isotropic", "evolve_isotropic", "concurrence_curve", "SlippageChannel"])
def test_isotropic_parameter_outside_the_unit_interval_is_rejected(call, mu):
    # At t = 0 the evolved matrix is isotropic(mu), so it takes the same mu,
    # and the slippage channel's strength: one rule, slippage.checked_mu.
    with pytest.raises(ValueError, match=r"mu must lie in \[0, 1\]"):
        call(mu)


def test_evolve_matches_rk4_oracle():
    p = ModelParams(0.1, 0.9)
    traj = integrate_master_4x4(p, isotropic(0.2), IntegratorConfig(step=1e-4, t_max=0.5))
    assert np.abs(traj.states[-1] - evolve_isotropic(p, 0.2, 0.5)).max() <= 1e-8


def test_evolve_matches_heisenberg_route():
    rng = np.random.default_rng(11)
    for _ in range(15):
        p = random_model_params(rng)
        mu = rng.uniform(0.0, 1.0)
        t = rng.uniform(0.0, 4.0)
        one, s1t, s2t, s3t = pauli_images(semigroup_action(p)(t))
        rebuilt = 0.25 * (
            np.kron(one, qmat.IDENTITY_2)
            + mu * (
                np.kron(s1t, qmat.PAULI_1)
                - np.kron(s2t, qmat.PAULI_2)
                + np.kron(s3t, qmat.PAULI_3)
            )
        )
        assert np.abs(rebuilt - evolve_isotropic(p, mu, t)).max() <= 1e-12


# ------------------------------------------------------------------- spectrum

def test_eigenvalues_at_t0():
    p = ModelParams(0.3, 0.8)
    mu = 0.41
    e = eigenvalues_closed_form(p, mu, 0.0)
    expected = ((1.0 + 3.0 * mu) / 4.0, (1.0 - mu) / 4.0, (1.0 - mu) / 4.0, (1.0 - mu) / 4.0)
    assert np.abs(np.array(e) - np.array(expected)).max() <= 1e-15


def test_eigenvalue_sum_is_one():
    rng = np.random.default_rng(13)
    for _ in range(50):
        p = random_model_params(rng)
        e = eigenvalues_closed_form(p, rng.uniform(0.0, 1.0), rng.uniform(0.0, 5.0))
        assert abs(sum(e) - 1.0) <= 1e-15


def test_frozen_spectrum_point():
    p = ModelParams(0.1, 0.9)
    closed = np.sort(eigenvalues_closed_form(p, 0.2, 0.5))[::-1]
    assert np.abs(closed - FROZEN_SPECTRUM).max() <= 1e-12
    numeric = qmat.hermitian_eigenvalues(evolve_isotropic(p, 0.2, 0.5))
    assert np.abs(numeric - FROZEN_SPECTRUM).max() <= 1e-10


def test_spectrum_agreement_random():
    rng = np.random.default_rng(17)
    for _ in range(100):
        p = random_model_params(rng)
        mu = rng.uniform(0.0, 1.0)
        assert crosscheck.spectrum_vs_jacobi(p, mu, [rng.uniform(0.0, 5.0)]) <= 1e-10


def test_eigenvalue_ordering():
    rng = np.random.default_rng(19)
    for _ in range(100):
        p = random_model_params(rng)
        mu = rng.uniform(0.05, 1.0)
        t = rng.uniform(0.0, 5.0)
        e1, e2, e3, e4 = eigenvalues_closed_form(p, mu, t)
        assert e1 >= e2 - 1e-15 and e1 >= e3 - 1e-15 and e1 >= e4 - 1e-15
        if math.sin(2.0 * p.Omega * t) >= 0.0:
            assert e3 >= e4 - 1e-15
        else:
            assert e4 >= e3 - 1e-15


# -------------------------------------------------------------- radii curves

def test_r4_curve_at_zero_and_peak():
    p = ModelParams(0.1, 0.9)
    assert r4_curve(p, 0.0) == 1.0
    peak, t_star = r4_max(p)
    t_num, v_num = maximize_scalar(lambda t: r4_curve(p, t), 0.0, math.pi / (2.0 * p.Omega))
    assert abs(peak - v_num) <= 1e-8
    assert abs(t_star - t_num) <= 1e-6
    grid = np.linspace(0.0, 10.0, 5001)
    assert peak >= r4_curve(p, grid).max() - 1e-9


def test_figure_caption_positivity_bound():
    assert abs(positivity_bound(ModelParams(0.1, 0.9)) - 0.25) <= 5e-3


def test_r1_curve_properties():
    p = ModelParams(0.3, 0.8)
    assert abs(r1_curve(p, 0.0) - 3.0) <= 1e-15
    ts = np.linspace(0.0, 8.0, 801)
    assert (r1_curve(p, ts) >= r4_curve(p, ts) - 1e-14).all()
    rng = np.random.default_rng(23)
    for _ in range(20):
        mu = rng.uniform(0.0, 1.0)
        t = rng.uniform(0.0, 5.0)
        e1 = eigenvalues_closed_form(p, mu, t)[0]
        assert abs(e1 - 0.25 * (1.0 + mu * r1_curve(p, t))) <= 1e-15


def test_positivity_bound_is_sharp():
    for p in (ModelParams(0.1, 0.9), ModelParams(0.3, 0.8)):
        bound = positivity_bound(p)
        ts = np.linspace(0.0, 20.0, 8001)
        inside = np.array([eigenvalues_closed_form(p, bound, t) for t in ts]).min()
        assert inside >= -1e-12
        outside = np.array([eigenvalues_closed_form(p, bound * 1.001, t) for t in ts]).min()
        assert outside < 0.0


def test_positivity_bound_small_b_limit():
    # R4 -> 1 as b -> 0, so the admissible contraction approaches 1.
    assert abs(positivity_bound(ModelParams(0.5, 1e-8)) - 1.0) <= 1e-6


def test_figure_parameters_violate_positivity():
    # mu = 0.4 exceeds 1/R4 ~ 0.25: the smallest eigenvalue must dip below 0.
    p = ModelParams(0.1, 0.9)
    ts = np.linspace(0.0, 5.0, 2001)
    e4 = np.array([eigenvalues_closed_form(p, 0.4, t)[3] for t in ts])
    assert e4.min() < -0.05


def test_isotropic_state_invariants_under_bound():
    rng = np.random.default_rng(29)
    for p in FIGURE_PARAMS:
        mu = rng.uniform(0.0, 1.0) * positivity_bound(p)
        for t in rng.uniform(0.0, 8.0, size=5):
            m = evolve_isotropic(p, mu, t)
            assert abs(np.trace(m).real - 1.0) <= 1e-14
            assert qmat.hermiticity_defect(m) <= 1e-14
            assert qmat.hermitian_eigenvalues(m)[-1] >= -1e-12


# ---------------------------------------------------------------- concurrence

def test_wootters_reference_states():
    assert abs(concurrence_wootters(isotropic(1.0)) - 1.0) <= 1e-10
    assert concurrence_wootters(np.eye(4) / 4.0) == 0.0
    for mu in np.linspace(0.0, 1.0, 11):
        expected = max(0.0, (3.0 * mu - 1.0) / 2.0)
        assert abs(concurrence_wootters(isotropic(mu)) - expected) <= 1e-10


def test_wootters_rejects_non_states():
    with pytest.raises(ValueError):
        concurrence_wootters(np.eye(4))  # trace 4
    bad = np.eye(4, dtype=complex) / 4.0
    bad[0, 1] = 0.3
    with pytest.raises(ValueError):
        concurrence_wootters(bad)  # not Hermitian
    negative = qmat.partial_transpose_first(isotropic(1.0))
    with pytest.raises(ValueError):
        concurrence_wootters(negative)  # eigenvalue -1/2


def is_x_shaped(m):
    try:
        qmat.hermitian_x_eig(np.asarray(m, dtype=complex).tolist())
    except ValueError as err:
        assert "not X-shaped" in str(err)
        return False
    return True


def random_pure_states(rng, n):
    """n normalized amplitude vectors (a, b, c, d) of a|00> + b|01> + c|10> + d|11>."""
    psi = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
    return psi / np.linalg.norm(psi, axis=1, keepdims=True)


def test_wootters_rejects_states_that_are_not_x_shaped():
    # Wootters takes only the X-shaped states the package builds.  A generic
    # pure state and a locally rotated isotropic state (U x 1 keeps the
    # concurrence) fill in the entries off the blocks.
    rng = np.random.default_rng(61)
    (a, b, c, d), = random_pure_states(rng, 1)
    pure = np.outer([a, b, c, d], np.conj([a, b, c, d]))
    u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    local = np.kron(u, np.eye(2))
    rotated = local @ isotropic(0.8) @ local.conj().T
    for state in (pure, rotated):
        assert not is_x_shaped(state)
        with pytest.raises(ValueError, match=r"not X-shaped: nonzero entries off the blocks"):
            concurrence_wootters(state)


def test_wootters_rejects_non_finite_entries():
    # Off the blocks a NaN or inf is not an exact zero; on them it fails the
    # Hermiticity check.
    x_shaped = evolve_isotropic(ModelParams(0.1, 0.9), 0.2, 0.7)
    assert is_x_shaped(x_shaped)
    concurrence_wootters(x_shaped)
    for i, j in ((0, 0), (0, 3), (1, 2), (2, 1), (0, 1), (3, 2)):
        for value in (np.nan, np.inf):
            bad = x_shaped.copy()
            bad[i, j] = value
            with pytest.raises(ValueError):
                concurrence_wootters(bad)


# Wootters at (a, b) = (0.1, 0.9), mu = 0.999/R4, t = 1.3, as float.hex, from
# this X-shaped state's blocks in Python scalars: the Jacobi's eigenvectors
# with its exact pivot zeros, and one Hestenes rotation per block whose
# singular values are column norms.  It reads the closed form's bits.  The
# state passes through numpy's exp, so the pin holds for one numpy build.
_PINNED_WOOTTERS = "0x1.41231818fa5f0p-5"


def test_wootters_bits_are_pinned():
    p = ModelParams(0.1, 0.9)
    state = evolve_isotropic(p, 0.999 * positivity_bound(p), 1.3)
    assert concurrence_wootters(state).hex() == _PINNED_WOOTTERS


def test_wootters_matches_yu_eberly_on_random_x_states():
    # Off the isotropic family the blocks have unequal diagonals, so the
    # Hestenes rotation turns by a finite angle.  Yu and Eberly's closed form
    # for X states (Quantum Inf. Comput. 7, 459, 2007) is the reference:
    #     C = 2 max(0, |rho_03| - sqrt(rho_11 rho_22), |rho_12| - sqrt(rho_00 rho_33)).
    # Every other draw has rank-one blocks, where a lambda is zero.
    rng = np.random.default_rng(71)
    for k in range(400):
        rho = np.zeros((4, 4), dtype=complex)
        for block in ((0, 3), (1, 2)):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            g[:, 1] *= k % 2
            rho[np.ix_(block, block)] = g @ g.conj().T
        rho /= np.trace(rho).real
        d = rho.diagonal().real
        closed = 2.0 * max(0.0, abs(rho[0, 3]) - math.sqrt(d[1] * d[2]),
                           abs(rho[1, 2]) - math.sqrt(d[0] * d[3]))
        assert abs(concurrence_wootters(rho) - closed) <= 1e-14


def test_concurrence_closed_form_matches_wootters_on_grid():
    p = ModelParams(0.1, 0.8)
    mu = 0.25
    assert mu <= positivity_bound(p)
    for t in np.linspace(0.0, 6.0, 61):
        closed = concurrence_closed_form(p, mu, t)
        woot = concurrence_wootters(evolve_isotropic(p, mu, t))
        assert abs(closed - woot) <= 1e-10


def test_concurrence_at_t0():
    p = ModelParams(0.3, 0.8)
    for mu in (0.05, 1.0 / 3.0, 0.42):
        assert abs(concurrence_closed_form(p, mu, 0.0) - max(0.0, (3.0 * mu - 1.0) / 2.0)) <= 1e-15


def test_concurrence_closed_form_validation():
    p = ModelParams(0.1, 0.9)
    with pytest.raises(ValueError):
        concurrence_closed_form(p, 0.26, 1.0)  # above 1/R4 ~ 0.2528
    with pytest.raises(ValueError):
        concurrence_closed_form(p, 0.2, -1.0)
    with pytest.raises(ValueError):
        concurrence_closed_form(p, -0.1, 1.0)
    # 1/R4 = 1 at b = 0, where the bound's 1e-12 slack must not admit mu > 1.
    with pytest.raises(ValueError, match="outside the physical range"):
        concurrence_closed_form(ModelParams(0.1, 0.0), 1.0 + 5e-13, 0.0)


def test_concurrence_curve_is_nan_off_the_state_set():
    p = ModelParams(0.1, 0.9)
    ts = np.linspace(0.0, 5.0, 201)
    for mu in (0.2, 0.25, 0.6, 1.0):
        curve = concurrence_curve(p, mu, ts)
        for t, value in zip(ts.tolist(), curve.tolist()):
            assert concurrence_curve(p, mu, t).hex() == value.hex()  # NaN where the array is NaN
            m = evolve_isotropic(p, mu, t)
            if min(eigenvalues_closed_form(p, mu, t)) < bipartite.ISOTROPIC_EIG_FLOOR:
                assert np.isnan(value)
                assert qmat.hermitian_eigenvalues(m)[-1] < 0.0
            else:
                assert abs(value - concurrence_wootters(m)) <= 1e-10
    assert np.isnan(concurrence_curve(p, 1.0, ts)).any()
    assert not np.isnan(concurrence_curve(p, 0.25, ts)).any()
    # Just above 1/R4 at t*, min(e3, e4) is about -2.5e-14, inside the
    # floor: a number on the scalar path as on the array path.
    mu = positivity_bound(p) * (1.0 + 1e-13)
    assert not np.isnan(concurrence_curve(p, mu, np.array([p.t_star]))).any()
    assert not math.isnan(concurrence_curve(p, mu, p.t_star))
    with pytest.raises(ValueError):
        concurrence_curve(p, 1.1, 1.0)


# ----------------------------------------------------------- derivative of c

def test_rate_factor_closed_form_against_finite_differences():
    rng = np.random.default_rng(31)
    p = ModelParams(0.3, 0.8)
    mu = 0.3
    h = 1e-6
    for t in rng.uniform(0.1, 4.0, size=25):
        fd = (closed_signed_concurrence(p, mu, t + h) - closed_signed_concurrence(p, mu, t - h)) / (2.0 * h)
        root = math.sqrt(1.0 + (p.b / p.Omega) ** 2 * math.sin(2.0 * p.Omega * t) ** 2)
        prefactor = 2.0 * mu * math.exp(-2.0 * p.a * t) / root
        expected = prefactor * concurrence_rate_factor(p, t)
        assert abs(fd - expected) <= 1e-6 * max(1.0, abs(expected))


def test_rate_factor_sign_matches_derivative_sign():
    rng = np.random.default_rng(37)
    checked = 0
    while checked < 200:
        p = random_model_params(rng)
        t = rng.uniform(0.0, 5.0)
        g = concurrence_rate_factor(p, t)
        if abs(g) <= 1e-6:
            continue
        mu = 0.5 * positivity_bound(p)
        h = 1e-7
        fd = (closed_signed_concurrence(p, mu, t + h) - closed_signed_concurrence(p, mu, t - h)) / (2.0 * h)
        assert math.copysign(1.0, fd) == math.copysign(1.0, g)
        checked += 1


def test_rate_factor_at_zero_and_peak():
    for p in FIGURE_PARAMS:
        assert abs(concurrence_rate_factor(p, 0.0) + p.a) <= 1e-15
        peak, t_bar = rate_factor_max(p)
        t_num, v_num = maximize_scalar(
            lambda t: rate_factor_product_form(p, t), 0.0, math.pi / (2.0 * p.Omega)
        )
        assert abs(peak - v_num) <= 1e-8
        assert abs(t_bar - t_num) <= 1e-6
        _, t_star = r4_max(p)
        assert abs(t_bar - t_star / 2.0) <= 1e-15


def test_rate_factor_matches_the_product_form():
    # The sin^2 form against the paper's cos * sin product, which shares no
    # constant with it beyond the rates; they differ by round-off of the
    # product's large terms b^2 hyp / Omega^2.
    rng = np.random.default_rng(41)
    ts = np.linspace(0.0, 10.0, 2001)
    for _ in range(200):
        p = random_model_params(rng)
        scale = p.b * p.b * p.hyp / (p.Omega * p.Omega) + p.a
        dev = np.abs(concurrence_rate_factor(p, ts) - rate_factor_product_form(p, ts)).max()
        assert dev <= 3e-14 * scale, (p, dev / scale)


def test_rate_factor_max_near_the_creation_threshold():
    # b^2 / (2 (hyp + a)) - a cancels to about 1e-12 here; the reference is
    # a 50-digit mpmath evaluation at the same float inputs.
    peak, _ = rate_factor_max(ModelParams(0.7499985000000001, 1.4999985, 1.5))
    assert abs(peak / 1.4997749558226576e-12 - 1.0) <= 1e-3


def test_rate_factor_where_b_squared_underflows():
    # b^2 rounds to 0 at a = 0, so the threshold-safe G_max would be 0 / 0;
    # G is -a = 0 there, as at b = 0.
    offsets = np.linspace(0.0, 4.0, 9)
    for p in (ModelParams(0.0, 1e-170), ModelParams(0.0, 1e-300)):
        assert rate_factor_max(p) == (0.0, p.t_bar)
        assert np.isfinite(concurrence_rate_factor(p, offsets)).all()
        assert all(np.isfinite(curve).all() for curve in window_functions(p, offsets))
        assert detect_windows(p).intervals == ()


def test_entanglement_creation_criterion_examples():
    assert can_create_entanglement(ModelParams(0.3, 0.8))       # 0.09 < 0.1024
    assert not can_create_entanglement(ModelParams(0.5, 0.8))   # 0.25 > 0.1024
    assert can_create_entanglement(ModelParams(0.01, 0.4))      # 1e-4 < 0.0064


def test_entanglement_creation_criterion_matches_peak_sign():
    rng = np.random.default_rng(41)
    for _ in range(200):
        p = random_model_params(rng)
        peak, _ = rate_factor_max(p)
        if abs(peak) <= 1e-10:
            continue
        assert can_create_entanglement(p) == (peak > 0.0)


def test_cp_branch_concurrence_never_increases():
    # b -> 0 limit of the closed form: c = mu exp(-2at) - (1 - mu)/2.
    p = ModelParams(0.5, 1e-6)
    mu = 0.9 * positivity_bound(p)
    ts = np.linspace(0.0, 5.0, 501)
    c = np.array([closed_signed_concurrence(p, mu, t) for t in ts])
    assert (np.diff(c) <= 1e-12).all()


# -------------------------------------------------------------------- windows

def test_window_function_equivalence():
    p = ModelParams(0.3, 0.8)
    peak_r4, _ = r4_max(p)
    _, t_bar = rate_factor_max(p)
    offsets = np.linspace(0.0, math.pi / p.Omega, 401)
    f, g, headroom = window_functions(p, offsets)
    assert ((f > 0.0) == (r1_curve(p, t_bar + offsets) > peak_r4)).all()
    assert np.abs(headroom - (r1_curve(p, t_bar + offsets) - 3.0)).max() <= 1e-14
    assert np.abs(g - concurrence_rate_factor(p, t_bar + offsets)).max() <= 1e-14


def test_window_headroom_decays():
    f, g, headroom = window_functions(ModelParams(0.3, 0.8), 40.0)
    assert headroom < 0.0


def test_detect_windows_with_headroom_kills_all_entanglement():
    for p in (ModelParams(0.1, 0.8), ModelParams(0.01, 0.4)):
        report = detect_windows(p)
        assert report.intervals
        best_headroom = max(
            window_functions(p, np.linspace(t1, t2, 200))[2].max()
            for t1, t2 in report.intervals
        )
        assert best_headroom >= 0.0
        assert report.kills_all_entanglement
        assert report.mu_upper_corrected <= 1.0 / 3.0 + 1e-12


def test_detect_windows_moderate_damping():
    report = detect_windows(ModelParams(0.3, 0.8))
    assert report.intervals
    assert not report.kills_all_entanglement
    assert report.mu_upper_corrected > 1.0 / 3.0


def test_detect_windows_multiple_intervals():
    report = detect_windows(ModelParams(0.01, 0.4))
    assert len(report.intervals) >= 2


def test_detect_windows_positive_regime_is_empty():
    report = detect_windows(ModelParams(0.5, 0.3))
    assert report.intervals == ()
    assert report.mu_upper_corrected == report.mu_upper_physical


def test_detect_windows_skips_headroom_scan(monkeypatch):
    # The window ends need only the closed-form G zeros and f; R1 enters
    # once, at the right end of the first window, on a scalar offset.
    calls = []
    r1_curve = bipartite.r1_curve

    def counted(p, t):
        calls.append(t)
        return r1_curve(p, t)

    monkeypatch.setattr(bipartite, "r1_curve", counted)
    detect_windows(ModelParams(0.5, 0.3))
    assert calls == []
    report = detect_windows(ModelParams(0.01, 0.4))
    assert len(report.intervals) >= 2
    assert calls == [report.t_bar + report.intervals[0][1]] and np.ndim(calls[0]) == 0


def test_detect_windows_bound_ordering_and_refinement():
    for p in FIGURE_PARAMS:
        report = detect_windows(p)
        assert report.mu_upper_corrected <= report.mu_upper_physical + 1e-15
        assert report.kills_all_entanglement == (report.mu_upper_corrected <= 1.0 / 3.0 + 1e-12)
        horizon = math.pi / p.Omega
        for t1, t2 in report.intervals:
            assert 0.0 <= t1 < t2 <= horizon
            for endpoint in (t1, t2):
                if endpoint in (0.0, horizon):
                    continue
                f, g, _ = window_functions(p, endpoint)
                assert min(abs(f), abs(g)) <= 1e-6


def test_detect_windows_is_deterministic():
    p = ModelParams(0.01, 0.4)
    assert detect_windows(p) == detect_windows(p)


def test_detect_windows_validation():
    p = ModelParams(0.3, 0.8)
    for horizon in (-1.0, 0.0, math.nan):
        with pytest.raises(ValueError, match="positive window horizon"):
            detect_windows(p, horizon)
    period = math.pi / (2.0 * p.Omega)
    for horizon in (1.01 * bipartite.MAX_WINDOW_PERIODS * period, math.inf):
        with pytest.raises(ValueError, match="periods"):
            detect_windows(p, horizon)
    # The cap counts periods, not windows: at a > 0 the scan stops at the
    # first window-free period, so the widest admitted horizon is cheap.
    widest = detect_windows(p, bipartite.MAX_WINDOW_PERIODS * period)
    assert widest.intervals == detect_windows(p).intervals
    assert list(inspect.signature(detect_windows).parameters) == ["p", "t_max_offset"]


def test_detect_windows_short_horizon_clips_the_window():
    p = ModelParams(0.3, 0.8)
    (_, right), = detect_windows(p).intervals
    report = detect_windows(p, 0.5 * right)
    assert report.intervals == ((0.0, 0.5 * right),)
    assert report.mu_upper_corrected > detect_windows(p).mu_upper_corrected


# ----------------------------------------------------------- partial transpose

def test_ppt_symmetry_trivial_and_generic():
    p = ModelParams(0.1, 0.9)
    assert crosscheck.spectrum_vs_jacobi(p, 0.0, [1.3], transposed=True) <= 1e-10
    assert crosscheck.spectrum_vs_jacobi(p, 0.2, [0.7], transposed=True) <= 1e-10


def test_ppt_detects_entanglement_window():
    p = ModelParams(0.1, 0.9)
    t = 1.8014  # near the peak of R1, where 1/R1 dips below 1/R4
    threshold = 1.0 / r1_curve(p, t)
    bound = positivity_bound(p)
    assert threshold < bound

    entangled_mu = 0.5 * (threshold + bound)
    m = evolve_isotropic(p, entangled_mu, t)
    assert concurrence_wootters(m) > 0.0
    pt_min = qmat.hermitian_eigenvalues(qmat.partial_transpose_first(m))[-1]
    assert pt_min < 0.0

    separable_mu = 0.9 * threshold
    m = evolve_isotropic(p, separable_mu, t)
    assert concurrence_wootters(m) == 0.0
    pt_min = qmat.hermitian_eigenvalues(qmat.partial_transpose_first(m))[-1]
    assert pt_min >= -1e-12


# ------------------------------------------------------------- cross-module

def test_single_qubit_radius_below_positivity_radius():
    # On the quarter period where sin(2 Omega t) >= 0.
    for p in FIGURE_PARAMS:
        ts = np.linspace(0.0, math.pi / (4.0 * p.Omega), 501)
        assert (np.sqrt(norm_bound_curve(p, ts)) <= r4_curve(p, ts) + 1e-12).all()
