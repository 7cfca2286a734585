import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import pauli_images, random_bloch_in_ball
from qslip import (
    BlochVector,
    ModelParams,
    SlippageChannel,
    choi_matrix,
    compose_actions,
    eigenvalues_closed_form,
    evolve_isotropic,
    is_completely_positive,
    isotropic,
    semigroup_action,
    slippage_action,
)
from qslip import qmat

_EPS = np.finfo(float).eps


def _kraus_operators(mu):
    """Kraus operators of the slippage channel: sqrt((1+3mu)/4) 1, sqrt((1-mu)/4) sigma_i."""
    w_id = math.sqrt((1.0 + 3.0 * mu) / 4.0)
    w_pauli = math.sqrt((1.0 - mu) / 4.0)
    return [w_id * qmat.IDENTITY_2, w_pauli * qmat.PAULI_1, w_pauli * qmat.PAULI_2, w_pauli * qmat.PAULI_3]


def _kraus_apply(mu, rho):
    """rho -> sum_k K rho K^dagger, an independent form of the channel."""
    return sum(k @ rho @ k.conj().T for k in _kraus_operators(mu))


def _apply_action(action, r):
    """Image of rho = (1 + r.sigma)/2 under a map given by its Pauli-basis matrix."""
    one, s1, s2, s3 = pauli_images(action)
    return 0.5 * (one + r.r1 * s1 + r.r2 * s2 + r.r3 * s3)


def test_channel_validation():
    SlippageChannel(0.0)
    SlippageChannel(1.0)
    for bad in (-0.01, 1.01, np.nan):
        with pytest.raises(ValueError):
            SlippageChannel(bad)


def test_apply_slippage_examples():
    r = BlochVector(1.0, 0.0, 0.0)
    for mu in (1.0, 0.0, 0.25):
        out = _apply_action(slippage_action(SlippageChannel(mu)), r)
        assert np.abs(out - BlochVector(mu, 0.0, 0.0).to_density_matrix()).max() == 0.0


def test_kraus_completeness():
    for mu in np.linspace(0.0, 1.0, 21):
        ops = _kraus_operators(mu)
        total = sum(g.conj().T @ g for g in ops)
        assert np.abs(total - np.eye(2)).max() <= 1e-14


def test_kraus_fixed_points():
    rho = 0.5 * (qmat.IDENTITY_2 + qmat.PAULI_3)
    assert np.abs(_kraus_apply(1.0, rho) - rho).max() <= 1e-15
    out = _kraus_apply(0.0, rho)
    assert np.abs(out - np.eye(2) / 2.0).max() <= 1e-15


def test_kraus_agrees_with_bloch_contraction():
    rng = np.random.default_rng(23)
    for _ in range(100):
        r = BlochVector(*random_bloch_in_ball(rng))
        mu = rng.uniform(0.0, 1.0)
        via_kraus = _kraus_apply(mu, r.to_density_matrix())
        via_action = _apply_action(slippage_action(SlippageChannel(mu)), r)
        assert np.abs(via_kraus - via_action).max() <= 1e-12
        assert abs(np.trace(via_kraus) - 1.0) <= 1e-14


def test_choi_of_identity_is_entangled_projector():
    choi = choi_matrix(slippage_action(SlippageChannel(1.0)))
    assert np.abs(choi - isotropic(1.0)).max() <= 1e-15
    w = qmat.hermitian_eigenvalues(choi)
    assert np.abs(w - np.array([1.0, 0.0, 0.0, 0.0])).max() <= 1e-12


def test_choi_spectrum_of_slippage_channel():
    p = ModelParams(0.1, 0.9)
    rng = np.random.default_rng(29)
    for mu in rng.uniform(0.0, 1.0, size=10):
        w = qmat.hermitian_eigenvalues(choi_matrix(slippage_action(SlippageChannel(mu))))
        expected = np.array([(1.0 + 3.0 * mu) / 4.0] + [(1.0 - mu) / 4.0] * 3)
        assert np.abs(w - expected).max() <= 1e-10
        # Same spectrum as the closed-form eigenvalues frozen at t = 0.
        closed = np.sort(eigenvalues_closed_form(p, mu, 0.0))[::-1]
        assert np.abs(w - closed).max() <= 1e-10


def test_semigroup_choi_detects_non_cp():
    family = semigroup_action(ModelParams(0.1, 0.9))
    w = qmat.hermitian_eigenvalues(choi_matrix(family(0.5)))
    assert w[-1] < -0.1


def test_cp_scan_completely_positive_branch():
    family = semigroup_action(ModelParams(0.5, 0.0, 1.0))  # b = 0
    report = is_completely_positive(family, np.arange(0.0, 5.0001, 0.01))
    assert report.is_cp
    assert report.min_eigenvalue >= -1e-12


def test_cp_scan_positive_not_cp_branch():
    family = semigroup_action(ModelParams(1.0, 0.5, 2.0))
    report = is_completely_positive(family, np.arange(0.0, 5.0001, 0.01))
    assert not report.is_cp
    assert report.min_eigenvalue < -1e-8


def test_cp_scan_slipped_family():
    p = ModelParams(0.1, 0.9)
    gamma = semigroup_action(p)
    slip = slippage_action(SlippageChannel(0.25))  # just inside 1/R4 ~ 0.2528
    family = lambda t: compose_actions(gamma(t), slip)
    report = is_completely_positive(family, np.linspace(0.0, 5.0, 201))
    assert report.is_cp


def test_cp_scan_validation():
    family = semigroup_action(ModelParams(0.5, 0.0, 1.0))
    with pytest.raises(ValueError):
        is_completely_positive(family, [])
    with pytest.raises(ValueError):
        is_completely_positive(family, [-1.0, 0.0])


def test_min_choi_eigenvalue_monotone_in_contraction():
    p = ModelParams(0.1, 0.9)
    gamma = semigroup_action(p)
    for t in (0.3, 1.0, 2.5):
        minima = []
        for mu in np.linspace(1.0, 0.0, 11):
            action = compose_actions(gamma(t), slippage_action(SlippageChannel(mu)))
            minima.append(qmat.hermitian_eigenvalues(choi_matrix(action))[-1])
        diffs = np.diff(minima)
        assert (diffs >= -1e-12).all()


@st.composite
def _choi_points(draw):
    omega = 10.0 ** draw(st.floats(-3.0, 3.0))
    a = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(1.0, 50.0))) * omega
    p = ModelParams(a, draw(st.floats(1e-12, 1.0 - 1e-12)) * omega, omega)
    mu = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    t = draw(st.one_of(st.just(0.0), st.just(p.t_star), st.floats(0.0, 8.0 / omega)))
    return p, mu, t


# (gamma_t . S_mu) (x) id applied to the projector must reproduce the
# explicit evolved isotropic matrix: three modules, one identity, which
# makes criterion 10 and the bound mu <= 1/R4 one fact.
@settings(derandomize=True, max_examples=300, deadline=None)
@given(_choi_points())
@example((ModelParams(0.0, 1e-12, 1e-3), 1.0, 0.0))
@example((ModelParams(0.0, 1e3 - 1e-9, 1e3), 1.0, 8e-3))
def test_choi_of_slipped_semigroup_is_evolved_isotropic(point):
    p, mu, t = point
    action = compose_actions(semigroup_action(p)(t), slippage_action(SlippageChannel(mu)))
    scale = max(1.0, float(np.abs(np.asarray(action)).max()))
    assert np.abs(choi_matrix(action) - evolve_isotropic(p, mu, t)).max() <= 4 * _EPS * scale


def test_choi_convention_is_not_the_transpose():
    # Pins the convention: the transposed Choi matrix is a different matrix.
    p = ModelParams(0.1, 0.9)
    action = compose_actions(semigroup_action(p)(1.0), slippage_action(SlippageChannel(1.0)))
    assert np.abs(choi_matrix(action).T - evolve_isotropic(p, 1.0, 1.0)).max() > 0.1


def test_compose_scales_pauli_images():
    p = ModelParams(0.3, 0.8)
    gamma = semigroup_action(p)
    mu = 0.4
    composed = compose_actions(gamma(0.7), slippage_action(SlippageChannel(mu)))
    direct = gamma(0.7)
    # Column k holds the Pauli coordinates of the image of s_k.
    assert np.abs(composed[:, 0] - direct[:, 0]).max() <= 1e-14
    for k in (1, 2, 3):
        assert np.abs(composed[:, k] - mu * direct[:, k]).max() <= 1e-14


def test_semigroup_action_has_an_identity_corner():
    p = ModelParams(0.3, 0.8)
    for t in (0.0, 0.7, 2.5):
        action = semigroup_action(p)(t)
        assert action[0].tolist() == [1.0, 0.0, 0.0, 0.0]
        assert action[:, 0].tolist() == [1.0, 0.0, 0.0, 0.0]


def _uniform_action(rng):
    """A general (complex) Pauli-basis matrix, entries uniform in the unit square."""
    return rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))


def test_choi_matrix_matches_kron_formula():
    i2, s1, s2, s3 = qmat.IDENTITY_2, qmat.PAULI_1, qmat.PAULI_2, qmat.PAULI_3
    rng = np.random.default_rng(47)
    actions = [_uniform_action(rng) for _ in range(20)]
    actions += [semigroup_action(ModelParams(0.3, 0.8))(t) for t in (0.0, 0.7, 2.5)]
    for m in actions:
        m0, m1, m2, m3 = pauli_images(m)
        kron = 0.25 * (np.kron(m0, i2) + np.kron(m1, s1) - np.kron(m2, s2) + np.kron(m3, s3))
        # Per real or imaginary part, with m the largest entry modulus: the
        # images round once (2u m), their two-term sum once more (4u m), so
        # the quartered reference is within eps m; choi_matrix sums four
        # exact terms of size <= m/4 (1.5 eps m).  2.5 eps m per part is
        # 3.6 eps m in modulus.
        assert np.abs(choi_matrix(m) - kron).max() <= 4 * _EPS * np.abs(m).max()


def test_compose_actions_matches_trace_formula():
    basis = (qmat.IDENTITY_2, qmat.PAULI_1, qmat.PAULI_2, qmat.PAULI_3)
    rng = np.random.default_rng(53)
    gamma = semigroup_action(ModelParams(0.1, 0.9))
    pairs = [(_uniform_action(rng), _uniform_action(rng)) for _ in range(20)]
    pairs += [(gamma(1.3), slippage_action(SlippageChannel(0.4))), (gamma(0.2), gamma(2.9))]
    for outer, inner in pairs:
        # First-order bound per real or imaginary part, u = eps/2 and m the
        # largest entry modulus: the reference (images, traces, four complex
        # products, a four-term sum) is within 112 u m_out m_in, the images
        # of the 4x4 product within 56 u m_out m_in; 84 eps per part is
        # under 120 eps in modulus.
        bound = 120 * _EPS * np.abs(outer).max() * np.abs(inner).max()
        outer_images = pauli_images(outer)
        for image, result in zip(pauli_images(inner), pauli_images(compose_actions(outer, inner))):
            coeffs = [np.trace(b @ image) / 2.0 for b in basis]
            expected = sum(c * o for c, o in zip(coeffs, outer_images))
            assert np.abs(result - expected).max() <= bound
