"""Properties of the 4x4 oracle path on the whole admitted domain.

The closed forms are checked against the Jacobi eigensolver, Wootters'
formula and the Choi criterion not only at the figure points but at
Hypothesis draws (derandomized) that cover the edges of the domain: a = 0,
b/omega from 1e-12 to 1 - 1e-12, and large a*t where exp(-2at) underflows.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_x_shaped, x_eig
from qslip import (
    ModelParams,
    SlippageChannel,
    compose_actions,
    concurrence_closed_form,
    concurrence_wootters,
    eigenvalues_closed_form,
    evolve_isotropic,
    is_completely_positive,
    positivity_bound,
    qmat,
    semigroup_action,
    slippage_action,
)
from qslip.slippage import CP_EIG_FLOOR

_B_FRACTIONS = st.one_of(
    st.floats(1e-12, 1.0 - 1e-12),
    st.sampled_from([1e-12, 1e-9, 1e-6, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12]),
)
_RATES = st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(1.0, 50.0))
_TIMES = st.one_of(
    st.just(0.0),
    st.floats(0.0, 20.0),
    st.floats(20.0, 1e4),  # exp(-2at) underflows for large a*t
)
_PROPERTY_SETTINGS = settings(derandomize=True, max_examples=150, deadline=None)


@st.composite
def _params(draw):
    omega = draw(st.floats(0.5, 2.0))
    return ModelParams(draw(_RATES), draw(_B_FRACTIONS) * omega, omega)


@_PROPERTY_SETTINGS
@given(_params(), st.floats(0.0, 1.0), st.lists(_TIMES, min_size=1, max_size=4))
def test_closed_form_spectrum_matches_jacobi(p, mu_fraction, times):
    mu = mu_fraction * positivity_bound(p)
    for t in times:
        m = evolve_isotropic(p, mu, t)
        numeric = qmat.hermitian_eigenvalues(m)
        closed = np.sort(eigenvalues_closed_form(p, mu, t))[::-1]
        assert np.abs(numeric - closed).max() <= 1e-12, (t, numeric, closed)
        # The eigenvalue-only path skips the eigenvectors, not a bit of w.
        assert numeric.tobytes() == x_eig(m)[0].tobytes()


@_PROPERTY_SETTINGS
@given(st.integers(0, 2**32 - 1))
def test_eigenvalue_only_path_is_bit_identical(seed):
    # The block kernel with and without eigenvectors; only X-shaped inputs
    # have eigenvectors.
    rng = np.random.default_rng(seed)
    m = random_x_shaped(rng)
    m[[0, 3, 1, 2], [3, 0, 2, 1]] += 1e-12 * rng.normal(size=4)  # within tolerance
    assert qmat.hermitian_eigenvalues(m).tobytes() == x_eig(m)[0].tobytes()


@_PROPERTY_SETTINGS
@given(_params(), st.floats(0.0, 1.0), _TIMES)
def test_evolved_state_is_exactly_hermitian_with_unit_trace(p, mu, t):
    m = evolve_isotropic(p, mu, t)
    assert np.array_equal(m, m.conj().T)
    assert abs(np.trace(m) - 1.0) <= 1e-15


# As in `verify`, mu stays at or below 0.999/R4; the b -> 0 edge, where
# R4 -> 1 and the state at the bound is nearly pure, is kept as an explicit
# example, and the bound itself is the test below.
@_PROPERTY_SETTINGS
@given(_params(), st.floats(0.0, 0.999), st.lists(_TIMES, min_size=1, max_size=4))
@example(ModelParams(1.0, 1e-12, 1.0), 0.999, [0.0])
def test_wootters_matches_closed_form_inside_bound(p, mu_fraction, times):
    mu = mu_fraction * positivity_bound(p)
    for t in times:
        closed = concurrence_closed_form(p, mu, t)
        assert abs(concurrence_wootters(evolve_isotropic(p, mu, t)) - closed) <= 1e-10


# At the rank-deficient bound mu = 1/R4 a Wootters lambda is near zero.
# Squaring the singular values and taking their roots again missed the
# closed form by 1.61e-9 at b = 1e-8; the column norms of one Hestenes
# rotation per block land within 7.8e-16.
def test_wootters_at_the_rank_deficient_bound():
    p = ModelParams(1.0, 1e-8, 1.0)
    mu = positivity_bound(p)
    closed = concurrence_closed_form(p, mu, 0.0)
    assert abs(concurrence_wootters(evolve_isotropic(p, mu, 0.0)) - closed) <= 1e-10


@_PROPERTY_SETTINGS
@given(_params(), st.lists(_TIMES, min_size=1, max_size=4))
def test_slipped_map_is_cp_at_the_positivity_bound(p, times):
    gamma = semigroup_action(p)
    slip = slippage_action(SlippageChannel(positivity_bound(p)))
    report = is_completely_positive(lambda t: compose_actions(gamma(t), slip), times)
    assert report.min_eigenvalue >= CP_EIG_FLOOR, report
    assert math.isfinite(report.min_eigenvalue)
