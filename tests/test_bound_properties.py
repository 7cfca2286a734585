"""Peak radius, contraction bounds and spectrum on the whole admitted domain.

Hypothesis draws (derandomized) cover a = 0, a within a relative 10^-12 to
10^-1 of b on either side, a = b, free a up to 50 omega, b/omega from 1e-12
to 1 - 1e-12 and large a*t, where exp(-2at) underflows.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qslip import ModelParams, detect_windows, eigenvalues_closed_form, norm_bound_max

_EPS = np.finfo(float).eps
_B_FRACTIONS = st.one_of(
    st.floats(1e-12, 1.0 - 1e-12),
    st.sampled_from([1e-12, 1e-9, 1e-6, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12]),
)
_GAPS = st.floats(-12.0, -1.0).map(lambda e: 10.0 ** e)
_MU = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
_TIMES = st.one_of(
    st.just(0.0),
    st.floats(0.0, 20.0),
    st.floats(20.0, 1e4),  # exp(-2at) underflows for large a*t
)
_PROPERTY_SETTINGS = settings(derandomize=True, max_examples=300, deadline=None)


@st.composite
def _params(draw):
    omega = draw(st.floats(0.5, 2.0))
    b = draw(_B_FRACTIONS) * omega
    a = draw(st.one_of(
        st.just(0.0),
        _GAPS.map(lambda gap: b * (1.0 - gap)),
        st.just(b),
        _GAPS.map(lambda gap: b * (1.0 + gap)),
        st.floats(0.0, 50.0).map(lambda frac: frac * omega),
    ))
    return ModelParams(a, b, omega)


@_PROPERTY_SETTINGS
@given(_params())
# R - 1 = 8.9e-18 here, below the round-off of R, which read 1 - 1.1e-16.
@example(ModelParams(0.299999999997, 0.3))
@example(ModelParams(0.3 * (1.0 - 1e-8), 0.3))
def test_peak_radius_is_at_least_one(p):
    radius, t_prime = norm_bound_max(p)
    assert radius >= 1.0
    if p.a >= p.b:
        assert (radius, t_prime) == (1.0, 0.0)
        return
    # With x = sqrt(b^2 - a^2)/omega and c = Omega/a, ln R = atanh(x) -
    # atan(c x)/c, and atanh(x) >= x + x^3/3 and y - atan(y) >= y^3/(3 (1 +
    # y^2)) bound R - 1 >= ln R from below without cancellation.  R itself
    # is good to a few ulps, so this asserts R > 1 wherever the bound clears
    # them.  A relative gap (b - a)/b of 1e-8 does that at b/omega = 0.3
    # (the bound is 2.8e-13), but not at b/omega = 1e-6, where R - 1 is
    # about 1e-18.
    x = math.sqrt((p.b - p.a) * (p.b + p.a)) / p.omega
    lower = x ** 3 / 3.0 + x ** 3 * p.Omega ** 2 / (3.0 * (p.a ** 2 + (p.Omega * x) ** 2))
    assert radius - 1.0 >= lower - 4.0 * _EPS * radius, (radius, lower)


@_PROPERTY_SETTINGS
@given(_params())
def test_corrected_bound_never_exceeds_the_physical_one(p):
    report = detect_windows(p)
    assert report.mu_upper_corrected <= report.mu_upper_physical
    assert report.kills_all_entanglement == (report.mu_upper_corrected <= 1.0 / 3.0 + 1e-12)


@_PROPERTY_SETTINGS
@given(_params(), _MU, st.lists(_TIMES, min_size=1, max_size=4))
def test_closed_form_spectrum_sums_to_one(p, mu, times):
    # Near b -> omega the entries reach about 1e6, so the margin scales
    # with the largest of them.
    for t in times:
        e = eigenvalues_closed_form(p, mu, t)
        assert abs(sum(e) - 1.0) <= 8.0 * _EPS * max(1.0, max(abs(x) for x in e)), (t, e)
