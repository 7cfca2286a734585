"""Scalar calls of the closed forms equal the array path bit for bit.

A scalar time runs on Python floats and an array time on numpy (see
``qslip._timekernel``).  For every closed form on that kernel, the scalar
call at t_i must equal element i of the array call, and the 0-d array call,
exactly: same bits, the same sign of zero, and NaN wherever the array path
gives NaN.  The domain covers its edges: a = 0, b -> 0, b -> omega, large
a*t, and times whose phase 2 Omega t overflows to inf.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qslip import (
    BlochVector,
    ModelParams,
    bloch_propagator,
    bloch_trajectory,
    concurrence_closed_form,
    concurrence_curve,
    concurrence_rate_factor,
    eigenvalues_closed_form,
    norm_bound_curve,
    positivity_bound,
    r1_curve,
    r4_curve,
    window_functions,
)

_B_FRACTIONS = st.one_of(
    st.floats(1e-3, 0.999),
    st.sampled_from([1e-12, 1e-9, 1e-6, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12]),
)
_RATES = st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(1.0, 50.0))
_TIMES = st.one_of(
    st.just(0.0),
    st.floats(0.0, 20.0),
    st.floats(20.0, 1e4),          # exp(-2at) underflows for large a*t
    st.floats(1e306, 1.7e308),     # 2 Omega t overflows to inf for Omega > ~0.5
    st.just(math.inf),
)


@st.composite
def _cases(draw):
    omega = draw(st.floats(0.5, 2.0))
    p = ModelParams(draw(_RATES), draw(_B_FRACTIONS) * omega, omega)
    times = draw(st.lists(_TIMES, min_size=1, max_size=6))
    return p, draw(st.floats(0.0, 1.0)), times


def _same(scalar, reference) -> bool:
    if math.isnan(reference):
        return math.isnan(scalar)
    return scalar == reference and math.copysign(1.0, scalar) == math.copysign(1.0, reference)


def _check(scalar, reference):
    """scalar is a Python float bit-identical to the numpy value reference."""
    assert type(scalar) is float, type(scalar)
    assert _same(scalar, float(reference)), (scalar, reference)


def _scalar_forms(t):
    forms = [t, np.float64(t)]
    if t.is_integer() and abs(t) < 2.0 ** 53:
        forms.append(int(t))
    return forms


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_cases())
# Points where C pow(x, 2), which ``x ** 2`` on a scalar calls, differs in
# the last ulp from the x * x numpy uses on arrays.
@example((ModelParams(0.24391716083681303, 1.2168488899929177, 1.8448107855740012),
          0.5, [11.566422930098092]))
@example((ModelParams(0.489667584706567, 0.8150012348545729, 1.8143282121639066),
          0.5, [2.765742294345608]))
def test_scalar_calls_match_array_elements(case):
    p, mu_fraction, times = case
    mu = mu_fraction * positivity_bound(p)
    grid = np.array(times)
    with np.errstate(invalid="ignore", over="ignore"):
        curves = {
            r1_curve: r1_curve(p, grid),
            r4_curve: r4_curve(p, grid),
            concurrence_rate_factor: concurrence_rate_factor(p, grid),
            norm_bound_curve: norm_bound_curve(p, grid),
        }
        windows = window_functions(p, grid)
        eigenvalues = eigenvalues_closed_form(p, mu, grid)
        concurrence = concurrence_curve(p, mu, grid)
        for i, t in enumerate(times):
            zero_d = np.array(t)
            for ts in _scalar_forms(t):
                for fn, values in curves.items():
                    _check(fn(p, ts), values[i])
                    _check(fn(p, zero_d), values[i])
                for scalar, scalar_0d, arrays in (
                    (window_functions(p, ts), window_functions(p, zero_d), windows),
                    (eigenvalues_closed_form(p, mu, ts), eigenvalues_closed_form(p, mu, zero_d),
                     eigenvalues),
                ):
                    for got, got_0d, values in zip(scalar, scalar_0d, arrays):
                        _check(got, values[i])
                        _check(got_0d, values[i])
                _check(concurrence_curve(p, mu, ts), concurrence[i])
                # The scalar-only form: the float call against the 0-d numpy call.
                _check(concurrence_closed_form(p, mu, ts), concurrence_closed_form(p, mu, zero_d))


def test_propagator_decay_matches_trajectory():
    # Both read exp(-2at) through np.exp; math.exp differs in the last ulp here.
    p, t = ModelParams(0.08564916714362436, 0.9), 1.1840525329804985
    image = bloch_trajectory(p, BlochVector(1.0, 0.0, 0.0), [t])[0, 0]
    assert bloch_propagator(p, t)[0, 0] == image
