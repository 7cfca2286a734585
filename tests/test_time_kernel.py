"""Scalar calls of the closed forms equal the array path bit for bit.

A scalar time runs on Python floats and an array time on numpy (see
``qslip._timekernel``).  For every closed form on that kernel, the scalar
call at t_i must equal element i of the array call, and the 0-d array call,
exactly: same bits, the same sign of zero, and NaN wherever the array path
gives NaN.  The domain covers its edges: a = 0, b -> 0, b -> omega, large
a*t, and finite times whose phase 2 Omega t overflows to inf.

A time that is negative, NaN, infinite or an int too large for a float is
outside the domain: every callable that takes a time rejects it, through
the kernel's one gate.
"""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qslip
from qslip import (
    BlochVector,
    ModelParams,
    bloch_trajectory,
    concurrence_closed_form,
    concurrence_curve,
    concurrence_rate_factor,
    eigenvalues_closed_form,
    evolve_isotropic,
    is_completely_positive,
    norm_bound_curve,
    positivity_bound,
    r1_curve,
    r4_curve,
    rate_factor_product_form,
    semigroup_action,
    window_functions,
)

_B_FRACTIONS = st.one_of(
    st.floats(1e-3, 0.999),
    # b = 0 is the completely positive branch, where G_max is -a.
    st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12]),
)
_RATES = st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(1.0, 50.0))
_TIMES = st.one_of(
    st.just(0.0),
    st.floats(0.0, 20.0),
    st.floats(20.0, 1e4),          # exp(-2at) underflows for large a*t
    st.floats(1e306, 1.7e308),     # 2 Omega t overflows to inf for Omega > ~0.5
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
    # mu spans [0, 1], so concurrence_curve's NaN above 1/R4 is compared too;
    # concurrence_closed_form takes mu only up to 1/R4.
    p, mu, times = case
    physical_mu = mu * positivity_bound(p)
    grid = np.array(times)
    with np.errstate(invalid="ignore", over="ignore"):
        curves = {
            r1_curve: r1_curve(p, grid),
            r4_curve: r4_curve(p, grid),
            concurrence_rate_factor: concurrence_rate_factor(p, grid),
            norm_bound_curve: norm_bound_curve(p, grid),
            rate_factor_product_form: rate_factor_product_form(p, grid),
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
                _check(concurrence_closed_form(p, physical_mu, ts),
                       concurrence_closed_form(p, physical_mu, zero_d))


def test_propagator_decay_matches_trajectory():
    # Both read exp(-2at) through np.exp; math.exp differs in the last ulp here.
    p, t = ModelParams(0.08564916714362436, 0.9), 1.1840525329804985
    image = bloch_trajectory(p, BlochVector(1.0, 0.0, 0.0), [t])[0, 0]
    assert semigroup_action(p)(t)[1, 1] == image


_P = ModelParams(0.1, 0.9)
# Every public callable that takes a time, with the forms of time it takes.
_TIME_CALLABLES = {
    "evolve_isotropic": (lambda t: evolve_isotropic(_P, 0.2, t), ("scalar",)),
    "eigenvalues_closed_form": (lambda t: eigenvalues_closed_form(_P, 0.2, t), ("scalar", "array")),
    "r4_curve": (lambda t: r4_curve(_P, t), ("scalar", "array")),
    "r1_curve": (lambda t: r1_curve(_P, t), ("scalar", "array")),
    "concurrence_closed_form": (lambda t: concurrence_closed_form(_P, 0.2, t), ("scalar",)),
    "concurrence_curve": (lambda t: concurrence_curve(_P, 0.2, t), ("scalar", "array")),
    "concurrence_rate_factor": (lambda t: concurrence_rate_factor(_P, t), ("scalar", "array")),
    "window_functions": (lambda t: window_functions(_P, t), ("scalar", "array")),
    "bloch_trajectory": (lambda t: bloch_trajectory(_P, BlochVector(0.5, 0.5, 0.0), t), ("array",)),
    "norm_bound_curve": (lambda t: norm_bound_curve(_P, t), ("scalar", "array")),
    "semigroup_action": (lambda t: semigroup_action(_P)(t), ("scalar",)),
    # A family that reads no time: the scan must check its grid itself.
    "is_completely_positive": (lambda t: is_completely_positive(lambda _: np.eye(4), t), ("array",)),
    "rate_factor_product_form": (lambda t: rate_factor_product_form(_P, t), ("scalar", "array")),
}


@pytest.mark.parametrize("t", [-1.0, math.nan, math.inf, 10**400], ids=["negative", "nan", "inf", "huge-int"])
@pytest.mark.parametrize("name, form", [(name, form) for name, (_, forms) in _TIME_CALLABLES.items()
                                        for form in forms])
def test_every_time_callable_rejects_a_time_outside_the_domain(name, form, t):
    call, _ = _TIME_CALLABLES[name]
    # The message names the time out of the domain, not the whole array.
    with pytest.raises(ValueError, match=re.escape(f"must be >= 0 and finite, got {t}") + "$"):
        call(t if form == "scalar" else [0.0, t])


@pytest.mark.parametrize("name, t, form", [
    ("evolve_isotropic", [0.5], "one scalar time, got shape (1,)"),
    ("semigroup_action", [0.5, 1.0], "one scalar time, got shape (2,)"),
    ("is_completely_positive", 0.5, "a nonempty 1-d time grid, got shape ()"),
    ("is_completely_positive", [[0.5]], "a nonempty 1-d time grid, got shape (1, 1)"),
    ("is_completely_positive", [], "a nonempty 1-d time grid, got shape (0,)"),
])
def test_a_callable_given_the_wrong_form_of_time_names_the_form_it_takes(name, t, form):
    call, _ = _TIME_CALLABLES[name]
    with pytest.raises(ValueError, match=f"^{re.escape(name)}.* takes {re.escape(form)}$"):
        call(t)


def test_time_domain_is_checked_in_the_kernel_only():
    # A time check written in a closed-form module would be a second gate
    # that can drift from the kernel's: its message may appear in no other module.
    message = re.compile(r"\btimes?\b.*must be >= 0")
    found = {}
    for path in sorted(Path(qslip.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and message.search(node.value):
                found.setdefault(path.name, []).append(node.lineno)
    assert list(found) == ["_timekernel.py"], found
