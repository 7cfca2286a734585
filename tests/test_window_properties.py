"""Window invariants of ``detect_windows`` on the whole creation domain.

The closed-form windows are checked against a dense-grid reference that
never reuses their ends or the peak G_max they come from: it evaluates f
and the paper's product form of g (``rate_factor_product_form``) on a
uniform offset grid and reports every grid point where both are positive.  Hypothesis draws
(derandomized) cover a = 0 and 0 <= a < b^2 / (2 omega), the creation
region, with b/omega from 1e-12 to 1 - 1e-12.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qslip import (
    ModelParams,
    can_create_entanglement,
    detect_windows,
    r1_curve,
    rate_factor_product_form,
    window_functions,
)

_B_FRACTIONS = st.one_of(
    st.floats(1e-12, 1.0 - 1e-12),
    st.sampled_from([1e-12, 1e-9, 1e-6, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12]),
)
# a as a fraction of the creation threshold b^2 / (2 omega).
_THRESHOLD_FRACTIONS = st.one_of(
    st.just(0.0),
    st.floats(0.0, 1.0, exclude_max=True),
    st.sampled_from([1.0 - 1e-4, 1.0 - 1e-8, 1.0 - 1e-12]),
)
_PROPERTY_SETTINGS = settings(derandomize=True, max_examples=200, deadline=None)
_REFERENCE_POINTS = 20_001
# Round-off margin, in units of the largest term.  R1 (up to about 1.4e6 at
# b/omega = 1 - 1e-12) may break its exact monotonicity in the last few
# ulps.
_ULPS = 8 * np.finfo(float).eps


@st.composite
def _creation_params(draw):
    omega = draw(st.floats(0.5, 2.0))
    b = draw(_B_FRACTIONS) * omega
    return ModelParams(draw(_THRESHOLD_FRACTIONS) * b * b / (2.0 * omega), b, omega)


def dense_grid_window_points(p: ModelParams, horizon: float, points: int = _REFERENCE_POINTS):
    """Grid offsets in [0, horizon] where f > 0 and g > 0, and the grid step.

    g is the product form at t_bar + offset; near the creation threshold it
    reads round-off, which the one-step widening of the windows absorbs.
    """
    grid = np.linspace(0.0, horizon, points)
    f, _, _ = window_functions(p, grid)
    g = rate_factor_product_form(p, p.t_bar + grid)
    return grid[(f > 0.0) & (g > 0.0)], grid[1] - grid[0]


@_PROPERTY_SETTINGS
@given(_creation_params())
# Exact max G is 3.2e-17: a G that cancels its large terms reads 0 at the
# midpoint of the second window.
@example(ModelParams(0.18749999999999997, 0.75, 1.5))
def test_window_invariants(p):
    report = detect_windows(p)
    horizon = math.pi / p.Omega
    bounds = [t for interval in report.intervals for t in interval]
    assert bounds == sorted(bounds)
    assert all(0.0 <= t1 < t2 <= horizon for t1, t2 in report.intervals)

    for t1, t2 in report.intervals:
        mid = 0.5 * (t1 + t2)
        f, g, _ = window_functions(p, mid)
        assert f > 0.0 and g > 0.0, (t1, t2, f, g)
        r1_left, r1_mid, r1_right = (r1_curve(p, report.t_bar + t) for t in (t1, mid, t2))
        assert r1_right >= max(r1_left, r1_mid) * (1.0 - _ULPS)

    assert report.mu_upper_corrected <= report.mu_upper_physical
    # R1 at the right ends decays period by period, so the first window's
    # peak is the largest: the bound is the one taken over every window.
    if report.intervals:
        assert report.mu_upper_corrected == 1.0 / max(
            r1_curve(p, p.t_bar + right) for _, right in report.intervals)
    assert report.kills_all_entanglement == (report.mu_upper_corrected <= 1.0 / 3.0 + 1e-12)

    # g, whose peak also sets the window ends, agrees with the product form
    # to round-off of the product's large terms b^2 hyp / Omega^2.
    grid = np.linspace(0.0, horizon, 1001)
    g_dev = np.abs(window_functions(p, grid)[1] - rate_factor_product_form(p, report.t_bar + grid))
    assert g_dev.max() <= 4 * _ULPS * (p.b * p.b * p.hyp / (p.Omega * p.Omega) + p.a)

    inside, step = dense_grid_window_points(p, horizon)
    lefts = np.array([t1 for t1, _ in report.intervals]) - step
    rights = np.array([t2 for _, t2 in report.intervals]) + step
    covered = ((inside[:, None] >= lefts) & (inside[:, None] <= rights)).any(axis=1)
    assert covered.all(), inside[~covered]
    # The corrected bound excludes every creation point the grid sees.
    if inside.size:
        peak = r1_curve(p, report.t_bar + inside).max()
        assert 1.0 / report.mu_upper_corrected >= peak * (1.0 - _ULPS)


def test_window_at_a_zero_recurs_every_period():
    p = ModelParams(0.0, 0.5)
    period = math.pi / (2.0 * p.Omega)
    report = detect_windows(p, 10.0 * period)
    assert len(report.intervals) == 11
    widths = [t2 - t1 for t1, t2 in report.intervals[1:-1]]
    assert max(widths) - min(widths) <= 1e-12


def test_window_narrower_than_the_old_grid_step_is_found():
    # The former 4000-step grid scan missed the middle window here: it is
    # 3.3e-4 wide against a grid step of 8.1e-4, and the third window is
    # 1.7e-4 wide.
    p = ModelParams(0.024800929465618043, 0.22271477118429295)
    assert can_create_entanglement(p)
    report = detect_windows(p)
    assert len(report.intervals) == 3
    _, (l1, r1), (l2, r2) = report.intervals
    assert 3.0e-4 < r1 - l1 < 3.5e-4
    assert 1.6e-4 < r2 - l2 < 1.7e-4
    for t1, t2 in report.intervals:
        f, g, _ = window_functions(p, 0.5 * (t1 + t2))
        assert f > 0.0 and g > 0.0
        assert rate_factor_product_form(p, report.t_bar + 0.5 * (t1 + t2)) > 0.0
    # A reference grid fine enough to resolve the middle window sees it.
    inside, step = dense_grid_window_points(p, math.pi / p.Omega, 200_001)
    assert ((inside > l1 - step) & (inside < r1 + step)).any()
