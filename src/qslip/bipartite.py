"""Two-qubit analysis of the locally evolved isotropic family.

One qubit of a maximally entangled pair is slipped (contracted by mu) and
then exposed to the dephasing semigroup while its partner stays inert.  The
resulting matrix family has a closed-form spectrum, a closed-form Wootters
concurrence, and two critical radii:

* ``r4_curve``/``r4_max`` bound mu so the family stays a state at all times;
* ``r1_curve`` enters the largest eigenvalue and the concurrence threshold.

When the rate criterion a^2 < b^4 / (4 omega^2) holds, the concurrence of a
valid state *grows* on certain time windows even though the action is
purely local; ``detect_windows`` finds those windows and the tightened mu
bound that excludes them.  Everything here is cross-checked against the
Jacobi eigensolver, the RK4 integrator and the scalar maximizer.

The time-dependent closed forms, and the corners of ``evolve_isotropic``,
take time through one kernel (``qslip._timekernel``): a scalar time runs on
Python floats and returns a ``float`` bit-identical to the matching element
of the array path, NaN included (the decay factor exp(-2at) still comes
from ``np.exp``; that module says why).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import qmat
from ._timekernel import time_kernel
from .oracle import maximize_scalar
from .semigroup import ModelParams

# Spectrum floor for "is still a state" checks on the evolved family.
ISOTROPIC_EIG_FLOOR = -1e-12
# A corrected bound at or below this kills every entangled isotropic state.
SEPARABLE_MU = 1.0 / 3.0

_WINDOW_GRID_POINTS = 4000
_WINDOW_REFINE_TOL = 1e-9

_SYSY = np.kron(qmat.PAULI_2, qmat.PAULI_2)


def symmetric_projector() -> np.ndarray:
    """The maximally entangled projector (1x1 + s1xs1 - s2xs2 + s3xs3)/4."""
    return isotropic(1.0)


def isotropic(mu: float) -> np.ndarray:
    """Isotropic 4x4 state (1-mu)/4 * identity + mu * projector.

    Entangled exactly when mu > 1/3.
    """
    mu = float(mu)
    if not (0.0 <= mu <= 1.0):
        raise ValueError(f"isotropic parameter mu must lie in [0, 1], got {mu}")
    m = np.diag([1.0 + mu, 1.0 - mu, 1.0 - mu, 1.0 + mu]).astype(complex)
    m[0, 3] = m[3, 0] = 2.0 * mu
    return m / 4.0


def evolve_isotropic(p: ModelParams, mu: float, t: float) -> np.ndarray:
    """Explicit matrix of the isotropic state after local evolution for t >= 0.

    Diagonal (1+mu, 1-mu, 1-mu, 1+mu)/4 with complex corners 2*mu*B_t
    (outer) and 2*mu*C_t (inner) from the analytically propagated Pauli
    images; at t = 0 this is ``isotropic(mu)``.
    """
    if t < 0.0:
        raise ValueError(f"evolution time must be >= 0, got {t}")
    mu = float(mu)
    t, k = time_kernel(float(t))
    big_omega = p.Omega
    decay = k.exp(-2.0 * p.a * t)
    s = k.sin(2.0 * big_omega * t)
    outer = 2.0 * mu * (decay * (k.cos(2.0 * big_omega * t) - 1j * (p.omega / big_omega) * s))
    inner = 2.0 * mu * (1j * (p.b / big_omega) * decay * s)
    plus, minus = 1.0 + mu, 1.0 - mu
    m = np.array([[plus, 0.0, 0.0, outer], [0.0, minus, inner, 0.0],
                  [0.0, inner.conjugate(), minus, 0.0], [outer.conjugate(), 0.0, 0.0, plus]],
                 dtype=complex)
    return m / 4.0


def _spectrum_entries(p: ModelParams, t, k):
    """Decay-weighted spectral ingredients: exp(-2at)*sqrt(1+(b/Omega)^2 s^2)
    and exp(-2at)*(b/Omega)*s with s = sin(2 Omega t), for ``t, k = time_kernel(t)``."""
    big_omega = p.Omega
    decay = k.exp(-2.0 * p.a * t)
    s = k.sin(2.0 * big_omega * t)
    ratio = p.b / big_omega
    return decay * k.sqrt(1.0 + ratio * ratio * s * s), decay * ratio * s


def eigenvalues_closed_form(p: ModelParams, mu: float, t: float) -> Tuple[float, float, float, float]:
    """Closed-form eigenvalues (e1, e2, e3, e4) of the evolved isotropic matrix.

        e1,2 = [1 + mu (1 +- 2 exp(-2at) sqrt(1 + (b/Omega)^2 sin^2(2 Omega t)))]/4
        e3,4 = [1 - mu (1 -+ 2 exp(-2at) (b/Omega) sin(2 Omega t))]/4

    They sum to one identically; e3 and e4 swap roles when sin(2 Omega t)
    changes sign.
    """
    root, signed = _spectrum_entries(p, *time_kernel(t))
    mu = float(mu)
    e1 = 0.25 * (1.0 + mu * (1.0 + 2.0 * root))
    e2 = 0.25 * (1.0 + mu * (1.0 - 2.0 * root))
    e3 = 0.25 * (1.0 - mu * (1.0 - 2.0 * signed))
    e4 = 0.25 * (1.0 - mu * (1.0 + 2.0 * signed))
    return float(e1), float(e2), float(e3), float(e4)


def r4_curve(p: ModelParams, t):
    """Positivity radius R4(t) = 1 + 2 exp(-2at) (b/Omega) sin(2 Omega t)."""
    t, k = time_kernel(t)
    _, signed = _spectrum_entries(p, t, k)
    return k.out(1.0 + 2.0 * signed)


def r4_max(p: ModelParams):
    """Peak of R4(t) and the time t* where it is reached:

        R4 = 1 + 2 exp(-2 a t*) b / sqrt(Omega^2 + a^2),
        t* = (1 / 2 Omega) arcsin(Omega / sqrt(Omega^2 + a^2)).
    """
    big_omega = p.Omega
    hyp = math.sqrt(big_omega * big_omega + p.a * p.a)
    # The ratio equals 1 exactly at a = 0; clamp away rounding overshoot.
    t_star = math.asin(min(1.0, big_omega / hyp)) / (2.0 * big_omega)
    return 1.0 + 2.0 * math.exp(-2.0 * p.a * t_star) * p.b / hyp, t_star


def r1_curve(p: ModelParams, t):
    """Largest-eigenvalue radius R1(t) = 1 + 2 exp(-2at) sqrt(1 + (b/Omega)^2 sin^2).

    Pointwise >= R4(t); the top eigenvalue is e1 = (1 + mu R1(t))/4.
    """
    t, k = time_kernel(t)
    root, _ = _spectrum_entries(p, t, k)
    return k.out(1.0 + 2.0 * root)


def positivity_bound(p: ModelParams) -> float:
    """Largest mu keeping the evolved isotropic family a state forever: 1/R4."""
    peak, _ = r4_max(p)
    return 1.0 / peak


def concurrence_wootters(rho) -> float:
    """Wootters concurrence of a two-qubit state.

    With rho_tilde = (s2 x s2) conj(rho) (s2 x s2) and lambda_i the
    descending square roots of the eigenvalues of rho rho_tilde (clamped at
    zero before the root):

        C(rho) = max(0, lambda_1 - lambda_2 - lambda_3 - lambda_4).
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 state, got shape {rho.shape}")
    if abs(sum(rho.diagonal().tolist()) - 1.0) > 1e-10:
        raise ValueError(f"input must have unit trace, got {np.trace(rho)}")
    w, v = qmat.hermitian_eig(rho)
    if w[-1] < qmat.STATE_EIG_FLOOR:
        raise ValueError(f"input has negative eigenvalue {w[-1]:.3e}: not a state")
    sqrt_rho = (v * np.sqrt(np.maximum(w, 0.0))) @ qmat.dagger(v)
    rho_tilde = _SYSY @ np.conj(rho) @ _SYSY
    # hermitian_eigenvalues symmetrizes the round-off of the product itself.
    product = sqrt_rho @ rho_tilde @ sqrt_rho
    lams = np.sqrt(np.maximum(qmat.hermitian_eigenvalues(product), 0.0))
    return float(max(0.0, lams[0] - lams[1] - lams[2] - lams[3]))


def _concurrence_gap(p: ModelParams, mu: float, t):
    """Signed concurrence mu exp(-2at) sqrt(1 + (b/Omega)^2 sin^2) - (1-mu)/2."""
    root, _ = _spectrum_entries(p, *time_kernel(t))
    return mu * root - (1.0 - mu) / 2.0


def concurrence_closed_form(p: ModelParams, mu: float, t: float) -> float:
    """Closed-form concurrence max(0, c_mu(t)) of the evolved isotropic state.

    Only defined on the physical family, so mu must not exceed the
    positivity bound 1/R4; within it, this agrees with the Wootters
    computation on the explicit matrix.
    """
    mu = float(mu)
    if t < 0.0:
        raise ValueError(f"evolution time must be >= 0, got {t}")
    bound = positivity_bound(p)
    if not (0.0 <= mu <= bound + 1e-12):
        raise ValueError(
            f"mu={mu} is outside the physical range [0, {bound:.12g}]: "
            "the closed form presumes a valid state at all times"
        )
    return float(max(0.0, _concurrence_gap(p, mu, t)))


def concurrence_rate_factor(p: ModelParams, t):
    """Sign factor G(t) of the concurrence time-derivative.

        G(t) = (b^2 sqrt(Omega^2 + a^2) / Omega^2)
               cos(2 Omega t + phi) sin(2 Omega t) - a,
        cos(phi) = Omega / sqrt(Omega^2 + a^2), phi in [0, pi/2).

    d c_mu / dt has the sign of G(t) for every mu > 0.
    """
    t, k = time_kernel(t)
    big_omega = p.Omega
    hyp = math.sqrt(big_omega * big_omega + p.a * p.a)
    phi = math.acos(big_omega / hyp)
    value = (p.b * p.b * hyp / (big_omega * big_omega)) * k.cos(
        2.0 * big_omega * t + phi
    ) * k.sin(2.0 * big_omega * t) - p.a
    return k.out(value)


def rate_factor_max(p: ModelParams):
    """Peak of G(t) and its location t_bar = t*/2:

        max G = (b^2 / 2 Omega^2) (sqrt(Omega^2 + a^2) - a) - a.
    """
    big_omega = p.Omega
    hyp = math.sqrt(big_omega * big_omega + p.a * p.a)
    _, t_star = r4_max(p)
    return (p.b * p.b / (2.0 * big_omega * big_omega)) * (hyp - p.a) - p.a, t_star / 2.0


def can_create_entanglement(p: ModelParams) -> bool:
    """True iff max G > 0, i.e. a^2 < b^4 / (4 omega^2).

    Possible only for non-positive maps (a < b), since omega > b.
    """
    return p.a * p.a < p.b ** 4 / (4.0 * p.omega * p.omega)


def _window_terms(p: ModelParams, t_offset):
    """``(f, g, t)`` of ``window_functions`` with t = t_bar + t_offset."""
    t_offset, k = time_kernel(t_offset)
    big_omega = p.Omega
    hyp = math.sqrt(big_omega * big_omega + p.a * p.a)
    _, t_bar = rate_factor_max(p)
    t = t_bar + t_offset
    s = k.sin(2.0 * big_omega * t)
    ratio = p.b / big_omega
    f = k.exp(-2.0 * p.a * t_offset) * k.sqrt(1.0 + ratio * ratio * s * s) - math.exp(
        -2.0 * p.a * t_bar
    ) * p.b / hyp
    return k.out(f), concurrence_rate_factor(p, t), t


def window_functions(p: ModelParams, t_offset):
    """The three window diagnostics at offset t from the reference time t_bar.

    Returns ``(f, g, headroom)``:

    * ``f > 0``  iff R1(t_bar + t) > R4 (a mu window with growing
      concurrence exists at this instant);
    * ``g = G(t_bar + t) > 0`` iff the concurrence derivative is positive;
    * ``headroom = R1(t_bar + t) - 3``: nonnegative values push the
      corrected mu bound to or below the separability threshold 1/3.
    """
    f, g, t = _window_terms(p, t_offset)
    return f, g, r1_curve(p, t) - 3.0


@dataclass(frozen=True)
class WindowReport:
    """Outcome of the entanglement-creation window scan.

    ``intervals`` holds the maximal offset intervals (relative to
    ``t_bar``) where local concurrence growth occurs on valid states;
    ``mu_upper_corrected`` is the tightened contraction bound that
    excludes them (equal to ``mu_upper_physical`` when no window exists).
    """

    t_bar: float
    intervals: Tuple[Tuple[float, float], ...]
    mu_upper_physical: float
    mu_upper_corrected: float
    kills_all_entanglement: bool


def _bisect_boundary(fn, lo: float, hi: float) -> float:
    """Bisect for the sign change of fn on [lo, hi] down to the refine tol."""
    f_lo = fn(lo)
    while hi - lo > _WINDOW_REFINE_TOL:
        mid = 0.5 * (lo + hi)
        if (fn(mid) > 0.0) == (f_lo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def detect_windows(p: ModelParams, t_max_offset: float | None = None,
                   grid_step: float | None = None) -> WindowReport:
    """Scan for offsets where f > 0 and g > 0 simultaneously.

    A uniform grid over [0, t_max_offset] (defaults: horizon pi/Omega,
    4000 steps) locates the overlap regions, whose endpoints are then
    refined by bisection.  The corrected bound is the reciprocal of the
    largest R1(t_bar + t) over all detected intervals.
    """
    if t_max_offset is None:
        t_max_offset = math.pi / p.Omega
    if grid_step is None:
        grid_step = t_max_offset / _WINDOW_GRID_POINTS
    t_max_offset = float(t_max_offset)
    grid_step = float(grid_step)
    if not (t_max_offset > 0.0 and grid_step > 0.0):
        raise ValueError(f"need positive horizon and step, got {t_max_offset}, {grid_step}")
    n = int(math.ceil(t_max_offset / grid_step))
    if n < 2:
        raise ValueError(f"degenerate window grid: step {grid_step} over horizon {t_max_offset}")

    grid = np.linspace(0.0, t_max_offset, n + 1)
    f, g, _ = _window_terms(p, grid)
    inside = (f > 0.0) & (g > 0.0)

    def overlap(t: float) -> float:
        fv, gv, _ = _window_terms(p, t)
        return min(fv, gv)

    intervals = []
    i = 0
    while i <= n:
        if not inside[i]:
            i += 1
            continue
        j = i
        while j + 1 <= n and inside[j + 1]:
            j += 1
        left = grid[i] if i == 0 else _bisect_boundary(overlap, grid[i - 1], grid[i])
        right = grid[j] if j == n else _bisect_boundary(overlap, grid[j], grid[j + 1])
        intervals.append((float(left), float(right)))
        i = j + 1

    mu_physical = positivity_bound(p)
    _, t_bar = rate_factor_max(p)
    if intervals:
        peak_r1 = 0.0
        for left, right in intervals:
            peak_r1 = max(peak_r1, r1_curve(p, t_bar + left), r1_curve(p, t_bar + right))
            if right - left > 1e-12:
                _, value = maximize_scalar(lambda t: r1_curve(p, t_bar + t), left, right)
                peak_r1 = max(peak_r1, value)
        mu_corrected = 1.0 / peak_r1
    else:
        mu_corrected = mu_physical
    return WindowReport(
        t_bar=t_bar,
        intervals=tuple(intervals),
        mu_upper_physical=mu_physical,
        mu_upper_corrected=mu_corrected,
        kills_all_entanglement=mu_corrected <= SEPARABLE_MU + 1e-12,
    )


def partial_transpose_spectrum_check(p: ModelParams, mu: float, t: float,
                                     tol: float = 1e-10) -> bool:
    """Verify the mu -> -mu spectral symmetry of the partial transpose.

    Partially transposing the evolved isotropic matrix swaps its corner
    entries, so its spectrum must equal the closed-form eigenvalues
    evaluated at -mu.  Compares sorted spectra within ``tol``.
    """
    transposed = qmat.partial_transpose_first(evolve_isotropic(p, mu, t))
    numeric = np.sort(qmat.hermitian_eigenvalues(transposed))
    closed = np.sort(eigenvalues_closed_form(p, -float(mu), t))
    return bool(np.abs(numeric - closed).max() <= tol)
