"""Two-qubit analysis of the locally evolved isotropic family.

One qubit of a maximally entangled pair is slipped (contracted by mu) and
then exposed to the dephasing semigroup while its partner stays inert.  The
resulting matrix family has a closed-form spectrum, a closed-form Wootters
concurrence, and two critical radii:

* ``r4_curve``/``r4_max`` bound mu so the family stays a state at all times;
* ``r1_curve`` enters the largest eigenvalue and the concurrence threshold.

When the rate criterion a^2 < b^4 / (4 omega^2) holds, the concurrence of a
valid state *grows* on certain time windows even though the action is
purely local; ``detect_windows`` finds those windows in closed form, with
the tightened mu bound that excludes them.  All but ``concurrence_wootters``
are closed forms, which the tests and ``qslip verify`` check against the
Jacobi eigensolver (also on the partial transpose), Wootters' algorithm, the
RK4 integrator, the golden-section maximizer or a dense-grid window scan.
Wootters' algorithm runs on the two 2x2 blocks of an X-shaped state in
Python scalars, and takes only such states: every matrix the package builds
is one, since the local map fixes ``1`` and ``s3`` and mixes ``s1`` with
``s2``.

The time-dependent closed forms, and the corners of ``evolve_isotropic``,
take time through one kernel (``qslip._timekernel``), which alone settles
whether a time is a scalar, so each form returns its arithmetic as it is: a
scalar time (a 0-d array included) runs on Python floats and gives a
``float`` bit-identical to the matching element of the array path, NaN
included (the decay factor exp(-2at) still comes from ``np.exp``; that
module says why).  The rate factor's peak G_max and its amplitude are
constants of the rates, cached on ``ModelParams``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import qmat
from ._timekernel import ARRAY, time_kernel
from .semigroup import ModelParams
from .slippage import checked_mu

# Spectrum floor for "is still a state" checks on the evolved family.
ISOTROPIC_EIG_FLOOR = -1e-12
# A corrected bound at or below this kills every entangled isotropic state.
SEPARABLE_MU = 1.0 / 3.0

# Cap on the periods pi/(2 Omega) one window scan may span (windows recur at a = 0).
MAX_WINDOW_PERIODS = 10**6


def isotropic(mu: float) -> np.ndarray:
    """Isotropic 4x4 state (1-mu)/4 * identity + mu * projector.

    Entangled exactly when mu > 1/3.
    """
    mu = checked_mu(mu)
    m = np.diag([1.0 + mu, 1.0 - mu, 1.0 - mu, 1.0 + mu]).astype(complex)
    m[0, 3] = m[3, 0] = 2.0 * mu
    return m / 4.0


def evolve_isotropic(p: ModelParams, mu: float, t: float) -> np.ndarray:
    """Explicit matrix of the isotropic state after local evolution for t >= 0.

    Diagonal (1+mu, 1-mu, 1-mu, 1+mu)/4 with complex corners 2*mu*B_t
    (outer) and 2*mu*C_t (inner) from the analytically propagated Pauli
    images; at t = 0 this is ``isotropic(mu)``.
    """
    mu = checked_mu(mu)
    t, k = time_kernel(t)
    if k is ARRAY:
        raise ValueError(f"evolve_isotropic takes one scalar time, got shape {t.shape}")
    big_omega = p.Omega
    decay = k.exp(-2.0 * p.a * t)
    s = k.sin(2.0 * big_omega * t)
    outer = 2.0 * mu * (decay * (k.cos(2.0 * big_omega * t) - 1j * (p.omega / big_omega) * s))
    inner = 2.0 * mu * (1j * (p.b / big_omega) * decay * s)
    # Divided entry by entry as numpy's m / 4.0 would divide them.
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = (1.0 + mu) / 4.0
    m[1, 1] = m[2, 2] = (1.0 - mu) / 4.0
    m[0, 3], m[3, 0] = outer / 4.0, outer.conjugate() / 4.0
    m[1, 2], m[2, 1] = inner / 4.0, inner.conjugate() / 4.0
    return m


def _spectrum_entries(p: ModelParams, t, k):
    """Decay-weighted spectral ingredients: exp(-2at)*sqrt(1+(b/Omega)^2 s^2)
    and exp(-2at)*(b/Omega)*s with s = sin(2 Omega t), for ``t, k = time_kernel(t)``.

    ``r4_curve`` writes the signed term out again, in the same order of
    operations, to skip the square root it does not use.  Going through this
    function costs R4 about a third more on an array (15.8 -> 20.8 us on the
    golden-section maximizer's 1000-point grid) and 0.16 us on each of the
    some 50 floats of its search (timeit, ``ModelParams(0.1, 0.9)``); a
    change to either formula changes both places.
    """
    big_omega = p.Omega
    decay = k.exp(-2.0 * p.a * t)
    s = k.sin(2.0 * big_omega * t)
    ratio = p.b / big_omega
    return decay * k.sqrt(1.0 + ratio * ratio * s * s), decay * ratio * s


def eigenvalues_closed_form(p: ModelParams, mu: float, t):
    """Closed-form eigenvalues (e1, e2, e3, e4) of the evolved isotropic matrix.

        e1,2 = [1 + mu (1 +- 2 exp(-2at) sqrt(1 + (b/Omega)^2 sin^2(2 Omega t)))]/4
        e3,4 = [1 - mu (1 -+ 2 exp(-2at) (b/Omega) sin(2 Omega t))]/4

    They sum to one identically; e3 and e4 swap roles when sin(2 Omega t)
    changes sign.  A scalar t gives four floats, an array t four arrays.
    """
    t, k = time_kernel(t)
    mu = float(mu)
    root, signed = _spectrum_entries(p, t, k)
    return (0.25 * (1.0 + mu * (1.0 + 2.0 * root)),
            0.25 * (1.0 + mu * (1.0 - 2.0 * root)),
            0.25 * (1.0 - mu * (1.0 - 2.0 * signed)),
            0.25 * (1.0 - mu * (1.0 + 2.0 * signed)))


def r4_curve(p: ModelParams, t):
    """Positivity radius R4(t) = 1 + 2 exp(-2at) (b/Omega) sin(2 Omega t)."""
    t, k = time_kernel(t)
    big_omega = p.Omega
    # The signed term of _spectrum_entries alone, in its order of operations:
    # keep the two in step.
    signed = k.exp(-2.0 * p.a * t) * (p.b / big_omega) * k.sin(2.0 * big_omega * t)
    return 1.0 + 2.0 * signed


def r4_max(p: ModelParams):
    """Peak of R4(t) and the time t* where it is reached (``p.R4``, ``p.t_star``):

        R4 = 1 + 2 exp(-2 a t*) b / sqrt(Omega^2 + a^2),
        t* = (1 / 2 Omega) arcsin(Omega / sqrt(Omega^2 + a^2)).
    """
    return p.R4, p.t_star


def r1_curve(p: ModelParams, t):
    """Largest-eigenvalue radius R1(t) = 1 + 2 exp(-2at) sqrt(1 + (b/Omega)^2 sin^2).

    Pointwise >= R4(t); the top eigenvalue is e1 = (1 + mu R1(t))/4.
    """
    t, k = time_kernel(t)
    root, _ = _spectrum_entries(p, t, k)
    return 1.0 + 2.0 * root


def positivity_bound(p: ModelParams) -> float:
    """Largest mu keeping the evolved isotropic family a state forever: 1/R4."""
    return 1.0 / p.R4


def _matmul2(x: tuple, y: tuple) -> tuple:
    """Product of two 2x2 matrices held as row-major 4-tuples."""
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


def concurrence_wootters(rho) -> float:
    """Wootters concurrence of an X-shaped two-qubit state.

    With rho_tilde = (s2 x s2) conj(rho) (s2 x s2) and lambda_i the
    descending square roots of the eigenvalues of R = sqrt(rho) rho_tilde
    sqrt(rho) (clamped at zero before the root):

        C(rho) = max(0, lambda_1 - lambda_2 - lambda_3 - lambda_4).

    rho must be X-shaped, with exact zeros off its blocks {0, 3} and
    {1, 2}, as every matrix the package builds is; it runs on those blocks
    in Python scalars, where sqrt(rho), rho_tilde and R are X-shaped too.
    Any other input raises ``ValueError``.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 state, got shape {rho.shape}")
    rows = rho.tolist()
    if abs(rows[0][0] + rows[1][1] + rows[2][2] + rows[3][3] - 1.0) > 1e-10:
        raise ValueError(f"input must have unit trace, got {np.trace(rho)}")
    blocks = qmat.hermitian_x_eig(rows, vectors=True)
    if blocks is None:
        raise ValueError("input is not X-shaped: nonzero entries off the blocks {0, 3} and {1, 2}")
    w, v = blocks  # v: eigenvector rows
    if min(w) < qmat.STATE_EIG_FLOOR:
        raise ValueError(f"input has negative eigenvalue {min(w):.3e}: not a state")
    r_blocks = []
    for p, q in ((0, 3), (1, 2)):
        app, apq, aqp, aqq = rows[p][p], rows[p][q], rows[q][p], rows[q][q]
        # Eigenvector columns (up, uq) of w[p] and (vp, vq) of w[q].
        up, uq, vp, vq = v[p][p], v[p][q], v[q][p], v[q][q]
        rp, rq = math.sqrt(max(w[p], 0.0)), math.sqrt(max(w[q], 0.0))
        root = _matmul2((up * rp, vp * rq, uq * rp, vq * rq),
                        (up.conjugate(), uq.conjugate(), vp.conjugate(), vq.conjugate()))
        # rho_tilde holds each block with its diagonal swapped, conjugated.
        tilde = (aqq.conjugate(), aqp.conjugate(), apq.conjugate(), app.conjugate())
        r_blocks.append(_matmul2(_matmul2(root, tilde), root))
    (r00, r03, r30, r33), (r11, r12, r21, r22) = r_blocks
    eigs = qmat.hermitian_x_eig([[r00, 0j, 0j, r03], [0j, r11, r12, 0j],
                                 [0j, r21, r22, 0j], [r30, 0j, 0j, r33]])[0]
    l1, l2, l3, l4 = sorted([math.sqrt(max(e, 0.0)) for e in eigs], reverse=True)
    return float(max(0.0, l1 - l2 - l3 - l4))


def concurrence_closed_form(p: ModelParams, mu: float, t: float) -> float:
    """Closed-form concurrence max(0, c_mu(t)) of the evolved isotropic state.

    Only defined on the physical family, so mu must not exceed the
    positivity bound 1/R4; within it, this agrees with the Wootters
    computation on the explicit matrix.
    """
    t, k = time_kernel(t)
    mu = float(mu)
    bound = positivity_bound(p)
    if not (0.0 <= mu <= bound + 1e-12 and mu <= 1.0):
        raise ValueError(
            f"mu={mu} is outside the physical range [0, {bound:.12g}]: "
            "the closed form presumes a valid state at all times"
        )
    root, _ = _spectrum_entries(p, t, k)
    return float(max(0.0, mu * root - (1.0 - mu) / 2.0))


def concurrence_curve(p: ModelParams, mu: float, t):
    """Closed-form concurrence of the evolved isotropic matrix at any mu in [0, 1].

    ``max(0, c_mu(t))`` with c_mu(t) = mu exp(-2at) sqrt(1 + (b/Omega)^2
    sin^2(2 Omega t)) - (1 - mu)/2 where the matrix is a state, and NaN
    where its smallest closed-form eigenvalue is below
    ``ISOTROPIC_EIG_FLOOR`` (possible only for mu > 1/R4).  That eigenvalue
    is min(e3, e4) = [1 - mu (1 + 2 exp(-2at) (b/Omega) |sin(2 Omega t)|)]/4:
    e1 >= 1/4, and e2 >= min(e3, e4) since exp(-2at) <= 1.  Takes a scalar
    or an array t.
    """
    mu = checked_mu(mu)
    t, k = time_kernel(t)
    root, signed = _spectrum_entries(p, t, k)
    gap = mu * root - (1.0 - mu) / 2.0
    low = 0.25 * (1.0 - mu * (1.0 + 2.0 * abs(signed)))
    if k is ARRAY:
        return np.where(low < ISOTROPIC_EIG_FLOOR, np.nan, np.maximum(0.0, gap))
    return math.nan if low < ISOTROPIC_EIG_FLOOR else max(gap, 0.0)  # max keeps a NaN gap


def _rate_factor_at_offset(p: ModelParams, t_offset, k):
    """G(t_bar + t_offset) for ``t_offset, k = time_kernel(...)``."""
    s = k.sin(2.0 * p.Omega * t_offset)
    return p.G_max - p.G_amplitude * (s * s)


def concurrence_rate_factor(p: ModelParams, t):
    """Sign factor G(t) of the concurrence time-derivative.

        G(t) = (b^2 hyp / Omega^2) cos(2 Omega t + phi) sin(2 Omega t) - a
             = G_max - (b^2 hyp / Omega^2) sin^2(2 Omega (t - t_bar)),

    with hyp = sqrt(Omega^2 + a^2), cos(phi) = Omega / hyp, and G_max and the
    amplitude b^2 hyp / Omega^2 cached on ``ModelParams`` (``p.G_max``,
    ``p.G_amplitude``); the second form keeps the sign of G where
    it is a small difference of large terms, near the creation threshold.
    d c_mu / dt has the sign of G(t) for every mu > 0.  The first form is
    ``qslip.oracle.rate_factor_product_form``, the tests' reference.
    """
    t, k = time_kernel(t)
    return _rate_factor_at_offset(p, t - p.t_bar, k)


def rate_factor_max(p: ModelParams):
    """Peak of G(t) and its location t_bar = t*/2 (``p.G_max``, ``p.t_bar``):

        max G = (b^2 / 2 Omega^2) (sqrt(Omega^2 + a^2) - a) - a.
    """
    return p.G_max, p.t_bar


def can_create_entanglement(p: ModelParams) -> bool:
    """True iff max G > 0, i.e. a^2 < b^4 / (4 omega^2), tested as 2 a omega < b^2:

    b^2 is finite wherever ModelParams admits omega, and an infinite 2 a omega
    reads as no creation.  Possible only for non-positive maps (a < b), since omega > b.
    """
    return 2.0 * p.a * p.omega < p.b * p.b


def _window_terms(p: ModelParams, t_offset, k):
    """f of ``window_functions`` and sqrt(1 + (b/Omega)^2 sin^2(2 Omega (t_bar + t_offset))),
    the factor it shares with R1(t_bar + t_offset), for ``t_offset, k = time_kernel(...)``."""
    t_bar = p.t_bar
    s = k.sin(2.0 * p.Omega * (t_bar + t_offset))
    ratio = p.b / p.Omega
    root = k.sqrt(1.0 + ratio * ratio * s * s)
    return k.exp(-2.0 * p.a * t_offset) * root - math.exp(-2.0 * p.a * t_bar) * p.b / p.hyp, root


def window_functions(p: ModelParams, t_offset):
    """The three window diagnostics at offset t from the reference time t_bar.

    Returns ``(f, g, headroom)``:

    * ``f > 0``  iff R1(t_bar + t) > R4 (a mu window with growing
      concurrence exists at this instant);
    * ``g = G(t_bar + t) > 0`` iff the concurrence derivative is positive;
    * ``headroom = R1(t_bar + t) - 3``: nonnegative values push the
      corrected mu bound to or below the separability threshold 1/3.
    """
    t_offset, k = time_kernel(t_offset)
    f, root = _window_terms(p, t_offset, k)
    r1 = 1.0 + 2.0 * (k.exp(-2.0 * p.a * (p.t_bar + t_offset)) * root)  # as r1_curve forms it
    return f, _rate_factor_at_offset(p, t_offset, k), r1 - 3.0


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


def _first_positive(fn, lo: float, hi: float) -> float:
    """Bisect an increasing fn, fn(lo) <= 0 < fn(hi), down to adjacent floats."""
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if fn(mid) > 0.0:
            hi = mid
        else:
            lo = mid


def detect_windows(p: ModelParams, t_max_offset: float | None = None) -> WindowReport:
    """Offsets t in [0, t_max_offset] (default pi/Omega) where f > 0 and g > 0.

    Closed form: G(t_bar + t) = G_max - (b^2 hyp / Omega^2) sin^2(2 Omega t)
    (see ``concurrence_rate_factor``; G_max is ``p.G_max``), so under the
    creation criterion G_max > 0, G > 0 exactly on |t - k pi/(2 Omega)| <
    half = asin(sqrt(G_max Omega^2 / (b^2 hyp))) / (2 Omega).  dR1/dt has
    the sign of G and f > 0 iff R1 > R4, so f rises on each such interval: a
    window runs from its G zero, or the one zero of f (bisected to adjacent
    floats), to the other G zero or the horizon, and R1 peaks at its right
    end.  R1 - 1 at the right ends falls by exp(-2a pi/(2 Omega)) per period,
    and a later window can only be clipped shorter by the horizon, so the
    first window's right end sets mu_upper_corrected = 1 / R1(t_bar + right)
    and the scan stops at the first right end with f <= 0.  At a = 0 windows recur every period, and a
    horizon over ``MAX_WINDOW_PERIODS`` periods raises ``ValueError``; so do
    creating rates whose G_max overflows (b above about 1.2e77).
    """
    big_omega = p.Omega
    period = math.pi / (2.0 * big_omega)
    t_max_offset = math.pi / big_omega if t_max_offset is None else float(t_max_offset)
    if not t_max_offset > 0.0:
        raise ValueError(f"need a positive window horizon, got {t_max_offset}")
    if not t_max_offset / period <= MAX_WINDOW_PERIODS:
        raise ValueError(f"window horizon {t_max_offset} spans more than "
                         f"{MAX_WINDOW_PERIODS} periods pi/(2 Omega) = {period}")

    def f(t: float) -> float:
        return _window_terms(p, *time_kernel(t))[0]

    half = 0.0
    if can_create_entanglement(p):  # the ratio below divides by b
        g_max = p.G_max
        if not math.isfinite(g_max):
            raise ValueError(f"a={p.a}, b={p.b}, omega={p.omega} give G_max={g_max}, not finite")
        ratio = max(g_max, 0.0) * big_omega * big_omega / (p.b * p.b * p.hyp)
        half = math.asin(math.sqrt(ratio)) / (2.0 * big_omega)
    intervals = []
    k = 0
    while half > 0.0 and k * period - half < t_max_offset:
        left = max(k * period - half, 0.0)
        right = min(k * period + half, t_max_offset)
        k += 1
        if not f(right) > 0.0:
            break
        intervals.append((left if f(left) > 0.0 else _first_positive(f, left, right), right))

    mu_physical = positivity_bound(p)
    mu_corrected = 1.0 / r1_curve(p, p.t_bar + intervals[0][1]) if intervals else mu_physical
    return WindowReport(t_bar=p.t_bar, intervals=tuple(intervals), mu_upper_physical=mu_physical,
                        mu_upper_corrected=mu_corrected,
                        kills_all_entanglement=mu_corrected <= SEPARABLE_MU + 1e-12)

