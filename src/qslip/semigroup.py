"""Single-qubit dephasing semigroup with a possibly non-positive generator.

The model is a qubit precessing about the 3-axis at frequency ``omega``
while a stochastic transverse environment feeds in damping ``a`` on the
equatorial Bloch components and an off-diagonal rate ``b`` that couples
them.  On Bloch vectors the equation of motion is ``dr/dt = -2 L r`` with

    L = [[a, b + omega, 0],
         [b - omega, a, 0],
         [0, 0, 0]],

and the propagated components are, with ``Omega = sqrt(omega^2 - b^2)``,

    r1(t) = exp(-2at) [ r1 cos(2 Omega t) - r2 (omega+b)/Omega sin(2 Omega t) ]
    r2(t) = exp(-2at) [ r1 (omega-b)/Omega sin(2 Omega t) + r2 cos(2 Omega t) ]
    r3(t) = r3 .

Depending on (a, b) the maps are completely positive (b = 0), positive but
not completely positive (a >= b > 0), or not even positive (a < b): in the
last case Bloch vectors can leave the unit ball, with peak radius given by
``norm_bound_max``.  A converter from raw stochastic-field constants to the
model rates is included.

``bloch_propagator``, ``norm_bound_curve`` and ``bloch_trajectory`` take
time through one scalar-or-array kernel (``qslip._timekernel``, which
rejects a time that is not finite and >= 0, and says how its scalar path
stays bit-identical to the array path).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import qmat
from ._timekernel import time_kernel


@dataclass(frozen=True)
class ModelParams:
    """Rates ``(a, b, omega)`` of the dephasing generator.

    The one way rates enter the package.  Requires ``a >= 0``, ``b >= 0``
    and ``omega > b`` so the rotation frequency ``Omega = sqrt(omega^2 -
    b^2)`` is real and positive; the overdamped branch ``omega <= b`` is
    rejected rather than analytically continued.  ``b = 0`` is admitted: it
    is the completely positive branch.

    The derived constants are cached properties, computed once per instance:
    ``Omega``; ``hyp = sqrt(Omega^2 + a^2)``; the time ``t_star`` and value
    ``R4`` of the positivity radius peak; ``t_bar = t_star / 2``, where the
    rate factor G of ``qslip.bipartite`` peaks; G's peak ``G_max`` and its
    amplitude ``G_amplitude``.
    """

    a: float
    b: float
    omega: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        object.__setattr__(self, "omega", float(self.omega))
        if not (math.isfinite(self.a) and math.isfinite(self.b) and math.isfinite(self.omega)):
            raise ValueError("model parameters must be finite")
        if self.a < 0.0:
            raise ValueError(f"damping rate a must be >= 0, got {self.a}")
        if self.b < 0.0:
            raise ValueError(f"off-diagonal rate b must be >= 0, got {self.b}")
        if self.omega <= self.b:
            raise ValueError(
                f"omega must exceed b for a real rotation frequency, got omega={self.omega}, b={self.b}"
            )
        if not 0.0 < self.Omega < math.inf:  # omega * omega over- or underflows
            raise ValueError(f"omega={self.omega}, b={self.b} give Omega={self.Omega}, not finite and > 0")

    # Cached: the closed forms read these several times per scalar call.
    @cached_property
    def Omega(self) -> float:
        """Effective rotation frequency sqrt(omega^2 - b^2)."""
        return math.sqrt(self.omega * self.omega - self.b * self.b)

    @cached_property
    def hyp(self) -> float:
        """sqrt(Omega^2 + a^2)."""
        return math.sqrt(self.Omega * self.Omega + self.a * self.a)

    @cached_property
    def t_star(self) -> float:
        """Time (1 / 2 Omega) arcsin(Omega / hyp) of the positivity radius peak.

        Taken as atan2(Omega, a) / (2 Omega): arcsin near 1 loses digits as
        a / Omega -> 0.
        """
        return math.atan2(self.Omega, self.a) / (2.0 * self.Omega)

    @cached_property
    def R4(self) -> float:
        """Peak positivity radius 1 + 2 exp(-2 a t_star) b / hyp (1 at b = 0)."""
        return 1.0 + 2.0 * math.exp(-2.0 * self.a * self.t_star) * self.b / self.hyp

    @cached_property
    def t_bar(self) -> float:
        """Time t_star / 2 where the rate factor G peaks."""
        return self.t_star / 2.0

    @cached_property
    def G_max(self) -> float:
        """Peak b^2 / (2 (hyp + a)) - a of the rate factor G, taken without
        cancellation near the creation threshold b^2 = 2 a omega as (b^2 - 2 a
        omega)(b^2 + 2 a omega) / (2 (hyp + a)(b^2 - 2 a^2 + 2 a hyp)); the last
        factor is >= b^2 > 0.  It is -a where b^2 rounds to 0 (b = 0, or b below
        about 1.5e-162)."""
        a, b2, hyp, two_a_omega = self.a, self.b * self.b, self.hyp, 2.0 * self.a * self.omega
        if b2 == 0.0:
            return -a
        return ((b2 - two_a_omega) * (b2 + two_a_omega)
                / (2.0 * (hyp + a) * (b2 - 2.0 * a * a + 2.0 * a * hyp)))

    @cached_property
    def G_amplitude(self) -> float:
        """Amplitude b^2 hyp / Omega^2 of G's oscillation: G = G_max - G_amplitude sin^2(...)."""
        return self.b * self.b * self.hyp / (self.Omega * self.Omega)


@dataclass(frozen=True)
class BlochVector:
    """Real 3-vector r identifying a qubit matrix via rho = (1 + r.sigma)/2.

    Components must be finite, but the norm is not bounded: the dynamics
    studied here can push vectors outside the unit ball, and representing
    that is the whole point.
    """

    r1: float
    r2: float
    r3: float

    def __post_init__(self):
        object.__setattr__(self, "r1", float(self.r1))
        object.__setattr__(self, "r2", float(self.r2))
        object.__setattr__(self, "r3", float(self.r3))
        if not (math.isfinite(self.r1) and math.isfinite(self.r2) and math.isfinite(self.r3)):
            raise ValueError("Bloch vector components must be finite")

    def to_density_matrix(self) -> np.ndarray:
        return 0.5 * (
            qmat.IDENTITY_2
            + self.r1 * qmat.PAULI_1
            + self.r2 * qmat.PAULI_2
            + self.r3 * qmat.PAULI_3
        )


class Classification(Enum):
    """Positivity class of the map family determined by (a, b)."""

    COMPLETELY_POSITIVE = "CompletelyPositive"
    POSITIVE_NOT_CP = "PositiveNotCP"
    NON_POSITIVE = "NonPositive"


@dataclass(frozen=True)
class StochasticFieldParams:
    """Constants of the stochastic magnetic field driving the qubit.

    ``g1 > g2 > 0`` and ``g3 > 0`` are the noise strengths, ``lam`` the
    transverse and ``lam3`` the longitudinal correlation rates, and
    ``omega_tilde`` the bare precession frequency.
    """

    g1: float
    g2: float
    g3: float
    lam: float
    lam3: float
    omega_tilde: float

    def __post_init__(self):
        for name in ("g1", "g2", "g3", "lam", "lam3", "omega_tilde"):
            value = float(getattr(self, name))
            object.__setattr__(self, name, value)
            if not math.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if self.g1 <= self.g2:
            raise ValueError(f"g1 must exceed g2, got g1={self.g1}, g2={self.g2}")


class DerivedRates(NamedTuple):
    """Model rates produced by ``derive_params``; ``b_raw`` keeps its sign."""

    omega: float
    alpha1: float
    alpha2: float
    a: float
    b_raw: float


def derive_params(s: StochasticFieldParams) -> DerivedRates:
    """Reduce stochastic-field constants to the semigroup rates.

    With ``den = lam^2 + 4 omega_tilde^2``:

        omega  = omega_tilde (1 + 2 (g1 + g2) / den)
        alpha_i = 2 g_i lam / den          (computed but dropped from the
                                            dynamics, being << a and |b|)
        a      = 2 g3 / lam3
        b_raw  = 2 omega_tilde (g2 - g1) / den

    ``b_raw`` is negative under ``g1 > g2``; callers building ModelParams
    use ``abs(b_raw)`` since the dynamics depend on b only through b^2 and
    b*sin products with the b >= 0 convention.
    """
    den = s.lam * s.lam + 4.0 * s.omega_tilde * s.omega_tilde
    return DerivedRates(
        omega=s.omega_tilde * (1.0 + 2.0 * (s.g1 + s.g2) / den),
        alpha1=2.0 * s.g1 * s.lam / den,
        alpha2=2.0 * s.g2 * s.lam / den,
        a=2.0 * s.g3 / s.lam3,
        b_raw=2.0 * s.omega_tilde * (s.g2 - s.g1) / den,
    )


def classify(p: ModelParams) -> Classification:
    """Positivity class from (a, b): CP iff b = 0, positive iff a >= b (that is
    a^2 >= b^2, tested without the squares, which underflow below 1.5e-162)."""
    if p.b == 0.0:
        return Classification.COMPLETELY_POSITIVE
    if p.a >= p.b:
        return Classification.POSITIVE_NOT_CP
    return Classification.NON_POSITIVE


def bloch_propagator(p: ModelParams, t: float) -> np.ndarray:
    """Analytic 3x3 Bloch propagator exp(-2 t L) of the model at a scalar time t."""
    t, k = time_kernel(t)
    big_omega = p.Omega
    decay = k.exp(-2.0 * p.a * t)
    c = k.cos(2.0 * big_omega * t)
    s = k.sin(2.0 * big_omega * t)
    return np.array(
        [
            [decay * c, -decay * (p.omega + p.b) / big_omega * s, 0.0],
            [decay * (p.omega - p.b) / big_omega * s, decay * c, 0.0],
            [0.0, 0.0, 1.0],
        ]
    )


def bloch_trajectory(p: ModelParams, r: BlochVector, times) -> np.ndarray:
    """Closed-form trajectory sampled at an array of times >= 0, shape (n, 3)."""
    times, _ = time_kernel(np.asarray(times, dtype=float))
    big_omega = p.Omega
    decay = np.exp(-2.0 * p.a * times)
    c = np.cos(2.0 * big_omega * times)
    s = np.sin(2.0 * big_omega * times)
    r1 = decay * (r.r1 * c - r.r2 * (p.omega + p.b) / big_omega * s)
    r2 = decay * (r.r1 * (p.omega - p.b) / big_omega * s + r.r2 * c)
    return np.stack([r1, r2, np.full_like(r1, r.r3)], axis=-1)


def norm_bound_curve(p: ModelParams, t):
    """Squared peak Bloch radius R^2(t) reachable from the unit ball at time t.

    Equals the largest eigenvalue of the 1-2 block of G_t^T G_t:

        R^2(t) = exp(-4at) ( (b/Omega)|sin(2 t Omega)|
                             + sqrt(1 + (b/Omega)^2 sin^2(2 t Omega)) )^2 .
    """
    t, k = time_kernel(t)
    big_omega = p.Omega
    s = k.sin(2.0 * t * big_omega)
    ratio = p.b / big_omega
    peak = ratio * abs(s) + k.sqrt(1.0 + ratio * ratio * s * s)
    return k.out(k.exp(-4.0 * p.a * t) * (peak * peak))


def norm_bound_max(p: ModelParams):
    """Peak radius R = max_t R(t) and the time t' where it is reached.

    For a < b (non-positive maps):

        R  = exp(-2 a t') sqrt( (omega + sqrt(b^2 - a^2))
                              / (omega - sqrt(b^2 - a^2)) )
        t' = (1 / 2 Omega) arcsin( (Omega/b) sqrt((b^2 - a^2)/(Omega^2 + a^2)) )
           = (1 / 2 Omega) atan2(Omega sqrt(b^2 - a^2), a omega)

    (the atan2 form keeps the digits that arcsin loses near 1).  R > 1
    exactly, but the float R is good to a few ulps, so near a = b, where
    R - 1 ~ (b^2 - a^2)^(3/2) hyp^2 / (3 a^2 omega^3), R - 1 keeps a relative
    accuracy of only about eps / (R - 1); R is clamped at R(0) = 1, a lower
    bound of the peak.  Positive maps never leave the ball, so for a >= b
    the pair (1.0, 0.0) is returned, as it is where b^2 - a^2 underflows.
    """
    if p.a >= p.b:
        return 1.0, 0.0
    big_omega = p.Omega
    root = math.sqrt(p.b * p.b - p.a * p.a)
    t_prime = math.atan2(big_omega * root, p.a * p.omega) / (2.0 * big_omega)
    radius = math.exp(-2.0 * p.a * t_prime) * math.sqrt((p.omega + root) / (p.omega - root))
    return max(radius, 1.0), t_prime
