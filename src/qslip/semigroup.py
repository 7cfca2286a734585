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

``propagate``/``bloch_trajectory`` and ``norm_bound_curve`` evaluate time
through one scalar-or-array kernel (``qslip._timekernel``, which says how
its scalar path stays bit-identical to the array path);
``bloch_propagator``, which builds one matrix at a time, keeps ``math.exp``.
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

    Requires ``a >= 0``, ``b > 0`` and ``omega > b`` so the rotation
    frequency ``Omega = sqrt(omega^2 - b^2)`` is real and positive; the
    overdamped branch ``omega <= b`` is rejected rather than analytically
    continued.  The degenerate ``b = 0`` maps are handled by ``classify``,
    which accepts raw floats.
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
        if self.b <= 0.0:
            raise ValueError(f"off-diagonal rate b must be > 0, got {self.b}")
        if self.omega <= self.b:
            raise ValueError(
                f"omega must exceed b for a real rotation frequency, got omega={self.omega}, b={self.b}"
            )
        if not 0.0 < self.Omega < math.inf:  # omega * omega over- or underflows
            raise ValueError(f"omega={self.omega}, b={self.b} give Omega={self.Omega}, not finite and > 0")

    # Cached: the closed forms read it several times per scalar call.
    @cached_property
    def Omega(self) -> float:
        """Effective rotation frequency sqrt(omega^2 - b^2)."""
        return math.sqrt(self.omega * self.omega - self.b * self.b)


@dataclass(frozen=True)
class BlochVector:
    """Real 3-vector r identifying a qubit matrix via rho = (1 + r.sigma)/2.

    Components must be finite, but the norm is not bounded: the dynamics
    studied here can push vectors outside the unit ball, and representing
    that is the whole point.  Call ``require_state`` where a state is needed.
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

    def as_array(self) -> np.ndarray:
        return np.array([self.r1, self.r2, self.r3])

    def norm_squared(self) -> float:
        return self.r1 * self.r1 + self.r2 * self.r2 + self.r3 * self.r3

    def norm(self) -> float:
        return math.sqrt(self.norm_squared())

    def require_state(self, tol: float = 1e-12) -> "BlochVector":
        """Raise unless the vector lies in the closed unit ball (within tol)."""
        if self.norm() > 1.0 + tol:
            raise ValueError(f"Bloch vector of norm {self.norm():.12g} is not a state")
        return self

    @classmethod
    def from_array(cls, arr) -> "BlochVector":
        r1, r2, r3 = np.asarray(arr, dtype=float)
        return cls(r1, r2, r3)

    @classmethod
    def from_density_matrix(cls, rho) -> "BlochVector":
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (2, 2):
            raise ValueError(f"expected a 2x2 density matrix, got shape {rho.shape}")
        return cls(
            2.0 * rho[0, 1].real,
            -2.0 * rho[0, 1].imag,
            2.0 * rho[0, 0].real - 1.0,
        )

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
    b*sin products with the b > 0 convention.
    """
    den = s.lam * s.lam + 4.0 * s.omega_tilde * s.omega_tilde
    return DerivedRates(
        omega=s.omega_tilde * (1.0 + 2.0 * (s.g1 + s.g2) / den),
        alpha1=2.0 * s.g1 * s.lam / den,
        alpha2=2.0 * s.g2 * s.lam / den,
        a=2.0 * s.g3 / s.lam3,
        b_raw=2.0 * s.omega_tilde * (s.g2 - s.g1) / den,
    )


def generator(p: ModelParams) -> np.ndarray:
    """The 3x3 Bloch generator L = H + D (dr/dt = -2 L r)."""
    return np.array(
        [
            [p.a, p.b + p.omega, 0.0],
            [p.b - p.omega, p.a, 0.0],
            [0.0, 0.0, 0.0],
        ]
    )


def generator_split(p: ModelParams):
    """Antisymmetric (Hamiltonian) and symmetric (dissipative) parts of L."""
    h = np.array([[0.0, p.omega, 0.0], [-p.omega, 0.0, 0.0], [0.0, 0.0, 0.0]])
    d = np.array([[p.a, p.b, 0.0], [p.b, p.a, 0.0], [0.0, 0.0, 0.0]])
    return h, d


def as_rates(params, b: float | None = None, omega: float | None = None):
    """Coerce a ModelParams or raw floats to a validated (a, b, omega) triple.

    The raw path admits b = 0 (any 0 <= b < omega), which the ModelParams
    constructor rejects; several consumers need the completely positive
    branch.  A negative b is rejected as in ModelParams: the sign convention
    is b >= 0 (``derive_params`` users take ``abs(b_raw)``).
    """
    if isinstance(params, ModelParams):
        if b is not None or omega is not None:
            raise ValueError("pass either a ModelParams or raw floats, not both")
        return params.a, params.b, params.omega
    a = float(params)
    if b is None:
        raise ValueError("b is required when passing raw floats")
    b = float(b)
    omega = 1.0 if omega is None else float(omega)
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(omega)):
        raise ValueError("model parameters must be finite")
    if a < 0.0:
        raise ValueError(f"damping rate a must be >= 0, got {a}")
    if b < 0.0:
        raise ValueError(f"off-diagonal rate b must be >= 0, got {b}")
    if omega <= b:
        raise ValueError(f"omega must exceed b, got omega={omega}, b={b}")
    return a, b, omega


def classify(params, b: float | None = None, omega: float | None = None) -> Classification:
    """Positivity class from (a, b): CP iff b = 0, positive iff a^2 >= b^2.

    Accepts either a ModelParams or raw floats (the raw path admits b = 0).
    """
    a, b_val, _ = as_rates(params, b, omega)
    if b_val == 0.0:
        return Classification.COMPLETELY_POSITIVE
    if a * a >= b_val * b_val:
        return Classification.POSITIVE_NOT_CP
    return Classification.NON_POSITIVE


def bloch_propagator(a: float, b: float, omega: float, t: float) -> np.ndarray:
    """Analytic 3x3 Bloch propagator exp(-2 t L) for raw rates.

    Accepts b = 0 (the ratios (omega +- b)/Omega stay finite there), which
    the ModelParams constructor excludes.
    """
    if omega <= abs(b):
        raise ValueError(f"omega must exceed |b|, got omega={omega}, b={b}")
    big_omega = math.sqrt(omega * omega - b * b)
    decay = math.exp(-2.0 * a * t)
    c = math.cos(2.0 * big_omega * t)
    s = math.sin(2.0 * big_omega * t)
    return np.array(
        [
            [decay * c, -decay * (omega + b) / big_omega * s, 0.0],
            [decay * (omega - b) / big_omega * s, decay * c, 0.0],
            [0.0, 0.0, 1.0],
        ]
    )


def propagator_matrix(p: ModelParams, t: float) -> np.ndarray:
    """Analytic Bloch propagator of the model at time t."""
    return bloch_propagator(p.a, p.b, p.omega, t)


def _bloch_components(p: ModelParams, r: BlochVector, t):
    """Propagated (r1, r2) at t; r3 is constant."""
    t, k = time_kernel(t)
    big_omega = p.Omega
    decay = k.exp(-2.0 * p.a * t)
    c = k.cos(2.0 * big_omega * t)
    s = k.sin(2.0 * big_omega * t)
    r1 = decay * (r.r1 * c - r.r2 * (p.omega + p.b) / big_omega * s)
    r2 = decay * (r.r1 * (p.omega - p.b) / big_omega * s + r.r2 * c)
    return r1, r2


def propagate(p: ModelParams, r: BlochVector, t: float) -> BlochVector:
    """Closed-form image of a Bloch vector after time t >= 0."""
    if t < 0.0:
        raise ValueError(f"propagation time must be >= 0, got {t}")
    r1, r2 = _bloch_components(p, r, t)
    return BlochVector(r1, r2, r.r3)


def bloch_trajectory(p: ModelParams, r: BlochVector, times) -> np.ndarray:
    """Closed-form trajectory sampled at an array of times, shape (n, 3)."""
    times = np.asarray(times, dtype=float)
    if times.size and times.min() < 0.0:
        raise ValueError("trajectory times must be >= 0")
    r1, r2 = _bloch_components(p, r, times)
    return np.stack([r1, r2, np.full_like(r1, r.r3)], axis=-1)


def exit_rate(p: ModelParams, r: BlochVector) -> float:
    """Quadratic form -2 <r|D|r> = -2a (r1^2 + r2^2) - 4b r1 r2.

    Its sign is the sign of d||r_t||^2/dt (the full derivative is twice
    this value); a positive rate on the unit sphere means the vector is
    leaving the Bloch ball.
    """
    return -2.0 * p.a * (r.r1 * r.r1 + r.r2 * r.r2) - 4.0 * p.b * r.r1 * r.r2


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

    For a^2 < b^2 (non-positive maps):

        R  = exp(-2 a t') sqrt( (omega + sqrt(b^2 - a^2))
                              / (omega - sqrt(b^2 - a^2)) )
        t' = (1 / 2 Omega) arcsin( (Omega/b) sqrt((b^2 - a^2)/(Omega^2 + a^2)) )

    and R > 1 is guaranteed.  Positive maps never leave the ball, so for
    a^2 >= b^2 the pair (1.0, 0.0) is returned.
    """
    if p.a * p.a >= p.b * p.b:
        return 1.0, 0.0
    big_omega = p.Omega
    root = math.sqrt(p.b * p.b - p.a * p.a)
    # The argument equals 1 exactly at a = 0; clamp away rounding overshoot.
    arg = min(1.0, big_omega / p.b * math.sqrt((p.b * p.b - p.a * p.a) / (big_omega ** 2 + p.a ** 2)))
    t_prime = math.asin(arg) / (2.0 * big_omega)
    radius = math.exp(-2.0 * p.a * t_prime) * math.sqrt((p.omega + root) / (p.omega - root))
    return radius, t_prime
