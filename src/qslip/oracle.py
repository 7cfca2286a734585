"""Independent numerical cross-checks for the closed forms.

Fixed-step RK4 integration of the qubit master equation (and of its
one-sided two-qubit amplification), a deterministic coarse-grid plus
golden-section scalar maximizer, and a central finite difference.  None of
these reuse the analytic propagator machinery, which is what makes them
usable as oracles against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import qmat
from .semigroup import as_rates

# Fixed-step accuracy guard: the step must resolve the fastest rate.
MAX_STEP_RATE_PRODUCT = 0.01
# Step cap: a 4x4 trajectory of this length holds about 256 MB of states.
MAX_STEPS = 1_000_000

_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
_COARSE_POINTS = 1000


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 configuration; defaults suit desk-scale rates."""

    step: float = 1e-4
    t_max: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "step", float(self.step))
        object.__setattr__(self, "t_max", float(self.t_max))
        if not (math.isfinite(self.step) and math.isfinite(self.t_max)):
            raise ValueError("integrator step and horizon must be finite")
        if self.step <= 0.0 or self.t_max <= 0.0:
            raise ValueError(f"step and t_max must be > 0, got {self.step}, {self.t_max}")
        if self.step > self.t_max:
            raise ValueError(f"step {self.step} exceeds horizon {self.t_max}")
        # round(t_max / step) > MAX_STEPS, without rounding an overflowed ratio.
        if self.t_max / self.step > MAX_STEPS + 0.5:
            raise ValueError(
                f"t_max/step must not exceed {MAX_STEPS} RK4 steps, "
                f"got t_max={self.t_max}, step={self.step}"
            )


class Trajectory(NamedTuple):
    """Sampled solution: times of shape (n+1,), states of shape (n+1, d, d)."""

    times: np.ndarray
    states: np.ndarray


def _rates_of(params):
    """(a, b, omega) from a ModelParams or an (a, b, omega) triple."""
    try:
        a, b, omega = params
    except TypeError:
        return as_rates(params)
    return as_rates(float(a), float(b), float(omega))


def _check_accuracy(rates, cfg: IntegratorConfig):
    a, b, omega = rates
    fastest = max(a, abs(b), abs(omega))
    if cfg.step * fastest > MAX_STEP_RATE_PRODUCT:
        raise ValueError(
            f"step {cfg.step} too coarse for rates up to {fastest}: "
            f"step*rate must stay <= {MAX_STEP_RATE_PRODUCT}"
        )


def _check_state(rho: np.ndarray, dim: int) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} initial matrix, got shape {rho.shape}")
    if not qmat.hermiticity_defect(rho) <= qmat.HERMITIAN_INPUT_TOL:
        raise ValueError("initial matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-10 or abs(np.trace(rho).imag) > 1e-10:
        raise ValueError(f"initial matrix must have unit trace, got {np.trace(rho)}")
    return rho


def _dissipative_rhs(rates, s1, s2, s3) -> Callable[[np.ndarray], np.ndarray]:
    a, b, w = rates

    def rhs(rho):
        return (
            (-1j * w) * (s3 @ rho - rho @ s3)
            + a * (s3 @ rho @ s3 - rho)
            - b * (s1 @ rho @ s2 + s2 @ rho @ s1)
        )

    return rhs


def _rk4(rhs, rho0: np.ndarray, cfg: IntegratorConfig) -> Trajectory:
    # Row j of rhs(basis) is vec(rhs(E_j)) (row-major vec); the C-ordered
    # transpose keeps 2x2 round-off bit-identical to rhs on matrices.  The
    # stages stay separate: one collapsed step matrix shifts the round-off.
    dim = rho0.size
    basis = np.eye(dim, dtype=complex).reshape((dim,) + rho0.shape)
    gen = np.ascontiguousarray(rhs(basis).reshape(dim, dim).T)
    n = int(round(cfg.t_max / cfg.step))
    h = cfg.step
    states = np.empty((n + 1, dim), dtype=complex)
    y = states[0] = rho0.reshape(-1)
    for k in range(n):
        k1 = gen @ y
        k2 = gen @ (y + (0.5 * h) * k1)
        k3 = gen @ (y + (0.5 * h) * k2)
        k4 = gen @ (y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[k + 1] = y
    return Trajectory(h * np.arange(n + 1), states.reshape((n + 1,) + rho0.shape))


def _integrate(p, rho0, cfg: IntegratorConfig, s1, s2, s3) -> Trajectory:
    rho0 = _check_state(rho0, s1.shape[0])
    rates = _rates_of(p)
    _check_accuracy(rates, cfg)
    return _rk4(_dissipative_rhs(rates, s1, s2, s3), rho0, cfg)


def integrate_master_2x2(p, rho0, cfg: IntegratorConfig) -> Trajectory:
    """RK4 integration of the single-qubit master equation

        d rho/dt = -i omega [s3, rho] + a (s3 rho s3 - rho)
                   - b (s1 rho s2 + s2 rho s1).

    ``p`` may be a ModelParams or a raw (a, b, omega) triple (the latter
    admits b = 0, e.g. for the purely unitary limit).
    """
    return _integrate(p, rho0, cfg, qmat.PAULI_1, qmat.PAULI_2, qmat.PAULI_3)


def integrate_master_4x4(p, rho0, cfg: IntegratorConfig) -> Trajectory:
    """RK4 integration of the amplified equation (bath on the first qubit only).

    Identical generator with each Pauli replaced by sigma_i (x) identity, so
    the second qubit rides along untouched.
    """
    s1, s2, s3 = (np.kron(s, qmat.IDENTITY_2) for s in (qmat.PAULI_1, qmat.PAULI_2, qmat.PAULI_3))
    return _integrate(p, rho0, cfg, s1, s2, s3)


def maximize_scalar(fn: Callable[[float], float], t_lo: float, t_hi: float, tol: float = 1e-10):
    """Deterministic maximizer: 1000-point coarse grid, then golden section.

    The coarse grid locates the best bracket (beating the oscillation scale
    of every curve in this package), and golden-section search refines it to
    width ``tol``.  Returns ``(t_at_max, value)``.
    """
    if not (t_lo < t_hi):
        raise ValueError(f"need t_lo < t_hi, got {t_lo} >= {t_hi}")
    if tol <= 0.0:
        raise ValueError(f"tolerance must be > 0, got {tol}")
    grid = np.linspace(t_lo, t_hi, _COARSE_POINTS)
    values = np.array([fn(t) for t in grid])
    best = int(np.argmax(values))
    lo = grid[best - 1] if best > 0 else grid[0]
    hi = grid[best + 1] if best < len(grid) - 1 else grid[-1]
    while hi - lo > tol:
        c = hi - (hi - lo) / _GOLDEN
        d = lo + (hi - lo) / _GOLDEN
        if fn(c) >= fn(d):
            hi = d
        else:
            lo = c
    t_best = 0.5 * (lo + hi)
    return t_best, fn(t_best)


def central_difference(fn: Callable[[float], float], t: float, h: float = 1e-6) -> float:
    """Symmetric finite difference (fn(t+h) - fn(t-h)) / 2h."""
    if h <= 0.0:
        raise ValueError(f"finite-difference step must be > 0, got {h}")
    return (fn(t + h) - fn(t - h)) / (2.0 * h)
