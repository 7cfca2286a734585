"""Slippage channel and Choi-matrix complete-positivity tests.

The slippage channel contracts the whole Bloch ball by a factor
``mu`` in [0, 1],

    rho -> (1 + mu r.sigma)/2 ,

a completely positive preprocessing step whose Kraus form mixes the
identity with the three Pauli conjugations.  Composing it with the
(possibly non-positive) dephasing semigroup keeps every evolved state
inside the ball once mu is small enough.

Qubit maps are represented by their action on the basis {1, s1, s2, s3}
(the smallest faithful description at this scale).  The Choi matrix of
such an action is obtained by applying the map to the first factor of the
maximally entangled projector; the map is completely positive exactly when
that matrix has nonnegative spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence, Tuple

import numpy as np

from . import qmat
from .qmat import IDENTITY_2, PAULI_1, PAULI_2, PAULI_3
from .semigroup import BlochVector, as_rates, bloch_propagator

# Choi eigenvalues above this floor count as nonnegative; genuine
# violations at the parameter scales of interest are O(0.1).
CP_EIG_FLOOR = -1e-10

# A qubit map as its images of (identity, s1, s2, s3).
PauliAction = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

_PAULI_BASIS = np.stack((IDENTITY_2, PAULI_1, PAULI_2, PAULI_3))
# Second factors of the maximally entangled projector's Pauli expansion.
_CHOI_STACK = np.stack((IDENTITY_2, PAULI_1, -PAULI_2, PAULI_3))


@dataclass(frozen=True)
class SlippageChannel:
    """Uniform Bloch contraction of strength mu in [0, 1]."""

    mu: float

    def __post_init__(self):
        object.__setattr__(self, "mu", float(self.mu))
        if not math.isfinite(self.mu) or not (0.0 <= self.mu <= 1.0):
            raise ValueError(f"contraction strength mu must lie in [0, 1], got {self.mu}")


def apply_slippage(channel: SlippageChannel, r: BlochVector) -> BlochVector:
    """Contract a Bloch vector: r -> mu r."""
    return BlochVector(channel.mu * r.r1, channel.mu * r.r2, channel.mu * r.r3)


def kraus_operators(channel: SlippageChannel) -> list[np.ndarray]:
    """Kraus operators: sqrt((1+3mu)/4) * 1 and sqrt((1-mu)/4) * sigma_i."""
    w_id = math.sqrt((1.0 + 3.0 * channel.mu) / 4.0)
    w_pauli = math.sqrt((1.0 - channel.mu) / 4.0)
    return [w_id * IDENTITY_2, w_pauli * PAULI_1, w_pauli * PAULI_2, w_pauli * PAULI_3]


def kraus_apply(channel: SlippageChannel, rho) -> np.ndarray:
    """Apply the channel in Kraus form to a 2x2 state.

        rho -> (1+3mu)/4 rho + (1-mu)/4 sum_i sigma_i rho sigma_i
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 state, got shape {rho.shape}")
    if not qmat.hermiticity_defect(rho) <= qmat.HERMITIAN_INPUT_TOL:
        raise ValueError("input is not Hermitian")
    trace = np.trace(rho)
    if abs(trace - 1.0) > 1e-10:
        raise ValueError(f"input must have unit trace, got {trace}")
    r = BlochVector.from_density_matrix(rho)
    if r.norm() > 1.0 + 1e-10:
        raise ValueError(f"input Bloch norm {r.norm():.12g} exceeds 1: not a state")
    pauli_sum = PAULI_1 @ rho @ PAULI_1 + PAULI_2 @ rho @ PAULI_2 + PAULI_3 @ rho @ PAULI_3
    return (1.0 + 3.0 * channel.mu) / 4.0 * rho + (1.0 - channel.mu) / 4.0 * pauli_sum


def identity_action() -> PauliAction:
    """The identity map on the Pauli basis."""
    return tuple(m.copy() for m in _PAULI_BASIS)


def slippage_action(channel: SlippageChannel) -> PauliAction:
    """Pauli-basis action of the slippage channel: 1 -> 1, sigma_i -> mu sigma_i."""
    return (IDENTITY_2.copy(), *(channel.mu * _PAULI_BASIS[1:]))


def semigroup_action(params, b: float | None = None, omega: float | None = None) -> Callable[[float], PauliAction]:
    """Time-indexed Pauli-basis action of the dephasing semigroup.

    Accepts a ModelParams or raw floats (the raw path admits b = 0, needed
    to probe the completely positive branch).  The image of sigma_i at time
    t is sum_j G[j, i] sigma_j with G the analytic Bloch propagator.
    """
    a, b_val, omega_val = as_rates(params, b, omega)

    def action(t: float) -> PauliAction:
        g = bloch_propagator(a, b_val, omega_val, t)
        return (IDENTITY_2.copy(), *np.einsum("ji,jab->iab", g, _PAULI_BASIS[1:]))

    return action


def compose_actions(outer: PauliAction, inner: PauliAction) -> PauliAction:
    """Pauli-basis action of outer(inner(.)).

    Each inner image is decomposed as x0 1 + sum_i x_i sigma_i with
    x_k = tr(sigma_k X)/2, then pushed through the outer action linearly.
    """
    coeffs = np.einsum("kab,iba->ik", _PAULI_BASIS, np.asarray(inner, dtype=complex)) / 2.0
    return tuple(np.einsum("ik,kab->iab", coeffs, np.asarray(outer, dtype=complex)))


def choi_matrix(action: PauliAction) -> np.ndarray:
    """Choi matrix of a trace-preserving qubit map given on the Pauli basis.

    The map acts on the first factor of the maximally entangled projector
    P = (1x1 + s1xs1 - s2xs2 + s3xs3)/4 (basis 00, 01, 10, 11 row-major):

        choi = ( M[1] x 1 + M[s1] x s1 - M[s2] x s2 + M[s3] x s3 ) / 4 ,

    assembled as one contraction against the stack (1, s1, -s2, s3).
    """
    images = np.asarray(action, dtype=complex)
    return 0.25 * np.einsum("kij,kab->iajb", images, _CHOI_STACK).reshape(4, 4)


class CPReport(NamedTuple):
    """Outcome of a complete-positivity scan over a time grid."""

    is_cp: bool
    worst_t: float
    min_eigenvalue: float


def is_completely_positive(
    family: Callable[[float], PauliAction], t_grid: Sequence[float]
) -> CPReport:
    """Scan Choi spectra over a time grid.

    True iff the smallest Choi eigenvalue stays above ``CP_EIG_FLOOR`` at
    every grid point; the worst point is reported either way.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0:
        raise ValueError("time grid must not be empty")
    if t_grid.min() < 0.0:
        raise ValueError("time grid values must be >= 0")
    worst_t, worst_eig = float(t_grid[0]), math.inf
    for t in t_grid.tolist():
        low = float(qmat.hermitian_eigenvalues(choi_matrix(family(t)))[-1])
        if low < worst_eig:
            worst_t, worst_eig = t, low
    return CPReport(worst_eig >= CP_EIG_FLOOR, worst_t, worst_eig)
