"""Slippage channel and Choi-matrix complete-positivity tests.

The slippage channel contracts the whole Bloch ball by a factor
``mu`` in [0, 1],

    rho -> (1 + mu r.sigma)/2 ,

a completely positive preprocessing step whose Kraus form mixes the
identity with the three Pauli conjugations.  Composing it with the
(possibly non-positive) dephasing semigroup keeps every evolved state
inside the ball once mu is small enough.

A qubit map M is represented by its 4x4 matrix on the Pauli basis
(1, s1, s2, s3), with entry [j, k] = tr(s_j M(s_k)) / 2, so composing maps
is a matrix product; every map built here is real in this basis.
``semigroup_action`` is the one matrix form of the dephasing semigroup.  The
Choi matrix applies the map to the first factor of the maximally entangled
projector; the map is completely positive exactly when that matrix has
nonnegative spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import qmat
from ._timekernel import ARRAY, time_kernel
from .qmat import IDENTITY_2, PAULI_1, PAULI_2, PAULI_3
from .semigroup import ModelParams

# Row 4 j + k is s_j x t_k / 4 flattened; (t_k) = (1, s1, -s2, s3) are the
# second factors of the maximally entangled projector's Pauli expansion.
_CHOI_BASIS = np.array([np.kron(s, t).ravel() for s in (IDENTITY_2, PAULI_1, PAULI_2, PAULI_3)
                        for t in (IDENTITY_2, PAULI_1, -PAULI_2, PAULI_3)]) / 4.0


def checked_mu(mu: float) -> float:
    """mu as a float, or ``ValueError`` unless 0 <= mu <= 1 (NaN fails too).

    The one rule for mu: the contraction strength of ``SlippageChannel``, the
    isotropic parameter of ``qslip.bipartite`` and the CLI's ``--mu``.
    """
    mu = float(mu)
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must lie in [0, 1], got {mu}")
    return mu


@dataclass(frozen=True)
class SlippageChannel:
    """Uniform Bloch contraction of strength mu in [0, 1]."""

    mu: float

    def __post_init__(self):
        object.__setattr__(self, "mu", checked_mu(self.mu))


def slippage_action(channel: SlippageChannel) -> np.ndarray:
    """Pauli-basis matrix diag(1, mu, mu, mu) of the slippage channel."""
    return np.diag([1.0, channel.mu, channel.mu, channel.mu])


def semigroup_action(p: ModelParams) -> Callable[[float], np.ndarray]:
    """Time-indexed Pauli-basis matrix of the dephasing semigroup.

    At a scalar time t: the analytic Bloch propagator exp(-2 t L) of
    ``qslip.semigroup`` as the lower-right 3x3 block, and the identity's
    row and column (1, 0, 0, 0) around it.
    """

    def action(t: float) -> np.ndarray:
        t, k = time_kernel(t)
        if k is ARRAY:
            raise ValueError(f"semigroup_action's map takes one scalar time, got shape {t.shape}")
        big_omega = p.Omega
        decay = k.exp(-2.0 * p.a * t)
        c = k.cos(2.0 * big_omega * t)
        s = k.sin(2.0 * big_omega * t)
        return np.array([[1.0, 0.0, 0.0, 0.0],
                         [0.0, decay * c, -decay * (p.omega + p.b) / big_omega * s, 0.0],
                         [0.0, decay * (p.omega - p.b) / big_omega * s, decay * c, 0.0],
                         [0.0, 0.0, 0.0, 1.0]])

    return action


def compose_actions(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Pauli-basis matrix of outer(inner(.)): the product outer @ inner."""
    return outer @ inner


def choi_matrix(action: np.ndarray) -> np.ndarray:
    """Choi matrix of a qubit map given by its Pauli-basis matrix M.

    The map acts on the first factor of the maximally entangled projector
    P = (1x1 + s1xs1 - s2xs2 + s3xs3)/4 (basis 00, 01, 10, 11 row-major):

        choi = sum_{j,k} M[j, k] s_j x t_k / 4 ,  (t_k) = (1, s1, -s2, s3),

    one product of the flattened M with a constant 16x16 matrix.
    """
    return (np.reshape(action, 16) @ _CHOI_BASIS).reshape(4, 4)


class CPReport(NamedTuple):
    """Outcome of a complete-positivity scan over a time grid."""

    is_cp: bool
    worst_t: float
    min_eigenvalue: float


def is_completely_positive(
    family: Callable[[float], np.ndarray], t_grid: Sequence[float]
) -> CPReport:
    """Scan Choi spectra over a time grid.

    True iff the smallest Choi eigenvalue stays above
    ``qmat.STATE_EIG_FLOOR`` at every grid point, that is, iff each unit-trace
    Choi matrix is a state; genuine violations at the parameter scales of
    interest are O(0.1).  The worst point is reported either way.  Each Choi
    matrix must be X-shaped, as the slipped semigroup's are, or
    ``qmat.hermitian_eigenvalues`` raises ``ValueError``.
    """
    t_grid, k = time_kernel(t_grid)
    if k is not ARRAY or t_grid.ndim != 1 or not t_grid.size:
        raise ValueError(f"is_completely_positive takes a nonempty 1-d time grid, "
                         f"got shape {np.shape(t_grid)}")
    worst_t, worst_eig = float(t_grid[0]), math.inf
    for t in t_grid.tolist():
        low = float(qmat.hermitian_eigenvalues(choi_matrix(family(t)))[-1])
        if low < worst_eig:
            worst_t, worst_eig = t, low
    return CPReport(worst_eig >= qmat.STATE_EIG_FLOOR, worst_t, worst_eig)
