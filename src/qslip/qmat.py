"""Linear-algebra kernel for the small complex matrices of the package.

Everything the rest of the package leans on lives here: the Pauli
matrices, a Jacobi Hermitian eigensolver for X-shaped 4x4 matrices, and the
partial transpose over the first tensor factor.

The eigensolver is written out rather than delegated to LAPACK so that the
closed-form spectra elsewhere in the package are checked against genuinely
independent numerics.  It takes only matrices with exact zeros in the
eight entries off the two 2x2 blocks ``{0, 3}`` and ``{1, 2}``: the local
map fixes ``1`` and ``s3`` and mixes ``s1`` with ``s2``, so every
two-qubit matrix the package builds (evolved states, their partial
transposes, slipped Choi matrices) is X-shaped.  Any other input raises
``ValueError``.  It runs on Python scalars, as at 4x4 the per-call
overhead of numpy slices costs far more than the arithmetic, and holds the
diagonal as real numbers.  One rotation per nonzero block moves the
block's diagonal pair by ``-t |a_pq|`` and ``+t |a_pq|`` and sets the pivot
pair to exact zeros (Rutishauser's update) instead of rotating them, so
the matrix is diagonal after it whatever the size of its entries, and
there is no sweep loop.  Each block pair is checked once, and the upper
half symmetrized from the inputs (conjugating one half could flip a zero's
sign).  NaN and inf are truthy: a non-finite entry off the blocks reads as
not X-shaped, and one in a block reaches the Hermiticity check, which
raises ``ValueError``.
"""
from __future__ import annotations

import math

import numpy as np

# Absolute tolerances, fixed once for the whole package (desk-scale inputs).
HERMITIAN_INPUT_TOL = 1e-10   # accepted Hermiticity defect of eigensolver inputs
JACOBI_OFF_TOL = 1e-14        # off-diagonal Frobenius norm below which nothing rotates
STATE_EIG_FLOOR = -1e-10      # spectrum floor below which a matrix is not a state

PAULI_1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)


def hermiticity_defect(m: np.ndarray) -> float:
    """max |M - M^dagger|, the absolute deviation from Hermiticity; NaN for
    a non-finite entry (inf - inf), so ``not defect <= tol`` rejects it."""
    m = np.asarray(m, dtype=complex)
    with np.errstate(invalid="ignore"):
        return float(np.abs(m - m.conj().T).max())


def _not_hermitian(rows: list) -> ValueError:
    defect = hermiticity_defect(np.array(rows))  # the largest, for the message
    return ValueError(f"matrix is not Hermitian: defect {defect:.3e} "
                      f"exceeds {HERMITIAN_INPUT_TOL:.1e}")


def _symmetrized(x: complex, y: complex, rows: list) -> complex:
    """``(x + conj y)/2`` for x = M[i, j], y = M[j, i], once the defect
    |x - conj(y)| is within ``HERMITIAN_INPUT_TOL`` (a NaN or inf defect
    fails); a pair of exact zeros gives ``0j``."""
    if not (x or y):  # NaN and inf are truthy, so they reach the check
        return 0j
    y_conj = y.conjugate()
    if not abs(x - y_conj) <= HERMITIAN_INPUT_TOL:
        raise _not_hermitian(rows)
    return 0.5 * (x + y_conj)


def _symmetrized_diagonal(x: complex, rows: list) -> float:
    """The real part of a diagonal entry x = M[i, i], once its defect
    |x - conj x| is within ``HERMITIAN_INPUT_TOL`` (a NaN or inf fails)."""
    if not x:
        return 0.0
    if not abs(x - x.conjugate()) <= HERMITIAN_INPUT_TOL:
        raise _not_hermitian(rows)
    return x.real


def _tangent(app: float, aqq: float, mag: float) -> float:
    """``t = tan(theta)`` of the rotation that annihilates a pivot of modulus
    ``mag`` between the real diagonal entries ``app`` and ``aqq``; it moves
    them to ``app - t mag`` and ``aqq + t mag`` (Rutishauser's update)."""
    tau = (aqq - app) / (mag + mag)
    sign = 1.0 if tau >= 0.0 else -1.0
    return sign / (abs(tau) + math.sqrt(1.0 + tau * tau))


def _rotation(app: float, aqq: float, apq: complex) -> tuple:
    """``(c, s phase, s conj(phase), t |apq|)`` of the rotation that annihilates
    the nonzero pivot ``apq``; ``c`` is held complex, as Python would
    promote it on every multiply."""
    mag = abs(apq)
    t = _tangent(app, aqq, mag)
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c
    phase = apq / mag
    return complex(c), s * phase, s * phase.conjugate(), t * mag


def hermitian_x_eig(rows: list, vectors: bool = False):
    """Jacobi on the blocks ``{0, 3}`` and ``{1, 2}`` of an X-shaped 4x4
    Hermitian matrix given as ``M.tolist()``: the unsorted eigenvalues (by
    diagonal position) and, if ``vectors``, the eigenvector rows (``vt[i]``
    belongs to eigenvalue ``i``), else None.  Any other input raises
    ``ValueError``: one that is not X-shaped, not Hermitian, or not 4x4 (the
    unpacking of ``rows`` raises).

    One rotation per nonzero pivot leaves the matrix diagonal.  The
    eigenvalues are the same bits with or without ``vectors``; without,
    only the shift ``t |a_pq|`` is computed."""
    (a00, a01, a02, a03), (a10, a11, a12, a13), (a20, a21, a22, a23), (a30, a31, a32, a33) = rows
    if a01 or a02 or a10 or a13 or a20 or a23 or a31 or a32:
        raise ValueError("input is not X-shaped: nonzero entries off the blocks {0, 3} and {1, 2}")
    # The lower halves are the exact conjugates of a03 and a12.
    a03 = _symmetrized(a03, a30, rows)
    a12 = _symmetrized(a12, a21, rows)
    d0, d1, d2, d3 = (_symmetrized_diagonal(a00, rows), _symmetrized_diagonal(a11, rows),
                      _symmetrized_diagonal(a22, rows), _symmetrized_diagonal(a33, rows))
    m03, m12 = abs(a03), abs(a12)
    residual = math.hypot(m03, m03, m12, m12)
    rotate = residual > JACOBI_OFF_TOL
    if not vectors:
        if rotate and a03:
            shift = _tangent(d0, d3, m03) * m03
            d0, d3 = d0 - shift, d3 + shift
        if rotate and a12:
            shift = _tangent(d1, d2, m12) * m12
            d1, d2 = d1 - shift, d2 + shift
        return [d0, d1, d2, d3], None
    # Each block of eigenvector rows is the block's rotation applied to the
    # identity rows, written out with its signed zeros.
    v00 = v11 = v22 = v33 = 1 + 0j
    v03 = v30 = v12 = v21 = 0j
    if rotate and a03:
        c, s_phase, s_conj, shift = _rotation(d0, d3, a03)
        d0, d3 = d0 - shift, d3 + shift
        v00 = v33 = c
        v03, v30 = 0j - s_conj, s_phase + 0j
    if rotate and a12:
        c, s_phase, s_conj, shift = _rotation(d1, d2, a12)
        d1, d2 = d1 - shift, d2 + shift
        v11 = v22 = c
        v12, v21 = 0j - s_conj, s_phase + 0j
    vt = [[v00, 0j, 0j, v03], [0j, v11, v12, 0j], [0j, v21, v22, 0j], [v30, 0j, 0j, v33]]
    return [d0, d1, d2, d3], vt


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of an X-shaped 4x4 Hermitian matrix (defect within
    ``HERMITIAN_INPUT_TOL``), sorted descending, from ``hermitian_x_eig``;
    ``ValueError`` for any other input."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    return np.array(sorted(hermitian_x_eig(m.tolist())[0], reverse=True))


def partial_transpose_first(m: np.ndarray) -> np.ndarray:
    """Transpose the first tensor factor of a 4x4 matrix (basis 00,01,10,11)."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"partial transpose expects a 4x4 matrix, got shape {m.shape}")
    return m.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)
