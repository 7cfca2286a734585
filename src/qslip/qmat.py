"""Dense linear-algebra kernel for the small complex matrices of the package.

Everything the rest of the package leans on lives here: the Pauli
matrices, a cyclic-Jacobi Hermitian eigensolver, and the partial transpose
over the first tensor factor.

The eigensolver is written out rather than delegated to LAPACK so that the
closed-form spectra elsewhere in the package are checked against genuinely
independent numerics.  It runs on Python scalars: at 4x4 the per-call
overhead of numpy slices costs far more than the arithmetic.  The diagonal
is held as real numbers.  Each rotation moves the pivot's diagonal pair by
``-t |a_pq|`` and ``+t |a_pq|`` and sets the pivot pair to exact zeros
(Rutishauser's update) instead of rotating them, so no round-off of the
diagonal's scale is left off the diagonal, and ``JACOBI_OFF_TOL`` is met
whatever the size of the entries.  The oracles feed X-shaped 4x4 matrices:
the local map fixes ``1`` and ``s3`` and mixes ``s1`` with ``s2``, so the
eight entries off the two decoupled 2x2 blocks ``{0, 3}`` and ``{1, 2}``
are exact zeros.  Such an input goes to ``hermitian_x_eig``, which is exact
after one rotation per nonzero block and has no sweep loop; it alone gives
eigenvectors, which Wootters' concurrence needs, and an eigenvalue-only
call there computes just the shift ``t |a_pq|`` and skips the phase,
cosine, sine and eigenvectors.  Every other input goes to the dense loop,
which gives eigenvalues only.  Both check each (i, j), (j, i) pair once,
taking one defect and both symmetrized halves from the inputs (conjugating
one half could flip a zero's sign), take ``t`` from one formula
(``_tangent``), skip exact zeros (pivots, row and column pairs, residual
terms, symmetrization pairs) and hold the rotation cosine as a complex
number, as Python would promote it on every multiply.  So the kernel's
eigenvalues are bit-identical to the dense loop's on the permuted blocks.
NaN and inf are truthy: a non-finite entry off the blocks selects the dense
loop, and one facing a zero or on the diagonal still reaches the
Hermiticity check, which raises ``ValueError``.  General n x n problems,
sparse storage and extended precision are out of scope; every matrix here
is tiny.
"""
from __future__ import annotations

import math

import numpy as np

# Absolute tolerances, fixed once for the whole package (desk-scale inputs).
HERMITIAN_INPUT_TOL = 1e-10   # accepted Hermiticity defect of eigensolver inputs
JACOBI_OFF_TOL = 1e-14        # off-diagonal Frobenius norm at convergence
JACOBI_MAX_SWEEPS = 100
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


def _unconverged(residual: float) -> RuntimeError:
    return RuntimeError(f"Jacobi did not converge in {JACOBI_MAX_SWEEPS} sweeps: "
                        f"off-diagonal norm {residual:.3e} exceeds {JACOBI_OFF_TOL:.1e}")


def _symmetrized(x: complex, y: complex, rows: list) -> tuple:
    """``((x + conj y)/2, (y + conj x)/2)`` for x = M[i, j], y = M[j, i], once
    the defect |x - conj(y)| is within ``HERMITIAN_INPUT_TOL`` (a NaN or inf
    defect fails); a pair of exact zeros stays ``(0j, 0j)``."""
    if not (x or y):  # NaN and inf are truthy, so they reach the check
        return 0j, 0j
    y_conj = y.conjugate()
    if not abs(x - y_conj) <= HERMITIAN_INPUT_TOL:
        raise _not_hermitian(rows)
    return 0.5 * (x + y_conj), 0.5 * (y + x.conjugate())


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


def _rotated_pair(x: complex, y: complex, c: complex, u: complex, v: complex) -> tuple:
    """``(c x - u y, v x + c y)``, or ``(x, y)`` when both are exact zeros."""
    if x or y:
        return c * x - u * y, v * x + c * y
    return x, y


def hermitian_x_eig(rows: list, vectors: bool = False):
    """Jacobi on the blocks ``{0, 3}`` and ``{1, 2}`` of an X-shaped 4x4
    Hermitian matrix given as ``M.tolist()``: the unsorted eigenvalues (by
    diagonal position) and, if ``vectors``, the eigenvector rows (``vt[i]``
    belongs to eigenvalue ``i``), else None; None for any other input.

    One rotation per nonzero pivot leaves the matrix diagonal, so there is
    no sweep loop; only a budget of zero sweeps raises.  Checks, pivots and
    shifts are the dense loop's, so the eigenvalues are bit-identical to it,
    with or without ``vectors``; without, only the shift ``t |a_pq|`` is
    computed."""
    if len(rows) != 4:
        return None
    (a00, a01, a02, a03), (a10, a11, a12, a13), (a20, a21, a22, a23), (a30, a31, a32, a33) = rows
    if a01 or a02 or a10 or a13 or a20 or a23 or a31 or a32:
        return None
    # The lower halves come out as the exact conjugates of a03 and a12.
    a03 = _symmetrized(a03, a30, rows)[0]
    a12 = _symmetrized(a12, a21, rows)[0]
    d0, d1, d2, d3 = (_symmetrized_diagonal(a00, rows), _symmetrized_diagonal(a11, rows),
                      _symmetrized_diagonal(a22, rows), _symmetrized_diagonal(a33, rows))
    m03, m12 = abs(a03), abs(a12)
    residual = math.hypot(m03, m03, m12, m12)
    rotate = residual > JACOBI_OFF_TOL
    if rotate and JACOBI_MAX_SWEEPS < 1:
        raise _unconverged(residual)
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


def _jacobi(rows: list) -> list:
    """The dense loop: cyclic Jacobi on the checked and symmetrized ``rows``
    of an n x n matrix, giving the unsorted eigenvalues.

    Each (p, q) rotation moves the real diagonal pair by ``-t |a_pq|`` and
    ``+t |a_pq|`` and zeroes the pivot pair.  Sweeps stop once the
    off-diagonal Frobenius norm is within ``JACOBI_OFF_TOL`` (quadratic
    convergence makes ``JACOBI_MAX_SWEEPS`` generous at 4x4 scale) and raise
    ``RuntimeError`` when that budget runs out."""
    n = len(rows)
    span = range(n)
    d = [_symmetrized_diagonal(rows[i][i], rows) for i in span]
    a = [[0j] * n for _ in span]  # off-diagonal entries; the diagonal slots stay 0j
    for i in span:
        for j in span[i + 1:]:
            a[i][j], a[j][i] = _symmetrized(rows[i][j], rows[j][i], rows)
    for sweep in range(JACOBI_MAX_SWEEPS + 1):
        residual = math.hypot(*[abs(x) for row in a for x in row if x])
        if residual <= JACOBI_OFF_TOL:
            break
        if sweep == JACOBI_MAX_SWEEPS:
            raise _unconverged(residual)
        for p in span:
            for q in span[p + 1:]:
                if not a[p][q]:
                    continue
                c, s_phase, s_conj, shift = _rotation(d[p], d[q], a[p][q])
                d[p] -= shift
                d[q] += shift
                a[p][q] = a[q][p] = 0j
                # Columns: A <- A U with U[p,p]=U[q,q]=c, U[p,q]=s*phase,
                # U[q,p]=-s*conj(phase); then rows: A <- U^dagger A.  The
                # pivot block is all zeros now, which the pairs skip.
                for row in a:
                    row[p], row[q] = _rotated_pair(row[p], row[q], c, s_conj, s_phase)
                row_p, row_q = a[p], a[q]
                for j in span:
                    row_p[j], row_q[j] = _rotated_pair(row_p[j], row_q[j], c, s_phase, s_conj)
    return d


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix (defect within ``HERMITIAN_INPUT_TOL``,
    else ``ValueError``), sorted descending: the block kernel for an X-shaped
    4x4, the dense loop for every other square matrix."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    rows = m.tolist()
    blocks = hermitian_x_eig(rows)
    return np.array(sorted(blocks[0] if blocks else _jacobi(rows), reverse=True))


def partial_transpose_first(m: np.ndarray) -> np.ndarray:
    """Transpose the first tensor factor of a 4x4 matrix (basis 00,01,10,11)."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"partial transpose expects a 4x4 matrix, got shape {m.shape}")
    return m.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)
