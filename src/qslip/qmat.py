"""Dense linear-algebra kernel for the small complex matrices of the package.

Everything the rest of the package leans on lives here: the Pauli
matrices, a cyclic-Jacobi Hermitian eigensolver, and the partial transpose
over the first tensor factor.

The eigensolver is written out rather than delegated to LAPACK so that the
closed-form spectra elsewhere in the package are checked against genuinely
independent numerics.  The Hermiticity check, the symmetrization and the
Jacobi rotations run on Python complex scalars in nested lists: at 4x4 the
per-call overhead of numpy row and column slices costs far more than the
arithmetic.  The oracles feed X-shaped matrices (two decoupled 2x2
blocks), half of whose entries are exact zeros, so the loops skip them:
zero pivots, row and column pairs that are both zero (a rotation maps
them to zeros), zero residual terms and zero symmetrization pairs.
The check visits each (i, j), (j, i) pair once, taking one defect and
both symmetrized halves from the inputs (conjugating one half could flip
a zero's sign), and the rotation cosine is held as a complex number, as
Python would promote it on every multiply.  Eigenvalues and eigenvectors
stay bit-identical to the full loops; a dense input pays a little for
the extra zero tests.  NaN and inf are
truthy, so a non-finite entry facing a zero still reaches the
Hermiticity check.  ``hermitian_eigenvalues`` skips the eigenvector
accumulation that ``hermitian_eig`` does, and a non-finite input entry
raises ``ValueError``.  General n x n problems, sparse storage and
extended precision are out of scope; every matrix here is tiny with
entries of order one.
"""

from __future__ import annotations

import math
from itertools import permutations

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


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(np.asarray(m).T)


def hermiticity_defect(m: np.ndarray) -> float:
    """max |M - M^dagger|, the absolute deviation from Hermiticity; NaN for
    a non-finite entry (inf - inf), so ``not defect <= tol`` rejects it."""
    m = np.asarray(m, dtype=complex)
    with np.errstate(invalid="ignore"):
        return float(np.abs(m - dagger(m)).max())


def _hermitian_rows(m: np.ndarray) -> list:
    """Rows of (M + M^dagger)/2 as Python complex scalars, after checking that
    each entry's defect |x - conj(y)| (y the transposed entry) is within
    ``HERMITIAN_INPUT_TOL``; a non-finite entry gives a NaN or inf defect,
    which fails too."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    rows = m.tolist()
    sym = [[0j] * len(rows) for _ in rows]
    for i, row in enumerate(rows):
        for j, x in enumerate(row[i:], i):
            y = rows[j][i]
            if not (x or y):  # NaN and inf are truthy, so they reach the check
                continue
            y_conj = y.conjugate()
            if not abs(x - y_conj) <= HERMITIAN_INPUT_TOL:
                defect = hermiticity_defect(m)  # the largest, for the message
                raise ValueError(f"matrix is not Hermitian: defect {defect:.3e} "
                                 f"exceeds {HERMITIAN_INPUT_TOL:.1e}")
            sym[i][j] = 0.5 * (x + y_conj)
            sym[j][i] = 0.5 * (y + x.conjugate())
    return sym


def _jacobi(a: list, vt: list | None):
    """Cyclic Jacobi on the Hermitian rows ``a`` in place, rotating the rows
    of ``vt`` (the eigenvector columns) too unless it is None.

    Each (p, q) rotation annihilates the pivot.  Sweeps stop once the
    off-diagonal Frobenius norm is within ``JACOBI_OFF_TOL`` (quadratic
    convergence makes ``JACOBI_MAX_SWEEPS`` generous at 4x4 scale) and raise
    ``RuntimeError`` when that budget runs out.  Returns the eigenvalues,
    sorted descending, and their positions on the diagonal."""
    n = len(a)
    for sweep in range(JACOBI_MAX_SWEEPS + 1):
        # Off-diagonal pairs in row-major order, as the residual always summed them.
        residual = math.hypot(*[abs(a[i][j]) for i, j in permutations(range(n), 2) if a[i][j]])
        if residual <= JACOBI_OFF_TOL:
            break
        if sweep == JACOBI_MAX_SWEEPS:
            raise RuntimeError(
                f"Jacobi did not converge in {JACOBI_MAX_SWEEPS} sweeps: "
                f"off-diagonal norm {residual:.3e} exceeds {JACOBI_OFF_TOL:.1e}"
            )
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                mag = abs(apq)
                if mag == 0.0:
                    continue
                phase = apq / mag
                # Real rotation angle for the phase-stripped 2x2 block.
                tau = (a[q][q].real - a[p][p].real) / (mag + mag)
                sign = 1.0 if tau >= 0.0 else -1.0
                t = sign / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                s_phase = s * phase
                s_conj = s * phase.conjugate()
                c = complex(c)
                # Columns: A <- A U with U[p,p]=U[q,q]=c, U[p,q]=s*phase,
                # U[q,p]=-s*conj(phase); then rows: A <- U^dagger A.
                for row in a:
                    x, y = row[p], row[q]
                    if not (x or y):
                        continue
                    row[p] = c * x - s_conj * y
                    row[q] = s_phase * x + c * y
                row_p, row_q = a[p], a[q]
                for j in range(n):
                    x, y = row_p[j], row_q[j]
                    if not (x or y):
                        continue
                    row_p[j] = c * x - s_phase * y
                    row_q[j] = s_conj * x + c * y
                if vt is not None:
                    vec_p, vec_q = vt[p], vt[q]
                    for j in range(n):
                        x, y = vec_p[j], vec_q[j]
                        if not (x or y):
                            continue
                        vec_p[j] = c * x - s_conj * y
                        vec_q[j] = s_phase * x + c * y
    diagonal = [row[i].real for i, row in enumerate(a)]
    order = sorted(range(n), key=diagonal.__getitem__, reverse=True)  # stable
    return np.array([diagonal[i] for i in order]), order


def hermitian_eig(m: np.ndarray):
    """Eigenvalues ``w`` (descending) and orthonormal eigenvector columns ``v``
    of a Hermitian matrix (defect within ``HERMITIAN_INPUT_TOL``, else
    ``ValueError``) by cyclic Jacobi, so that ``m ~= v @ diag(w) @ v^dagger``."""
    a = _hermitian_rows(m)
    vt = np.eye(len(a), dtype=complex).tolist()
    w, order = _jacobi(a, vt)
    return w, np.array([vt[i] for i in order], dtype=complex).T


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, sorted descending; skips the eigenvectors."""
    return _jacobi(_hermitian_rows(m), None)[0]


def partial_transpose_first(m: np.ndarray) -> np.ndarray:
    """Transpose the first tensor factor of a 4x4 matrix (basis 00,01,10,11)."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"partial transpose expects a 4x4 matrix, got shape {m.shape}")
    return m.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)
