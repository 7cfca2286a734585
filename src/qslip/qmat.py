"""Dense linear-algebra kernel for 2x2/4x4 complex and 3x3 real matrices.

Everything the rest of the package leans on lives here: a cyclic-Jacobi
Hermitian eigensolver, a scaling-and-squaring matrix exponential for real
3x3 generators, Kronecker products, and the partial transpose over the
first tensor factor.

The eigensolver and the exponential are written out rather than delegated
to LAPACK so that the closed-form spectra elsewhere in the package are
checked against genuinely independent numerics.  The Hermiticity check,
the symmetrization and the Jacobi rotations run on Python complex scalars
in nested lists: at 4x4 the per-call overhead of numpy row and column
slices costs far more than the arithmetic.  ``hermitian_eigenvalues``
skips the eigenvector accumulation that ``hermitian_eig`` does, and a
non-finite input entry raises ``ValueError``.  General n x n problems,
sparse storage and extended precision are out of scope; every matrix here
is tiny and dense with entries of order one.
"""

from __future__ import annotations

import math

import numpy as np

# Absolute tolerances, fixed once for the whole package (desk-scale inputs).
HERMITIAN_INPUT_TOL = 1e-10   # accepted Hermiticity defect of eigensolver inputs
JACOBI_OFF_TOL = 1e-14        # off-diagonal Frobenius norm at convergence
JACOBI_MAX_SWEEPS = 100
EXPM_TERM_TOL = 1e-18         # Taylor-term cutoff inside the matrix exponential
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


def _hermitian_rows(m: np.ndarray, tol: float) -> list:
    """Rows of (M + M^dagger)/2 as Python complex scalars, after checking that
    each entry's defect |x - conj(y)| (y the transposed entry) is within
    ``tol``; a non-finite entry gives a NaN or inf defect, which fails too."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    rows = m.tolist()
    sym = []
    for row, col in zip(rows, zip(*rows)):
        out = []
        for x, y in zip(row, col):
            y = y.conjugate()
            if not abs(x - y) <= tol:
                defect = hermiticity_defect(m)  # the largest, for the message
                raise ValueError(f"matrix is not Hermitian: defect {defect:.3e} exceeds {tol:.1e}")
            out.append(0.5 * (x + y))
        sym.append(out)
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
    off_diagonal = [(i, j) for i in range(n) for j in range(n) if i != j]
    for sweep in range(JACOBI_MAX_SWEEPS + 1):
        residual = math.hypot(*[abs(a[i][j]) for i, j in off_diagonal])
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
                tau = (a[q][q].real - a[p][p].real) / (2.0 * mag)
                sign = 1.0 if tau >= 0.0 else -1.0
                t = sign / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                s_phase = s * phase
                s_conj = s * phase.conjugate()
                # Columns: A <- A U with U[p,p]=U[q,q]=c, U[p,q]=s*phase,
                # U[q,p]=-s*conj(phase); then rows: A <- U^dagger A.
                for row in a:
                    x, y = row[p], row[q]
                    row[p] = c * x - s_conj * y
                    row[q] = s_phase * x + c * y
                row_p, row_q = a[p], a[q]
                for j in range(n):
                    x, y = row_p[j], row_q[j]
                    row_p[j] = c * x - s_phase * y
                    row_q[j] = s_conj * x + c * y
                if vt is not None:
                    vec_p, vec_q = vt[p], vt[q]
                    for j in range(n):
                        x, y = vec_p[j], vec_q[j]
                        vec_p[j] = c * x - s_conj * y
                        vec_q[j] = s_phase * x + c * y
    order = sorted(range(n), key=lambda i: -a[i][i].real)  # stable, descending
    return np.array([a[i][i].real for i in order]), order


def hermitian_eig(m: np.ndarray, tol: float = HERMITIAN_INPUT_TOL):
    """Eigenvalues ``w`` (descending) and orthonormal eigenvector columns ``v``
    of a Hermitian matrix (defect within ``tol``, else ``ValueError``) by
    cyclic Jacobi, so that ``m ~= v @ diag(w) @ v^dagger``."""
    a = _hermitian_rows(m, tol)
    vt = np.eye(len(a), dtype=complex).tolist()
    w, order = _jacobi(a, vt)
    return w, np.array([vt[i] for i in order], dtype=complex).T


def hermitian_eigenvalues(m: np.ndarray, tol: float = HERMITIAN_INPUT_TOL) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, sorted descending; skips the eigenvectors."""
    return _jacobi(_hermitian_rows(m, tol), None)[0]


def expm_real3(m: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(t*m) for a real 3x3 matrix, by scaling and squaring.

    The scaled matrix is exponentiated with a plain Taylor series truncated
    once the next term falls below ``EXPM_TERM_TOL``; the caller applies any
    physical prefactor (e.g. a -2t rate convention) to the argument.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"expected a real 3x3 matrix, got shape {m.shape}")
    if not (np.isfinite(m).all() and np.isfinite(t)):
        raise ValueError("matrix exponential requires finite entries")
    x = t * m
    norm = float(np.abs(x).sum(axis=1).max())
    squarings = 0 if norm <= 0.5 else int(np.ceil(np.log2(norm / 0.5)))
    x = x / (2.0 ** squarings)
    result = np.eye(3)
    term = np.eye(3)
    k = 1
    while True:
        term = term @ x / k
        result = result + term
        if float(np.abs(term).max()) < EXPM_TERM_TOL or k > 60:
            break
        k += 1
    for _ in range(squarings):
        result = result @ result
    return result


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two 2x2 matrices (standard block layout)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != (2, 2) or b.shape != (2, 2):
        raise ValueError(f"tensor expects two 2x2 matrices, got {a.shape} and {b.shape}")
    return np.kron(a, b)


def partial_transpose_first(m: np.ndarray) -> np.ndarray:
    """Transpose the first tensor factor of a 4x4 matrix (basis 00,01,10,11)."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"partial transpose expects a 4x4 matrix, got shape {m.shape}")
    return m.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)
