"""Dense linear-algebra kernel for the small complex matrices of the package.

Everything the rest of the package leans on lives here: the Pauli
matrices, a cyclic-Jacobi Hermitian eigensolver, and the partial transpose
over the first tensor factor.

The eigensolver is written out rather than delegated to LAPACK so that the
closed-form spectra elsewhere in the package are checked against genuinely
independent numerics.  It runs on Python complex scalars: at 4x4 the
per-call overhead of numpy slices costs far more than the arithmetic.  The
oracles feed X-shaped 4x4 matrices: the local map fixes ``1`` and ``s3``
and mixes ``s1`` with ``s2``, so the eight entries off the two decoupled
2x2 blocks ``{0, 3}`` and ``{1, 2}`` are exact zeros.  Such an input goes
to ``hermitian_x_eig``, one straight-line kernel on the two blocks held in
local variables; every other input goes to the dense loop.  Both check
each (i, j), (j, i) pair once, taking one defect and both symmetrized
halves from the inputs (conjugating one half could flip a zero's sign),
share one rotation formula, skip exact zeros (pivots, row and column pairs,
residual terms, symmetrization pairs) and hold the rotation cosine as a
complex number, as Python would promote it on every multiply.  On an
X-shaped input the dense loop only ever skips the zeros off the blocks, so
the kernel's eigenvalues and eigenvectors are bit-identical to it.  NaN and
inf are truthy: a non-finite entry off the blocks selects the dense loop,
and one facing a zero still reaches the Hermiticity check, which raises
``ValueError``.  ``hermitian_eigenvalues`` skips the eigenvector
accumulation that ``hermitian_eig`` does.  General n x n problems, sparse
storage and extended precision are out of scope; every matrix here is tiny
with entries of order one.
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


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(np.asarray(m).T)


def hermiticity_defect(m: np.ndarray) -> float:
    """max |M - M^dagger|, the absolute deviation from Hermiticity; NaN for
    a non-finite entry (inf - inf), so ``not defect <= tol`` rejects it."""
    m = np.asarray(m, dtype=complex)
    with np.errstate(invalid="ignore"):
        return float(np.abs(m - dagger(m)).max())


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


def _symmetrized_diagonal(x: complex, rows: list) -> complex:
    """``_symmetrized(x, x, rows)[0]`` with one conjugate and no tuple."""
    if not x:
        return 0j
    x_conj = x.conjugate()
    if not abs(x - x_conj) <= HERMITIAN_INPUT_TOL:
        raise _not_hermitian(rows)
    return 0.5 * (x + x_conj)


def _rotation(app: complex, aqq: complex, apq: complex) -> tuple:
    """``(c, s phase, s conj(phase))`` of the rotation that annihilates the
    nonzero pivot ``apq`` between the diagonal entries ``app`` and ``aqq``;
    ``c`` is held complex, as Python would promote it on every multiply."""
    mag = abs(apq)
    phase = apq / mag
    # Real rotation angle for the phase-stripped 2x2 block.
    tau = (aqq.real - app.real) / (mag + mag)
    sign = 1.0 if tau >= 0.0 else -1.0
    t = sign / (abs(tau) + math.sqrt(1.0 + tau * tau))
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c
    return complex(c), s * phase, s * phase.conjugate()


def _rotated_block(app: complex, apq: complex, aqp: complex, aqq: complex) -> tuple:
    """The block ``[[app, apq], [aqp, aqq]]`` after the rotation annihilating ``apq``,
    columns (A <- A U) then rows (A <- U^dagger A), and its ``_rotation`` triple."""
    c, s_phase, s_conj = _rotation(app, aqq, apq)
    if app or apq:
        app, apq = c * app - s_conj * apq, s_phase * app + c * apq
    if aqp or aqq:
        aqp, aqq = c * aqp - s_conj * aqq, s_phase * aqp + c * aqq
    if app or aqp:
        app, aqp = c * app - s_phase * aqp, s_conj * app + c * aqp
    if apq or aqq:
        apq, aqq = c * apq - s_phase * aqq, s_conj * apq + c * aqq
    return app, apq, aqp, aqq, c, s_phase, s_conj


def _rotated_pair(x: complex, y: complex, c: complex, u: complex, v: complex) -> tuple:
    """``(c x - u y, v x + c y)``, or ``(x, y)`` when both are exact zeros."""
    if x or y:
        return c * x - u * y, v * x + c * y
    return x, y


def hermitian_x_eig(rows: list, vectors: bool = False):
    """Cyclic Jacobi on the blocks ``{0, 3}`` and ``{1, 2}`` of an X-shaped
    4x4 Hermitian matrix given as ``M.tolist()``: the unsorted eigenvalues
    (by diagonal position) and, if ``vectors``, the eigenvector rows
    (``vt[i]`` belongs to eigenvalue ``i``), else None; None for any other
    input.  Checks, rotations, zero skips, residual and sweep budget are
    the dense loop's, so the results are bit-identical to it."""
    if len(rows) != 4:
        return None
    (a00, a01, a02, a03), (a10, a11, a12, a13), (a20, a21, a22, a23), (a30, a31, a32, a33) = rows
    if a01 or a02 or a10 or a13 or a20 or a23 or a31 or a32:
        return None
    a03, a30 = _symmetrized(a03, a30, rows)
    a12, a21 = _symmetrized(a12, a21, rows)
    a00, a11, a22, a33 = (_symmetrized_diagonal(a00, rows), _symmetrized_diagonal(a11, rows),
                          _symmetrized_diagonal(a22, rows), _symmetrized_diagonal(a33, rows))
    v00 = v11 = v22 = v33 = 1 + 0j
    v03 = v30 = v12 = v21 = 0j
    for sweep in range(JACOBI_MAX_SWEEPS + 1):
        residual = math.hypot(*[abs(x) for x in (a03, a12, a21, a30) if x])
        if residual <= JACOBI_OFF_TOL:
            break
        if sweep == JACOBI_MAX_SWEEPS:
            raise _unconverged(residual)
        if a03:
            a00, a03, a30, a33, c, s_phase, s_conj = _rotated_block(a00, a03, a30, a33)
            if vectors:
                v00, v30 = _rotated_pair(v00, v30, c, s_conj, s_phase)
                v03, v33 = _rotated_pair(v03, v33, c, s_conj, s_phase)
        if a12:
            a11, a12, a21, a22, c, s_phase, s_conj = _rotated_block(a11, a12, a21, a22)
            if vectors:
                v11, v21 = _rotated_pair(v11, v21, c, s_conj, s_phase)
                v12, v22 = _rotated_pair(v12, v22, c, s_conj, s_phase)
    vt = [[v00, 0j, 0j, v03], [0j, v11, v12, 0j], [0j, v21, v22, 0j], [v30, 0j, 0j, v33]]
    return [a00.real, a11.real, a22.real, a33.real], vt if vectors else None


def _jacobi(rows: list, vectors: bool):
    """The dense loop: cyclic Jacobi on the checked and symmetrized ``rows``
    of an n x n matrix, giving the unsorted eigenvalues and, if ``vectors``,
    the eigenvector rows.

    Each (p, q) rotation annihilates the pivot.  Sweeps stop once the
    off-diagonal Frobenius norm is within ``JACOBI_OFF_TOL`` (quadratic
    convergence makes ``JACOBI_MAX_SWEEPS`` generous at 4x4 scale) and raise
    ``RuntimeError`` when that budget runs out."""
    n = len(rows)
    span = range(n)
    a = [[0j] * n for _ in span]
    for i in span:
        for j in span[i:]:
            a[i][j], a[j][i] = _symmetrized(rows[i][j], rows[j][i], rows)
    vt = [[1 + 0j if i == j else 0j for j in span] for i in span] if vectors else None
    for sweep in range(JACOBI_MAX_SWEEPS + 1):
        residual = math.hypot(*[abs(x) for i, row in enumerate(a) for j, x in enumerate(row)
                                if i != j and x])
        if residual <= JACOBI_OFF_TOL:
            break
        if sweep == JACOBI_MAX_SWEEPS:
            raise _unconverged(residual)
        for p in span:
            for q in span[p + 1:]:
                if not a[p][q]:
                    continue
                c, s_phase, s_conj = _rotation(a[p][p], a[q][q], a[p][q])
                # Columns: A <- A U with U[p,p]=U[q,q]=c, U[p,q]=s*phase,
                # U[q,p]=-s*conj(phase); then rows: A <- U^dagger A.
                for row in a:
                    row[p], row[q] = _rotated_pair(row[p], row[q], c, s_conj, s_phase)
                row_p, row_q = a[p], a[q]
                for j in span:
                    row_p[j], row_q[j] = _rotated_pair(row_p[j], row_q[j], c, s_phase, s_conj)
                if vectors:
                    vec_p, vec_q = vt[p], vt[q]
                    for j in span:
                        vec_p[j], vec_q[j] = _rotated_pair(vec_p[j], vec_q[j], c, s_conj, s_phase)
    return [row[i].real for i, row in enumerate(a)], vt


def _eig(m: np.ndarray, vectors: bool):
    """Unsorted eigenvalues and eigenvector rows (None unless ``vectors``):
    the block kernel for an X-shaped 4x4, the dense loop for every other
    square matrix."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    rows = m.tolist()
    return hermitian_x_eig(rows, vectors) or _jacobi(rows, vectors)


def hermitian_eig(m: np.ndarray):
    """Eigenvalues ``w`` (descending) and orthonormal eigenvector columns ``v``
    of a Hermitian matrix (defect within ``HERMITIAN_INPUT_TOL``, else
    ``ValueError``) by cyclic Jacobi, so that ``m ~= v @ diag(w) @ v^dagger``."""
    diagonal, vt = _eig(m, True)
    order = sorted(range(len(diagonal)), key=diagonal.__getitem__, reverse=True)  # stable
    return np.array([diagonal[i] for i in order]), np.array([vt[i] for i in order], dtype=complex).T


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, sorted descending; skips the eigenvectors.
    The stable sort gives them in ``hermitian_eig``'s order."""
    return np.array(sorted(_eig(m, False)[0], reverse=True))


def partial_transpose_first(m: np.ndarray) -> np.ndarray:
    """Transpose the first tensor factor of a 4x4 matrix (basis 00,01,10,11)."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"partial transpose expects a 4x4 matrix, got shape {m.shape}")
    return m.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)
