"""Dense linear-algebra kernel for the small complex matrices of the package.

Everything the rest of the package leans on lives here: the Pauli
matrices, a cyclic-Jacobi Hermitian eigensolver, and the partial transpose
over the first tensor factor.

The eigensolver is written out rather than delegated to LAPACK so that the
closed-form spectra elsewhere in the package are checked against genuinely
independent numerics.  The Hermiticity check, the symmetrization and the
Jacobi rotations run on Python complex scalars in nested lists: at 4x4 the
per-call overhead of numpy row and column slices costs far more than the
arithmetic.  The oracles feed X-shaped 4x4 matrices: the local map fixes
``1`` and ``s3`` and mixes ``s1`` with ``s2``, so the eight entries off
the two decoupled 2x2 blocks ``{0, 3}`` and ``{1, 2}`` are exact zeros.
One layout, chosen once per call from the raw input, drives the
symmetrization pass and the sweep loop: an X-shaped 4x4 symmetrizes,
rotates and sums residuals over its two blocks only, and every other
input gets the dense layout of its size.  Within either layout the
loops skip exact zeros: zero pivots, row and column pairs that are both
zero (a rotation maps them to zeros), zero residual terms and zero
symmetrization pairs.  The check visits each (i, j), (j, i) pair once,
taking one defect and both symmetrized halves from the inputs
(conjugating one half could flip a zero's sign), and the rotation cosine
is held as a complex number, as Python would promote it on every
multiply.  Eigenvalues and eigenvectors stay bit-identical to the full
dense loops, since on an X-shaped input those only ever skip the zeros
the X layout leaves out; a dense input pays a little for the zero tests.
NaN and inf are truthy, so a non-finite entry off the blocks selects the
dense layout and a non-finite entry facing a zero still reaches the
Hermiticity check.  ``hermitian_eigenvalues`` skips the eigenvector
accumulation that ``hermitian_eig`` does, and a non-finite input entry
raises ``ValueError``.  General n x n problems, sparse storage and
extended precision are out of scope; every matrix here is tiny with
entries of order one.
"""

from __future__ import annotations

import math
from itertools import permutations
from typing import NamedTuple

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


class _Layout(NamedTuple):
    """Positions one Jacobi call visits: the upper triangle to symmetrize,
    the ``(p, q, span)`` pivots (``span``: the indices a rotation can
    change) and the off-diagonal residual terms in row-major order."""

    upper: tuple
    pivots: tuple
    off_diagonal: tuple


_OFF_X = ((0, 1), (0, 2), (1, 0), (1, 3), (2, 0), (2, 3), (3, 1), (3, 2))  # zero in an X
_X_LAYOUT = _Layout(
    upper=((0, 0), (0, 3), (1, 1), (1, 2), (2, 2), (3, 3)),
    pivots=((0, 3, (0, 3)), (1, 2, (1, 2))),
    off_diagonal=((0, 3), (1, 2), (2, 1), (3, 0)),
)
_DENSE_LAYOUTS: dict = {}  # by matrix size


def _layout(rows: list) -> _Layout:
    """The X layout if ``rows`` is a 4x4 whose off-X entries are all falsy
    (NaN and inf are truthy), else the dense layout of its size."""
    n = len(rows)
    if n == 4 and not any(rows[i][j] for i, j in _OFF_X):
        return _X_LAYOUT
    if n not in _DENSE_LAYOUTS:
        span = tuple(range(n))
        _DENSE_LAYOUTS[n] = _Layout(
            upper=tuple((i, j) for i in span for j in span[i:]),
            pivots=tuple((p, q, span) for p in span for q in span[p + 1:]),
            off_diagonal=tuple(permutations(span, 2)),
        )
    return _DENSE_LAYOUTS[n]


def _hermitian_rows(m: np.ndarray) -> tuple:
    """Rows of (M + M^dagger)/2 as Python complex scalars, and the layout
    the Jacobi sweeps follow, after checking that each entry's defect
    |x - conj(y)| (y the transposed entry) is within
    ``HERMITIAN_INPUT_TOL``; a non-finite entry gives a NaN or inf defect,
    which fails too."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    rows = m.tolist()
    layout = _layout(rows)
    sym = [[0j] * len(rows) for _ in rows]
    for i, j in layout.upper:
        x, y = rows[i][j], rows[j][i]
        if not (x or y):  # NaN and inf are truthy, so they reach the check
            continue
        y_conj = y.conjugate()
        if not abs(x - y_conj) <= HERMITIAN_INPUT_TOL:
            defect = hermiticity_defect(m)  # the largest, for the message
            raise ValueError(f"matrix is not Hermitian: defect {defect:.3e} "
                             f"exceeds {HERMITIAN_INPUT_TOL:.1e}")
        sym[i][j] = 0.5 * (x + y_conj)
        sym[j][i] = 0.5 * (y + x.conjugate())
    return sym, layout


def _jacobi(a: list, vt: list | None, layout: _Layout):
    """Cyclic Jacobi on the Hermitian rows ``a`` in place, rotating the rows
    of ``vt`` (the eigenvector columns) too unless it is None, over the
    pivots and residual positions of ``layout``.

    Each (p, q) rotation annihilates the pivot.  Sweeps stop once the
    off-diagonal Frobenius norm is within ``JACOBI_OFF_TOL`` (quadratic
    convergence makes ``JACOBI_MAX_SWEEPS`` generous at 4x4 scale) and raise
    ``RuntimeError`` when that budget runs out.  Returns the eigenvalues,
    sorted descending, and their positions on the diagonal."""
    n = len(a)
    for sweep in range(JACOBI_MAX_SWEEPS + 1):
        residual = math.hypot(*[abs(a[i][j]) for i, j in layout.off_diagonal if a[i][j]])
        if residual <= JACOBI_OFF_TOL:
            break
        if sweep == JACOBI_MAX_SWEEPS:
            raise RuntimeError(
                f"Jacobi did not converge in {JACOBI_MAX_SWEEPS} sweeps: "
                f"off-diagonal norm {residual:.3e} exceeds {JACOBI_OFF_TOL:.1e}"
            )
        for p, q, span in layout.pivots:
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
            for i in span:
                row = a[i]
                x, y = row[p], row[q]
                if not (x or y):
                    continue
                row[p] = c * x - s_conj * y
                row[q] = s_phase * x + c * y
            row_p, row_q = a[p], a[q]
            for j in span:
                x, y = row_p[j], row_q[j]
                if not (x or y):
                    continue
                row_p[j] = c * x - s_phase * y
                row_q[j] = s_conj * x + c * y
            if vt is not None:
                vec_p, vec_q = vt[p], vt[q]
                for j in span:
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
    a, layout = _hermitian_rows(m)
    vt = [[0j] * len(a) for _ in a]
    for i, vec in enumerate(vt):
        vec[i] = 1 + 0j
    w, order = _jacobi(a, vt, layout)
    return w, np.array([vt[i] for i in order], dtype=complex).T


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, sorted descending; skips the eigenvectors."""
    a, layout = _hermitian_rows(m)
    return _jacobi(a, None, layout)[0]


def partial_transpose_first(m: np.ndarray) -> np.ndarray:
    """Transpose the first tensor factor of a 4x4 matrix (basis 00,01,10,11)."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"partial transpose expects a 4x4 matrix, got shape {m.shape}")
    return m.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)
