import math
import re

import numpy as np
import pytest

from conftest import random_x_shaped, x_eig
from qslip import (
    ModelParams,
    SlippageChannel,
    choi_matrix,
    compose_actions,
    concurrence_wootters,
    evolve_isotropic,
    is_completely_positive,
    positivity_bound,
    qmat,
    semigroup_action,
    slippage_action,
)

# The eight entries off the two 2x2 blocks {0, 3} and {1, 2} of a 4x4.
OFF_X = np.ones((4, 4), dtype=bool)
OFF_X[[0, 0, 1, 1, 2, 2, 3, 3], [0, 3, 1, 2, 1, 2, 0, 3]] = False

NOT_X_SHAPED = re.escape("input is not X-shaped: nonzero entries off the blocks {0, 3} and {1, 2}")


def random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (m + m.conj().T)


def x_shaped_inputs(rng, n):
    """n seeded ``random_x_shaped`` and n of each X-shaped family the
    package builds: evolved isotropic states, their partial transposes and
    Choi matrices of slipped semigroup maps."""
    cases = [random_x_shaped(rng) for _ in range(n)]
    for _ in range(n):
        p = ModelParams(rng.uniform(0.0, 1.0), rng.uniform(0.05, 0.95))
        t = rng.uniform(0.0, 5.0)
        rho = evolve_isotropic(p, rng.uniform(0.0, 1.0), t)
        slipped = compose_actions(semigroup_action(p)(t),
                                  slippage_action(SlippageChannel(rng.uniform(0.0, 1.0))))
        cases += [rho, qmat.partial_transpose_first(rho), choi_matrix(slipped)]
    return cases


def char_poly_coeffs(m):
    """Characteristic polynomial coefficients by the Faddeev-LeVerrier
    recursion (no eigensolver involved)."""
    n = m.shape[0]
    coeffs = [1.0 + 0.0j]
    mk = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        mk = m @ mk
        ck = -np.trace(mk) / k
        mk = mk + ck * np.eye(n)
        coeffs.append(ck)
    return np.array(coeffs)


def test_identity_eigenvalues():
    w = qmat.hermitian_eigenvalues(np.eye(4, dtype=complex))
    assert np.abs(w - 1.0).max() == 0.0


def test_diagonal_eigenvalues():
    m = np.diag([3.0, 1.0, -1.0, -3.0]).astype(complex) / 4.0
    w = qmat.hermitian_eigenvalues(m)
    assert np.abs(w - np.array([0.75, 0.25, -0.25, -0.75])).max() < 1e-15


def test_eigendecomposition_reconstruction():
    for m in x_shaped_inputs(np.random.default_rng(7), 30):
        w, v = x_eig(m)
        assert np.abs(m - v @ np.diag(w) @ v.conj().T).max() <= 1e-10
        assert abs(w.sum() - np.trace(m).real) <= 1e-10
        assert np.abs(v.conj().T @ v - np.eye(4)).max() <= 1e-10
        assert (np.diff(w) <= 1e-14).all()


def test_jacobi_matches_characteristic_polynomial_roots():
    for m in x_shaped_inputs(np.random.default_rng(11), 10):
        w = qmat.hermitian_eigenvalues(m)
        roots = np.sort(np.roots(char_poly_coeffs(m)).real)[::-1]
        assert np.abs(w - roots).max() <= 1e-9


def test_jacobi_matches_library_eigenvalues_and_reconstructs():
    rng = np.random.default_rng(13)
    unitary = np.zeros((4, 4), dtype=complex)  # X-shaped: a random unitary on each block
    for block in ((0, 3), (1, 2)):
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        unitary[np.ix_(block, block)] = q
    cases = x_shaped_inputs(rng, 20) + [
        np.eye(4, dtype=complex),
        unitary @ np.diag([0.3, 0.3, -0.1, 0.5]) @ unitary.conj().T,  # repeated pair
    ]
    for m in cases:
        assert not m[OFF_X].any()
        assert np.abs(qmat.hermitian_eigenvalues(m) - np.linalg.eigvalsh(m)[::-1]).max() <= 1e-12
        w, v = x_eig(m)
        assert np.abs(v @ np.diag(w) @ v.conj().T - m).max() <= 1e-12


def test_block_kernel_reconstructs_at_entries_of_order_24():
    # At entries of order 24 the round-off of a rotated pivot would lie above
    # JACOBI_OFF_TOL; the rotation sets it to an exact zero, so one rotation
    # per block leaves the matrix diagonal.
    rng = np.random.default_rng(47)
    for _ in range(60):
        m = 24.0 * random_x_shaped(rng)
        w, v = x_eig(m)
        assert np.abs(v @ np.diag(w) @ v.conj().T - m).max() <= 1e-12


def large_x_shaped_inputs():
    """X-shaped 4x4s with entries up to 1e3: the round-off of a rotated
    pivot at this scale is far above the absolute JACOBI_OFF_TOL."""
    rng = np.random.default_rng(59)
    cases = []
    for _ in range(800):
        m = np.diag(rng.uniform(-1.0, 1.0, size=4)).astype(complex)
        for i, j in ((0, 3), (1, 2)):
            m[i, j] = complex(*rng.uniform(-1.0, 1.0, size=2))
            m[j, i] = m[i, j].conjugate()
        cases.append(1e3 * m)
    return cases


def test_jacobi_converges_on_large_entries():
    # With exact pivot zeros no round-off of the diagonal's scale is left
    # off the diagonal, whatever the absolute JACOBI_OFF_TOL.  Relative
    # bounds, as the entries reach 1e3.
    for m in large_x_shaped_inputs():
        scale = np.abs(m).max()
        assert np.abs(qmat.hermitian_eigenvalues(m) - np.linalg.eigvalsh(m)[::-1]).max() <= 1e-14 * scale
        w, v = x_eig(m)
        assert np.abs(v @ np.diag(w) @ v.conj().T - m).max() <= 1e-14 * scale


def test_eig_and_eigenvalues_give_equal_bits():
    # The block kernel's two branches, with and without eigenvectors, move
    # the diagonal by the one shift t|a_pq| of _tangent, and the
    # eigenvectors never feed back into it.
    rng = np.random.default_rng(67)
    cases = [random_x_shaped(rng) for _ in range(120)]
    for _ in range(40):
        p = ModelParams(rng.uniform(0.0, 1.0), rng.uniform(0.05, 0.95))
        m = evolve_isotropic(p, rng.uniform(0.0, 1.0), rng.uniform(0.0, 5.0))
        cases += [m, qmat.partial_transpose_first(m)]
    cases += large_x_shaped_inputs()[::10]
    for m in cases:
        assert qmat.hermitian_eigenvalues(m).tobytes() == x_eig(m)[0].tobytes()


def _not_x_shaped(case):
    x_shaped = evolve_isotropic(ModelParams(0.1, 0.9), 0.8, 0.7)
    if case == "pure":
        psi = np.array([1.0, 2.0j, -1.0, 0.5]) / 2.5
        return np.outer(psi, psi.conj())
    if case == "filled-in":
        return x_shaped + 1e-3 * OFF_X
    x_shaped[0, 1] = np.nan if case == "nan-off-the-blocks" else np.inf
    return x_shaped


@pytest.mark.parametrize("case", ["pure", "filled-in", "nan-off-the-blocks", "inf-off-the-blocks"])
@pytest.mark.parametrize("solve", [
    qmat.hermitian_eigenvalues,
    lambda m: qmat.hermitian_x_eig(m.tolist()),
    x_eig,
    concurrence_wootters,
], ids=["hermitian_eigenvalues", "hermitian_x_eig", "hermitian_x_eig-vectors", "concurrence_wootters"])
def test_every_oracle_rejects_a_matrix_that_is_not_x_shaped(solve, case):
    # A NaN or inf off the blocks is not an exact zero, so it reads as not
    # X-shaped before any Hermiticity check.
    m = _not_x_shaped(case)
    assert abs(np.trace(m) - 1.0) <= 1e-12  # so Wootters reaches the kernel
    with pytest.raises(ValueError, match=NOT_X_SHAPED):
        solve(m)


def test_choi_scan_rejects_a_map_that_is_not_x_shaped():
    # A rotation about s1 mixes s2 with s3, which fills in the Choi matrix
    # off its blocks.
    c, s = math.cos(0.3), math.sin(0.3)
    rotation = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                         [0.0, 0.0, c, -s], [0.0, 0.0, s, c]])
    assert choi_matrix(rotation)[OFF_X].any()
    with pytest.raises(ValueError, match=NOT_X_SHAPED):
        is_completely_positive(lambda t: rotation, [0.5])


def test_a_matrix_that_is_not_4x4_is_rejected():
    for n in (2, 3, 5):
        with pytest.raises(ValueError, match=re.escape(f"expected a 4x4 matrix, got shape ({n}, {n})")):
            qmat.hermitian_eigenvalues(np.eye(n))
        with pytest.raises(ValueError, match="values to unpack"):
            qmat.hermitian_x_eig(np.eye(n, dtype=complex).tolist())


def test_non_hermitian_x_shaped_input_rejected():
    # The block kernel checks every block entry before symmetrizing it.
    x_shaped = evolve_isotropic(ModelParams(0.1, 0.9), 0.8, 0.7)
    for i, j, bump in ((0, 3, 1e-6), (2, 1, 1e-6j), (3, 3, 1e-6j), (1, 1, 2e-6j)):
        m = x_shaped.copy()
        m[i, j] += bump
        assert not m[OFF_X].any()
        for solve in (qmat.hermitian_eigenvalues, x_eig):
            with pytest.raises(ValueError, match="not Hermitian: defect"):
                solve(m)


def test_non_hermitian_rejected():
    m = np.eye(4, dtype=complex)
    m[1, 2] = 1.0
    with pytest.raises(ValueError, match="not Hermitian: defect 1.000e\\+00"):
        qmat.hermitian_eigenvalues(m)


def test_infinite_entry_rejected():
    # inf - inf gives a NaN Hermiticity defect, which must not pass the check,
    # on the diagonal and in a block of an X-shaped state.
    x_shaped = evolve_isotropic(ModelParams(0.1, 0.9), 0.8, 0.7)
    x_shaped[1, 2] = x_shaped[2, 1] = np.inf
    assert not x_shaped[OFF_X].any()
    for m in (np.diag([np.inf, 1.0, 1.0, 1.0]), x_shaped):
        for solve in (qmat.hermitian_eigenvalues, x_eig):
            with pytest.raises(ValueError, match="not Hermitian: defect nan"):
                solve(m)


def test_nan_matrix_rejected():
    # The solver skips exact-zero pairs, but NaN is truthy: off the blocks a
    # NaN reads as not X-shaped, and in a block it reaches the Hermiticity
    # check, also where its mirror entry is 0.
    def with_nan(m, i, j):
        m = np.array(m, dtype=complex)
        m[i, j] = np.nan
        return m

    eye = np.eye(4)
    x_shaped = evolve_isotropic(ModelParams(0.1, 0.9), 0.8, 0.7)
    off_the_blocks = [np.full((4, 4), np.nan), with_nan(eye, 0, 2), with_nan(eye, 2, 0)]
    in_a_block = [with_nan(eye, 0, 3), with_nan(eye, 3, 0), with_nan(x_shaped, 0, 3)]
    for cases, message in ((off_the_blocks, NOT_X_SHAPED), (in_a_block, "not Hermitian: defect nan")):
        for m in cases:
            for solve in (qmat.hermitian_eigenvalues, x_eig):
                with pytest.raises(ValueError, match=message):
                    solve(m)


def test_partial_transpose_diagonal_fixed_point():
    m = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    assert np.abs(qmat.partial_transpose_first(m) - m).max() == 0.0


def test_partial_transpose_of_entangled_projector():
    p = np.zeros((4, 4), dtype=complex)
    p[0, 0] = p[0, 3] = p[3, 0] = p[3, 3] = 0.5
    w = qmat.hermitian_eigenvalues(qmat.partial_transpose_first(p))
    assert abs(w[-1] + 0.5) <= 1e-12


def test_partial_transpose_involution_trace_hermiticity():
    rng = np.random.default_rng(17)
    for _ in range(30):
        m = random_hermitian(rng, 4)
        pt = qmat.partial_transpose_first(m)
        assert np.abs(qmat.partial_transpose_first(pt) - m).max() == 0.0
        assert abs(np.trace(pt) - np.trace(m)) <= 1e-14
        assert qmat.hermiticity_defect(pt) <= 1e-14


# Eigenvalues and eigenvector columns (sorted as hermitian_eigenvalues
# sorts) of one evolved isotropic state, as float.hex, taken from the Jacobi
# that moves each pivot's diagonal pair by -+t|a_pq| and zeroes the pivot
# exactly (Rutishauser's update).  The Jacobi runs on Python scalars, so
# these bits hold wherever the input does; the evolved state's decay factor
# comes from numpy's exp.
_PINNED_EVOLVED_W = (
    '0x1.0dd5f2e0e3d13p-1', '0x1.5133b625efb24p-2',
    '0x1.f7b6cf5f47dcep-4', '0x1.532b04076b428p-6',
)
_PINNED_EVOLVED_V = (  # (real, imag) of each entry, row by row
    ('0x1.7f066452205dep-2', '-0x1.333cd6148e50fp-1'),
    ('0x0.0p+0', '0x0.0p+0'),
    ('0x1.6a09e667f3bccp-1', '0x0.0p+0'),
    ('0x0.0p+0', '0x0.0p+0'),
    ('0x0.0p+0', '0x0.0p+0'),
    ('0x0.0p+0', '0x1.6a09e667f3bccp-1'),
    ('0x0.0p+0', '0x0.0p+0'),
    ('0x1.6a09e667f3bccp-1', '0x0.0p+0'),
    ('0x0.0p+0', '0x0.0p+0'),
    ('0x1.6a09e667f3bccp-1', '0x0.0p+0'),
    ('0x0.0p+0', '0x0.0p+0'),
    ('0x0.0p+0', '0x1.6a09e667f3bccp-1'),
    ('0x1.6a09e667f3bccp-1', '0x0.0p+0'),
    ('0x0.0p+0', '0x0.0p+0'),
    ('-0x1.7f066452205dep-2', '-0x1.333cd6148e50fp-1'),
    ('0x0.0p+0', '0x0.0p+0'),
)


def assert_pinned(m, pinned_w, pinned_v):
    """hermitian_eigenvalues reads pinned_w; the block kernel with
    eigenvectors reads pinned_w and pinned_v."""
    assert [x.hex() for x in qmat.hermitian_eigenvalues(m).tolist()] == list(pinned_w)
    w, v = x_eig(m)
    assert [x.hex() for x in w.tolist()] == list(pinned_w)
    assert [(z.real.hex(), z.imag.hex()) for z in v.ravel().tolist()] == list(pinned_v)


def test_jacobi_bits_are_pinned():
    assert_pinned(evolve_isotropic(ModelParams(0.1, 0.9), 0.3, 0.7), _PINNED_EVOLVED_W,
                  _PINNED_EVOLVED_V)


# As above, for the partial transpose of an evolved isotropic state, the
# Choi matrix of a slipped semigroup map and a diagonal input (no pivot is
# nonzero, so nothing rotates).  The X-shaped eigenvectors kept their bits
# under Rutishauser's update (one rotation per block, with the same c and s);
# the eigenvalues moved in their last bits.
_PINNED_PT_W = (
    '0x1.b911bfaa0c652p-1', '0x1.2d6dbae03d612p-1',
    '0x1.3bb0d22c067b0p-5', '-0x1.f4750f5a145bdp-2',
)
_PINNED_PT_V = (  # (real, imag) of each entry, row by row
    ('0x0.0p+0', '-0x1.6a09e667f3bccp-1'),
    ('0x0.0p+0', '0x0.0p+0'),
    ('0x1.6a09e667f3bccp-1', '0x0.0p+0'),
    ('0x0.0p+0', '0x0.0p+0'),
    ('0x0.0p+0', '0x0.0p+0'),
    ('0x1.7f066452205ddp-2', '0x1.333cd6148e50fp-1'),
    ('0x0.0p+0', '0x0.0p+0'),
    ('0x1.6a09e667f3bccp-1', '0x0.0p+0'),
    ('0x0.0p+0', '0x0.0p+0'),
    ('0x1.6a09e667f3bccp-1', '0x0.0p+0'),
    ('0x0.0p+0', '0x0.0p+0'),
    ('-0x1.7f066452205ddp-2', '0x1.333cd6148e50fp-1'),
    ('0x1.6a09e667f3bccp-1', '0x0.0p+0'),
    ('0x0.0p+0', '0x0.0p+0'),
    ('0x0.0p+0', '-0x1.6a09e667f3bccp-1'),
    ('0x0.0p+0', '0x0.0p+0'),
)
_PINNED_CHOI_W = (
    '0x1.1af6a3892dd6ep-1', '0x1.c75529ed6dd04p-3',
    '0x1.942571db48a4ap-3', '0x1.c556b094917e0p-6',
)
_PINNED_CHOI_V = (  # (real, imag) of each entry, row by row
    ('-0x1.274b1769fbc64p-2', '-0x1.4a9058de1f158p-1'),
    ('0x0.0p+0', '0x0.0p+0'),
    ('0x1.6a09e667f3bccp-1', '0x0.0p+0'),
    ('0x0.0p+0', '0x0.0p+0'),
    ('0x0.0p+0', '0x0.0p+0'),
    ('0x0.0p+0', '0x1.6a09e667f3bccp-1'),
    ('0x0.0p+0', '0x0.0p+0'),
    ('0x1.6a09e667f3bccp-1', '0x0.0p+0'),
    ('0x0.0p+0', '0x0.0p+0'),
    ('0x1.6a09e667f3bccp-1', '0x0.0p+0'),
    ('0x0.0p+0', '0x0.0p+0'),
    ('0x0.0p+0', '0x1.6a09e667f3bccp-1'),
    ('0x1.6a09e667f3bccp-1', '0x0.0p+0'),
    ('0x0.0p+0', '0x0.0p+0'),
    ('0x1.274b1769fbc64p-2', '-0x1.4a9058de1f158p-1'),
    ('0x0.0p+0', '0x0.0p+0'),
)
_PINNED_DIAGONAL_W = (
    '0x1.999999999999ap-2', '0x1.999999999999ap-3',
    '0x1.999999999999ap-4', '-0x1.3333333333333p-2',
)


def test_jacobi_bits_are_pinned_on_x_shaped_and_diagonal_inputs():
    p = ModelParams(0.1, 0.9)
    slipped = compose_actions(semigroup_action(ModelParams(0.2, 0.6))(1.3),
                              slippage_action(SlippageChannel(0.5)))
    diagonal_v = np.eye(4, dtype=complex)[:, [1, 3, 0, 2]]
    cases = (
        (qmat.partial_transpose_first(evolve_isotropic(p, 0.8, 0.7)), _PINNED_PT_W, _PINNED_PT_V),
        (choi_matrix(slipped), _PINNED_CHOI_W, _PINNED_CHOI_V),
        (np.diag([0.1, 0.4, -0.3, 0.2]).astype(complex), _PINNED_DIAGONAL_W,
         tuple((z.real.hex(), z.imag.hex()) for z in diagonal_v.ravel().tolist())),
    )
    for case in cases:
        assert_pinned(*case)


def test_oracle_inputs_are_x_shaped():
    # The oracles take only inputs whose eight off-block entries are exact
    # zeros; a change that fills them in must fail here, as the oracles
    # would raise on it.
    rng = np.random.default_rng(43)
    for k in range(60):
        omega = rng.uniform(0.5, 2.0)
        b = 0.0 if k % 4 == 1 else rng.uniform(0.05, 0.95) * omega
        a = 0.0 if k % 4 == 0 else rng.uniform(0.0, 1.0)
        t = 0.0 if k % 4 == 2 else rng.uniform(0.0, 5.0)
        p = ModelParams(a, b, omega)
        rho = evolve_isotropic(p, rng.uniform(0.0, 1.0) * positivity_bound(p), t)
        slipped = compose_actions(semigroup_action(p)(t),
                                  slippage_action(SlippageChannel(positivity_bound(p))))
        for m in (rho, qmat.partial_transpose_first(rho), choi_matrix(slipped)):
            assert np.count_nonzero(m[OFF_X]) == 0
