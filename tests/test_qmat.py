import numpy as np
import pytest
import scipy.linalg

from conftest import random_x_shaped, x_eig
from qslip import (
    ModelParams,
    SlippageChannel,
    choi_matrix,
    compose_actions,
    evolve_isotropic,
    isotropic,
    positivity_bound,
    qmat,
    semigroup_action,
    slippage_action,
)

# The eight entries off the two 2x2 blocks {0, 3} and {1, 2} of a 4x4.
OFF_X = np.ones((4, 4), dtype=bool)
OFF_X[[0, 0, 1, 1, 2, 2, 3, 3], [0, 3, 1, 2, 1, 2, 0, 3]] = False


def random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (m + m.conj().T)


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
    # Eigenvectors come from the block kernel alone, so they are checked on
    # X-shaped inputs; the trace and the order on every size.
    rng = np.random.default_rng(7)
    for n in (2, 3, 4):
        for _ in range(60):
            m = random_hermitian(rng, n)
            w = qmat.hermitian_eigenvalues(m)
            assert abs(w.sum() - np.trace(m).real) <= 1e-10
            assert (np.diff(w) <= 1e-14).all()
    for _ in range(60):
        m = random_x_shaped(rng)
        w, v = x_eig(m)
        assert np.abs(m - v @ np.diag(w) @ v.conj().T).max() <= 1e-10
        assert abs(w.sum() - np.trace(m).real) <= 1e-10
        assert np.abs(v.conj().T @ v - np.eye(4)).max() <= 1e-10
        assert (np.diff(w) <= 1e-14).all()


def test_jacobi_matches_characteristic_polynomial_roots():
    rng = np.random.default_rng(11)
    for _ in range(25):
        m = random_hermitian(rng, 4)
        w = qmat.hermitian_eigenvalues(m)
        roots = np.sort(np.roots(char_poly_coeffs(m)).real)[::-1]
        assert np.abs(w - roots).max() <= 1e-9


def test_jacobi_matches_library_eigenvalues_and_reconstructs():
    rng = np.random.default_rng(13)
    unitary, _ = np.linalg.qr(random_hermitian(rng, 4) + 1j * np.eye(4))
    cases = [random_hermitian(rng, n) for n in (2, 3, 4) for _ in range(20)]
    cases += [
        np.eye(4, dtype=complex),
        unitary @ np.diag([0.3, 0.3, -0.1, 0.5]) @ unitary.conj().T,  # repeated pair
    ]
    for _ in range(20):
        p = ModelParams(rng.uniform(0.0, 1.0), rng.uniform(0.05, 0.95))
        t = rng.uniform(0.0, 5.0)
        cases.append(evolve_isotropic(p, rng.uniform(0.0, 1.0), t))  # X-shaped
        cases.append(choi_matrix(semigroup_action(p)(t)))
    for m in cases:
        assert np.abs(qmat.hermitian_eigenvalues(m) - np.linalg.eigvalsh(m)[::-1]).max() <= 1e-12
        if m.shape == (4, 4) and not m[OFF_X].any():
            w, v = x_eig(m)
            assert np.abs(v @ np.diag(w) @ v.conj().T - m).max() <= 1e-12


def test_jacobi_raises_when_sweeps_run_out(monkeypatch):
    m = random_hermitian(np.random.default_rng(5), 4)
    qmat.hermitian_eigenvalues(m)  # converges under the default sweep cap
    monkeypatch.setattr(qmat, "JACOBI_MAX_SWEEPS", 1)
    with pytest.raises(RuntimeError, match="did not converge in 1 sweeps"):
        qmat.hermitian_eigenvalues(m)
    # One rotation per block diagonalizes an X-shaped state, so only a cap
    # of 0 stops it short.
    x_shaped = evolve_isotropic(ModelParams(0.1, 0.9), 0.8, 0.7)
    monkeypatch.setattr(qmat, "JACOBI_MAX_SWEEPS", 0)
    for solve in (qmat.hermitian_eigenvalues, x_eig):
        with pytest.raises(RuntimeError, match="did not converge in 0 sweeps"):
            solve(x_shaped)


def test_block_kernel_sweeps_until_the_residual_is_within_tolerance(monkeypatch):
    # At entries of order 24 a rotated pivot used to keep a round-off residual
    # above JACOBI_OFF_TOL; the rotation now sets it to an exact zero, so one
    # sweep suffices.  The kernel agrees to the bit with the dense loop on the
    # permuted blocks.
    rng = np.random.default_rng(47)
    perm = (0, 3, 1, 2)
    cases = [24.0 * random_x_shaped(rng) for _ in range(60)]
    for m in cases:
        blocks = m[np.ix_(perm, perm)]
        assert qmat.hermitian_eigenvalues(m).tobytes() == qmat.hermitian_eigenvalues(blocks).tobytes()
        w, v = x_eig(m)
        assert np.abs(v @ np.diag(w) @ v.conj().T - m).max() <= 1e-12
    monkeypatch.setattr(qmat, "JACOBI_MAX_SWEEPS", 1)
    for m in cases:
        qmat.hermitian_eigenvalues(m)
        x_eig(m)


def large_hermitian_inputs():
    """X-shaped 4x4s with entries up to 1e3, dense Hermitian 4x4s scaled by
    64 and 1000 (isotropic(0.5) + 0.3 s1 x 1): the round-off of a rotated
    pivot at this scale is far above the absolute JACOBI_OFF_TOL."""
    rng = np.random.default_rng(59)
    cases = []
    for _ in range(800):
        m = np.diag(rng.uniform(-1.0, 1.0, size=4)).astype(complex)
        for i, j in ((0, 3), (1, 2)):
            m[i, j] = complex(*rng.uniform(-1.0, 1.0, size=2))
            m[j, i] = m[i, j].conjugate()
        cases.append(1e3 * m)
    cases += [64.0 * random_hermitian(rng, 4) for _ in range(200)]
    cases.append(1000.0 * (isotropic(0.5) + 0.3 * np.kron(qmat.PAULI_1, qmat.IDENTITY_2)))
    return cases


def test_jacobi_converges_on_large_entries():
    # With exact pivot zeros no round-off of the diagonal's scale is left
    # off the diagonal, so these converge under the absolute JACOBI_OFF_TOL.
    # Relative bounds, as the entries reach 1e3.
    for m in large_hermitian_inputs():
        scale = np.abs(m).max()
        assert np.abs(qmat.hermitian_eigenvalues(m) - np.linalg.eigvalsh(m)[::-1]).max() <= 1e-14 * scale
        if not m[OFF_X].any():
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
    cases += large_hermitian_inputs()[:800:10]
    for m in cases:
        assert qmat.hermitian_eigenvalues(m).tobytes() == x_eig(m)[0].tobytes()


def test_x_shaped_inputs_take_the_block_kernel(monkeypatch):
    # X-shaped 4x4 inputs go to hermitian_x_eig and never reach the dense
    # loop; any other input (a NaN or inf off the blocks included) does.
    x_shaped = evolve_isotropic(ModelParams(0.1, 0.9), 0.8, 0.7)
    w = qmat.hermitian_eigenvalues(x_shaped)

    def dense_loop(rows):
        raise AssertionError("dense loop")

    monkeypatch.setattr(qmat, "_jacobi", dense_loop)
    assert qmat.hermitian_eigenvalues(x_shaped).tobytes() == w.tobytes()
    others = [np.eye(3), np.eye(5), x_shaped + 1e-3 * OFF_X]
    for value in (np.nan, np.inf):
        m = x_shaped.copy()
        m[0, 1] = value
        others.append(m)
    for m in others:
        assert qmat.hermitian_x_eig(np.asarray(m, dtype=complex).tolist()) is None
        with pytest.raises(AssertionError, match="dense loop"):
            qmat.hermitian_eigenvalues(m)


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
    m = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError):
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
    # The solver skips exact-zero pairs, but NaN is truthy: a NaN whose
    # mirror entry is 0 must still reach the Hermiticity check.
    cases = [np.full((4, 4), np.nan)]
    for i, j in ((0, 2), (2, 0)):
        m = np.eye(4, dtype=complex)
        m[i, j] = np.nan
        cases.append(m)
    x_shaped = evolve_isotropic(ModelParams(0.1, 0.9), 0.8, 0.7)
    x_shaped[0, 3] = np.nan  # inside a block, where the X-shaped layout looks
    assert not x_shaped[OFF_X].any()
    cases.append(x_shaped)
    for m in cases:
        # NaN is truthy, so only the last case counts as X-shaped.
        for solve in (qmat.hermitian_eigenvalues,) + ((x_eig,) if not m[OFF_X].any() else ()):
            with pytest.raises(ValueError, match="not Hermitian: defect nan"):
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


# Eigenvalues and, from the block kernel, eigenvector columns (sorted as
# hermitian_eigenvalues sorts) of one evolved isotropic state, and the dense
# loop's eigenvalues of one seeded dense Hermitian 4x4, as float.hex, taken
# from the Jacobi that moves each pivot's diagonal pair by -+t|a_pq| and
# zeroes the pivot exactly (Rutishauser's update).  The Jacobi runs on Python
# scalars, so these bits hold wherever the input does: the dense input is
# plain arithmetic, while the evolved state's decay factor comes from numpy's
# exp.
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
_PINNED_DENSE_W = (
    '0x1.7a9c59064a53bp+1', '0x1.9d2893788f38dp+0',
    '-0x1.a212a723f6702p-1', '-0x1.3539efa9e8a58p+0',
)


def assert_pinned(m, pinned_w, pinned_v):
    """hermitian_eigenvalues reads pinned_w; for an X-shaped m (pinned_v not
    None) the block kernel with eigenvectors reads pinned_w and pinned_v."""
    assert [x.hex() for x in qmat.hermitian_eigenvalues(m).tolist()] == list(pinned_w)
    if pinned_v is not None:
        w, v = x_eig(m)
        assert [x.hex() for x in w.tolist()] == list(pinned_w)
        assert [(z.real.hex(), z.imag.hex()) for z in v.ravel().tolist()] == list(pinned_v)


def test_jacobi_bits_are_pinned():
    assert_pinned(evolve_isotropic(ModelParams(0.1, 0.9), 0.3, 0.7), _PINNED_EVOLVED_W,
                  _PINNED_EVOLVED_V)
    assert_pinned(random_hermitian(np.random.default_rng(2024), 4), _PINNED_DENSE_W, None)


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


def test_x_shaped_and_block_diagonal_permutation_give_equal_bits():
    # Permuting rows and columns by (0, 3, 1, 2) turns the X into two
    # diagonal blocks, whose nonzero (0, 1) entry sends the solver down the
    # dense layout.  Both rotate the same two blocks with the same
    # arithmetic, so the eigenvalues agree to the bit; only the residual
    # sums their terms in another order, so the sample is seeded.
    rng = np.random.default_rng(31)
    perm = (0, 3, 1, 2)
    cases = [random_x_shaped(rng) for _ in range(100)]
    for _ in range(40):
        p = ModelParams(rng.uniform(0.0, 1.0), rng.uniform(0.05, 0.95))
        cases.append(evolve_isotropic(p, rng.uniform(0.0, 1.0), rng.uniform(0.0, 5.0)))
    for m in cases:
        assert not m[OFF_X].any()
        blocks = m[np.ix_(perm, perm)]
        assert blocks[0, 1] != 0.0 or blocks[2, 3] != 0.0
        assert qmat.hermitian_eigenvalues(m).tobytes() == qmat.hermitian_eigenvalues(blocks).tobytes()


def test_oracle_inputs_are_x_shaped():
    # The sweeps take their fast layout only on inputs whose eight off-block
    # entries are exact zeros; a change that fills them in must fail here
    # rather than quietly cost the oracles the dense sweeps.
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
