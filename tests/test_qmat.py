import numpy as np
import pytest
import scipy.linalg

from qslip import ModelParams, choi_matrix, evolve_isotropic, qmat, semigroup_action


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
    rng = np.random.default_rng(7)
    for n in (2, 3, 4):
        for _ in range(60):
            m = random_hermitian(rng, n)
            w, v = qmat.hermitian_eig(m)
            assert np.abs(m - v @ np.diag(w) @ v.conj().T).max() <= 1e-10
            assert abs(w.sum() - np.trace(m).real) <= 1e-10
            assert np.abs(v.conj().T @ v - np.eye(n)).max() <= 1e-10
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
        w, v = qmat.hermitian_eig(m)
        assert np.abs(w - np.linalg.eigvalsh(m)[::-1]).max() <= 1e-12
        assert np.abs(v @ np.diag(w) @ v.conj().T - m).max() <= 1e-12


def test_jacobi_raises_when_sweeps_run_out(monkeypatch):
    m = random_hermitian(np.random.default_rng(5), 4)
    qmat.hermitian_eig(m)  # converges under the default sweep cap
    monkeypatch.setattr(qmat, "JACOBI_MAX_SWEEPS", 1)
    with pytest.raises(RuntimeError, match="did not converge in 1 sweeps"):
        qmat.hermitian_eig(m)


def test_non_hermitian_rejected():
    m = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError):
        qmat.hermitian_eigenvalues(m)


def test_infinite_entry_rejected():
    # inf - inf gives a NaN Hermiticity defect, which must not pass the check.
    m = np.diag([np.inf, 1.0, 1.0, 1.0])
    for solve in (qmat.hermitian_eigenvalues, qmat.hermitian_eig):
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
    for m in cases:
        for solve in (qmat.hermitian_eigenvalues, qmat.hermitian_eig):
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
