import math

import numpy as np

from qslip import ModelParams, qmat

_PAULI_BASIS = np.stack((qmat.IDENTITY_2, qmat.PAULI_1, qmat.PAULI_2, qmat.PAULI_3))

# Parameter sets highlighted throughout the analysis (omega = 1 rescaling).
FIGURE_PARAMS = (
    ModelParams(0.1, 0.9),
    ModelParams(0.3, 0.8),
    ModelParams(0.1, 0.8),
    ModelParams(0.01, 0.4),
)

# One call of each CLI subcommand (acceptance criterion 13).
CLI_COMMANDS = (
    ("classify", "--a", "0.1", "--b", "0.9"),
    ("derive-params", "--g1", "2", "--g2", "1", "--g3", "1",
     "--lambda", "10", "--lambda3", "1", "--omega-tilde", "1"),
    ("eigs", "--a", "0.1", "--b", "0.9", "--mu", "0.2", "--steps", "100"),
    ("windows", "--a", "0.3", "--b", "0.8", "--steps", "400"),
    ("bounds", "--a", "0.3", "--b", "0.8"),
    ("verify", "--a", "0.1", "--b", "0.9", "--mu", "0.2", "--t-max", "0.5", "--step", "1e-3"),
    ("evolve", "--a", "0.1", "--b", "0.9", "--steps", "100"),
)


def random_model_params(rng: np.random.Generator) -> ModelParams:
    """Draw rates with omega in [0.5, 2], b strictly inside (0, omega)."""
    omega = rng.uniform(0.5, 2.0)
    b = rng.uniform(0.05, 0.95) * omega
    a = rng.uniform(0.0, 1.0)
    return ModelParams(a, b, omega)


def random_bloch_in_ball(rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the closed unit ball."""
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return v * rng.uniform(0.0, 1.0) ** (1.0 / 3.0)


def random_x_shaped(rng: np.random.Generator) -> np.ndarray:
    """Hermitian 4x4 with normal entries on its blocks {0, 3} and {1, 2} and
    exact zeros off them."""
    m = np.diag(rng.normal(size=4)).astype(complex)
    for i, j in ((0, 3), (1, 2)):
        m[i, j] = complex(*rng.normal(size=2))
        m[j, i] = m[i, j].conjugate()
    return m


def x_eig(m):
    """Eigenvalues, descending, and eigenvector columns of an X-shaped 4x4
    from ``qmat.hermitian_x_eig``, in the order of
    ``qmat.hermitian_eigenvalues`` (a stable sort).  Each block's rotation
    ``(t, phase)``, with ``c = 1/sqrt(1 + t^2)``, gives the eigenvector rows
    ``(c, -t c conj(phase))`` of ``w[p]`` and ``(t c phase, c)`` of ``w[q]``;
    a block that did not rotate keeps the identity rows."""
    w, rotations = qmat.hermitian_x_eig(np.asarray(m, dtype=complex).tolist())
    vt = [[1 + 0j if i == j else 0j for j in range(4)] for i in range(4)]
    for (p, q), rotation in zip(((0, 3), (1, 2)), rotations):
        if rotation:
            t, phase = rotation
            c = 1.0 / math.sqrt(1.0 + t * t)
            vt[p][p] = vt[q][q] = complex(c)
            vt[p][q], vt[q][p] = 0j - t * c * phase.conjugate(), t * c * phase + 0j
    order = sorted(range(4), key=w.__getitem__, reverse=True)
    return np.array([w[i] for i in order]), np.array([vt[i] for i in order], dtype=complex).T


def bloch_of(states):
    """Bloch vectors (n, 3) of a stack of 2x2 density matrices (n, 2, 2)."""
    return np.stack(
        [
            2.0 * states[:, 0, 1].real,
            -2.0 * states[:, 0, 1].imag,
            2.0 * states[:, 0, 0].real - 1.0,
        ],
        axis=-1,
    )


def pauli_images(action) -> np.ndarray:
    """The 2x2 images sum_j M[j, k] s_j of (1, s1, s2, s3) under a map with
    Pauli-basis matrix M, stacked along the first axis."""
    return np.einsum("jk,jab->kab", action, _PAULI_BASIS)
