"""Independent numerical cross-checks for the closed forms.

Fixed-step RK4 integration of the qubit master equation (and of its
one-sided two-qubit amplification), a deterministic coarse-grid plus
golden-section scalar maximizer, and the paper's product form of the
concurrence rate factor G.  None reuses the analytic propagator machinery:
the integrators and the product form read only the rates ``a``, ``b`` and
``omega`` of a ``ModelParams``, never a cached closed-form constant, which
is what makes them usable as oracles against it.

RK4 steps through a straight-line function generated from the nonzero
pattern of the vectorized generator and the initial state: every stage is
written out over the entries that move, with each entry and generator
value a local variable.  The generated source holds only indices and fixed
names, the values arrive as arguments, and the compiled function is cached
per pattern in a fixed-size ``functools.lru_cache``.

The maximizer reads only the curve it is given.  It evaluates its coarse
grid in one call on the grid array where the curve takes arrays, which the
closed forms' array paths make bit-identical to a per-point grid, and
otherwise point by point on Python floats.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import qmat
from ._timekernel import time_kernel
from .semigroup import ModelParams

# Fixed-step accuracy guard: the step must resolve the fastest rate.
MAX_STEP_RATE_PRODUCT = 0.01
# Step cap: a 4x4 trajectory of this length holds about 256 MB of states.
MAX_STEPS = 1_000_000

_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
_COARSE_POINTS = 1000
_BRACKET_TOL = 1e-10


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 configuration; defaults suit desk-scale rates."""

    step: float = 1e-4
    t_max: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "step", float(self.step))
        object.__setattr__(self, "t_max", float(self.t_max))
        if not (math.isfinite(self.step) and math.isfinite(self.t_max)):
            raise ValueError("integrator step and horizon must be finite")
        if self.step <= 0.0 or self.t_max <= 0.0:
            raise ValueError(f"step and t_max must be > 0, got {self.step}, {self.t_max}")
        if self.step > self.t_max:
            raise ValueError(f"step {self.step} exceeds horizon {self.t_max}")
        # round(t_max / step) > MAX_STEPS, without rounding an overflowed ratio.
        if self.t_max / self.step > MAX_STEPS + 0.5:
            raise ValueError(
                f"t_max/step must not exceed {MAX_STEPS} RK4 steps, "
                f"got t_max={self.t_max}, step={self.step}"
            )


class Trajectory(NamedTuple):
    """Sampled solution: times of shape (n+1,), states of shape (n+1, d, d)."""

    times: np.ndarray
    states: np.ndarray


def _check_accuracy(p: ModelParams, cfg: IntegratorConfig):
    fastest = max(p.a, p.b, p.omega)
    if cfg.step * fastest > MAX_STEP_RATE_PRODUCT:
        raise ValueError(
            f"step {cfg.step} too coarse for rates up to {fastest}: "
            f"step*rate must stay <= {MAX_STEP_RATE_PRODUCT}"
        )


def _check_state(rho: np.ndarray, dim: int) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} initial matrix, got shape {rho.shape}")
    if not qmat.hermiticity_defect(rho) <= qmat.HERMITIAN_INPUT_TOL:
        raise ValueError("initial matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-10 or abs(np.trace(rho).imag) > 1e-10:
        raise ValueError(f"initial matrix must have unit trace, got {np.trace(rho)}")
    return rho


def _dissipative_rhs(p: ModelParams, s1, s2, s3) -> Callable[[np.ndarray], np.ndarray]:
    a, b, w = p.a, p.b, p.omega

    def rhs(rho):
        return (
            (-1j * w) * (s3 @ rho - rho @ s3)
            + a * (s3 @ rho @ s3 - rho)
            - b * (s1 @ rho @ s2 + s2 @ rho @ s1)
        )

    return rhs


@functools.lru_cache(maxsize=32)
def _stepper(dim: int, live: tuple, columns: tuple):
    """The RK4 loop for one nonzero pattern, as one straight-line function
    compiled from generated source: ``live`` lists the stepped entries and
    ``columns[r]`` the nonzero columns of entry ``live[r]``'s generator row.
    The source holds only indices and fixed names (``g{i}_{j}`` for
    generator entry (i, j)); the call ``run(states, n, h, half, sixth, y, g)``
    passes the state entries ``y`` and the generator values ``g`` row by
    row, in column order."""
    stepped = set(live)
    rows = list(zip(live, columns))

    def stage(out: str, x: str) -> list:
        # Each row summed in column order; an entry outside `live` is constant.
        return [f"        {out}{i} = " + " + ".join(f"g{i}_{j} * {x if j in stepped else 'y'}{j}"
                                                    for j in cols)
                for i, cols in rows]

    def advance(scale: str, d: str) -> list:
        return [f"        x{i} = y{i} + {scale} * {d}{i}" for i in live]

    entries = ", ".join(f"y{i}" for i in range(dim))
    lines = ["def run(states, n, h, half, sixth, y, g):", f"    {entries}, = y"]
    if live:
        lines.append("    " + ", ".join(f"g{i}_{j}" for i, cols in rows for j in cols) + ", = g")
    lines += ["    for k in range(1, n + 1):",
              *stage("a", "y"), *advance("half", "a"),
              *stage("b", "x"), *advance("half", "b"),
              *stage("c", "x"), *advance("h", "c"),
              *stage("d", "x"),
              *[f"        y{i} = y{i} + sixth * (a{i} + (b{i} + b{i}) + (c{i} + c{i}) + d{i})"
                for i in live],
              f"        states[k] = ({entries},)"]
    namespace = {}
    exec(compile("\n".join(lines), "<rk4 stepper>", "exec"), namespace)
    return namespace["run"]


def _rk4(rhs, rho0: np.ndarray, cfg: IntegratorConfig) -> Trajectory:
    # Row j of rhs(basis) is vec(rhs(E_j)) (row-major vec), so its transpose
    # is the generator acting on vec(rho).  The state has 4 or 16 entries and
    # each generator row at most two nonzero ones (the rows of entries that
    # are diagonal in the bath qubit none): numpy's per-call overhead would
    # cost far more than the arithmetic, so the steps run on Python complex
    # scalars in one generated function per nonzero pattern (`_stepper`,
    # compiled once and cached): each entry and generator value is a local
    # variable, and every stage is written out over the live entries, so the
    # loop does no list, zip or call work.  Each row is summed in column
    # order from its first nonzero term by explicit additions (not sum(),
    # which newer Pythons compensate), as numpy's 4x4 mat-vec rounds, so
    # 2x2 trajectories are bit-identical to numpy mat-vecs of the dense
    # generator (an exact-zero term leaves a sum unchanged).  numpy's 16x16
    # mat-vec goes through BLAS, which rounds differently: 4x4 states differ
    # from it by at most about 4e-16.  The stages stay separate (one
    # collapsed step matrix shifts the round-off), and each step goes into
    # the preallocated array: at MAX_STEPS a list of Python complex objects
    # would hold several times its 256 MB.
    # Only rows that the initial state's nonzero entries reach through the
    # generator's nonzero pattern are stepped: any other entry starts at an
    # exact zero, to which its stages would only add zeros, and +0.0 plus a
    # zero of either sign is +0.0 (a -0.0 part could flip, so only an entry
    # that prints as 0j counts as zero).  Stage scalars are complex, as
    # Python would promote them on every multiply, and 2 d is d + d.
    dim = rho0.size
    basis = np.eye(dim, dtype=complex).reshape((dim,) + rho0.shape)
    gen = [[(j, v) for j, v in enumerate(row) if v]
           for row in rhs(basis).reshape(dim, dim).T.tolist()]
    y = rho0.reshape(-1).tolist()
    reach, grown = None, {j for j, v in enumerate(y) if v or str(v) != "0j"}
    while grown != reach:
        reach = grown
        grown = reach | {i for i, row in enumerate(gen) for j, _ in row if j in reach}
    live = tuple(i for i in sorted(reach) if gen[i])
    run = _stepper(dim, live, tuple(tuple(j for j, _ in gen[i]) for i in live))
    n = int(round(cfg.t_max / cfg.step))
    states = np.empty((n + 1, dim), dtype=complex)
    states[0] = y
    run(states, n, complex(cfg.step), complex(0.5 * cfg.step), complex(cfg.step / 6.0),
        y, [v for i in live for _, v in gen[i]])
    return Trajectory(cfg.step * np.arange(n + 1), states.reshape((n + 1,) + rho0.shape))


def _integrate(p: ModelParams, rho0, cfg: IntegratorConfig, s1, s2, s3) -> Trajectory:
    rho0 = _check_state(rho0, s1.shape[0])
    _check_accuracy(p, cfg)
    return _rk4(_dissipative_rhs(p, s1, s2, s3), rho0, cfg)


def integrate_master_2x2(p: ModelParams, rho0, cfg: IntegratorConfig) -> Trajectory:
    """RK4 integration of the single-qubit master equation

        d rho/dt = -i omega [s3, rho] + a (s3 rho s3 - rho)
                   - b (s1 rho s2 + s2 rho s1).
    """
    return _integrate(p, rho0, cfg, qmat.PAULI_1, qmat.PAULI_2, qmat.PAULI_3)


def integrate_master_4x4(p: ModelParams, rho0, cfg: IntegratorConfig) -> Trajectory:
    """RK4 integration of the amplified equation (bath on the first qubit only).

    Identical generator with each Pauli replaced by sigma_i (x) identity, so
    the second qubit rides along untouched.
    """
    s1, s2, s3 = (np.kron(s, qmat.IDENTITY_2) for s in (qmat.PAULI_1, qmat.PAULI_2, qmat.PAULI_3))
    return _integrate(p, rho0, cfg, s1, s2, s3)


def maximize_scalar(fn: Callable[[float], float], t_lo: float, t_hi: float):
    """Deterministic maximizer: 1000-point coarse grid, then golden section.

    The coarse grid locates the best bracket (beating the oscillation scale
    of every curve in this package), and golden-section search refines it to
    width ``_BRACKET_TOL``, or until the float bracket stops shrinking, since
    far from zero that width can lie below the float spacing.  Returns ``(t_at_max, value)``.

    ``fn`` takes a float.  The grid goes to it first as one array: a curve
    that answers with an array of the grid's shape is evaluated in that one
    call, which for the package's closed forms is bit-identical to calling
    it per point.  Any other curve (one that raises ``TypeError`` or
    ``ValueError`` on the array, or returns something else) gets the grid
    point by point as Python floats, where a genuine error raises.  So does
    a grid whose array arithmetic overflows, divides by zero or forms a NaN:
    numpy would warn there, where Python float arithmetic stays silent.  The
    golden section always calls ``fn`` on Python floats.
    """
    if not (-math.inf < t_lo < t_hi < math.inf):
        raise ValueError(f"need finite t_lo < t_hi, got {t_lo}, {t_hi}")
    grid = np.linspace(t_lo, t_hi, _COARSE_POINTS)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            values = fn(grid)
    except (TypeError, ValueError, FloatingPointError):
        values = None
    if not (isinstance(values, np.ndarray) and values.shape == grid.shape):
        values = [fn(t) for t in grid.tolist()]  # Python floats, as fn prefers
    best = int(np.argmax(values))
    lo = float(grid[max(best - 1, 0)])
    hi = float(grid[min(best + 1, _COARSE_POINTS - 1)])
    while hi - lo > _BRACKET_TOL:
        c = hi - (hi - lo) / _GOLDEN
        d = lo + (hi - lo) / _GOLDEN
        if not lo < c < d < hi:
            break
        if fn(c) >= fn(d):
            hi = d
        else:
            lo = c
    t_best = 0.5 * (lo + hi)
    return t_best, fn(t_best)


def rate_factor_product_form(p: ModelParams, t):
    """G(t) = (b^2 hyp / Omega^2) cos(2 Omega t + phi) sin(2 Omega t) - a, tan(phi) = a / Omega.

    The paper's form of ``qslip.bipartite.concurrence_rate_factor``, from the
    rates alone, for a scalar or an array t.  Near the creation threshold
    its peak is a small difference of large terms and reads their round-off.
    """
    t, k = time_kernel(t)
    big_omega = math.sqrt(p.omega * p.omega - p.b * p.b)
    scale = p.b * p.b * math.hypot(big_omega, p.a) / (big_omega * big_omega)
    x = 2.0 * big_omega * t
    return scale * k.cos(x + math.atan2(p.a, big_omega)) * k.sin(x) - p.a
