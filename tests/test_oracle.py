import ast
import functools
import importlib
import inspect
import math
import pkgutil
from pathlib import Path

import numpy as np
import pytest

from conftest import bloch_of, random_model_params
from qslip import (
    BlochVector,
    IntegratorConfig,
    ModelParams,
    bloch_trajectory,
    evolve_isotropic,
    integrate_master_2x2,
    integrate_master_4x4,
    isotropic,
    maximize_scalar,
    norm_bound_curve,
    r4_curve,
    r4_max,
    concurrence_rate_factor,
    rate_factor_max,
)
import qslip
from qslip import crosscheck, oracle, qmat
from qslip.oracle import MAX_STEPS

# Test-only surface that was removed from the package; none may come back.
_DELETED_NAMES = ("kraus_operators", "kraus_apply", "apply_slippage", "identity_action",
                  "generator_split", "exit_rate", "as_array", "require_state",
                  "symmetric_projector", "partial_transpose_spectrum_check", "generator",
                  "propagate", "from_density_matrix", "norm_squared", "_g_max", "_check_mu",
                  "_checked_mu", "dagger", "bloch_propagator", "hermitian_eig", "_eig",
                  "_spectrum", "_FLIP_SIGNS", "_jacobi", "_rotated_pair", "_unconverged",
                  "JACOBI_MAX_SWEEPS", "JACOBI_OFF_TOL", "_rotation", "CP_EIG_FLOOR")


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(step=0.0, t_max=1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(step=1e-3, t_max=-1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(step=2.0, t_max=1.0)


def test_config_caps_step_count():
    IntegratorConfig(step=1.0, t_max=float(MAX_STEPS))  # exactly at the cap
    for step, t_max in ((1e-4, 1e7), (5e-324, 1.0)):  # the second ratio overflows
        with pytest.raises(ValueError, match=f"must not exceed {MAX_STEPS} RK4 steps"):
            IntegratorConfig(step=step, t_max=t_max)


def test_step_accuracy_guard():
    p = ModelParams(0.1, 0.9)
    rho0 = BlochVector(0.0, 0.0, 1.0).to_density_matrix()
    with pytest.raises(ValueError):
        integrate_master_2x2(p, rho0, IntegratorConfig(step=0.05, t_max=1.0))


def test_initial_state_validation():
    p = ModelParams(0.1, 0.9)
    cfg = IntegratorConfig(step=1e-3, t_max=0.1)
    with pytest.raises(ValueError):
        integrate_master_2x2(p, np.array([[1.0, 1.0], [0.0, 0.0]]), cfg)  # not Hermitian
    with pytest.raises(ValueError):
        integrate_master_2x2(p, np.eye(2), cfg)  # trace 2


def test_non_finite_initial_state_rejected():
    # An all-NaN matrix has a NaN Hermiticity defect and a NaN trace; it
    # used to pass both checks and integrate to a NaN trajectory.
    p = ModelParams(0.1, 0.9)
    cfg = IntegratorConfig(step=1e-3, t_max=0.1)
    for integrate, dim in ((integrate_master_2x2, 2), (integrate_master_4x4, 4)):
        with pytest.raises(ValueError, match="not Hermitian"):
            integrate(p, np.full((dim, dim), np.nan), cfg)


def test_unitary_limit_conserves_norm():
    # a = b = 0: pure precession.
    rho0 = BlochVector(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), 0.0).to_density_matrix()
    traj = integrate_master_2x2(ModelParams(0.0, 0.0, 1.0), rho0, IntegratorConfig(step=1e-3, t_max=1.0))
    norms = np.sqrt((bloch_of(traj.states) ** 2).sum(axis=1))
    assert np.abs(norms - 1.0).max() <= 1e-10


def test_matches_analytic_propagator():
    r0 = BlochVector(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), 0.0)
    cfg = IntegratorConfig(step=1e-4, t_max=0.5)
    assert crosscheck.propagator_vs_rk4(ModelParams(0.1, 0.9), r0, cfg) <= 1e-8


def test_trace_and_hermiticity_preserved():
    p = ModelParams(0.3, 0.8)
    r0 = BlochVector(0.3, -0.4, 0.2)
    traj = integrate_master_2x2(p, r0.to_density_matrix(), IntegratorConfig(step=1e-3, t_max=5.0))
    traces = np.einsum("kii->k", traj.states)
    assert np.abs(traces - 1.0).max() <= 1e-10
    defects = np.abs(traj.states - np.conj(np.swapaxes(traj.states, 1, 2))).max()
    assert defects <= 1e-10


def test_rk4_order_of_convergence():
    p = ModelParams(0.1, 0.9)
    r0 = BlochVector(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), 0.0)

    def final_error(step):
        traj = integrate_master_2x2(p, r0.to_density_matrix(), IntegratorConfig(step=step, t_max=1.0))
        analytic = bloch_trajectory(p, r0, traj.times[-1:])
        return np.abs(bloch_of(traj.states[-1:]) - analytic).max()

    ratio = final_error(4e-3) / final_error(2e-3)
    assert 12.0 <= ratio <= 20.0


# Longer horizon and larger steps than test_rk4_order_of_convergence: the
# errors (about 1e-10) sit far above round-off, so the ratio reads 16.02.
def test_rk4_order_of_convergence_2x2_long_horizon():
    p = ModelParams(0.1, 0.9)
    r0 = BlochVector(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), 0.0)

    def max_error(step):
        traj = integrate_master_2x2(p, r0.to_density_matrix(), IntegratorConfig(step=step, t_max=5.0))
        return np.abs(bloch_of(traj.states) - bloch_trajectory(p, r0, traj.times)).max()

    ratio = max_error(1e-2) / max_error(5e-3)
    assert 15.0 <= ratio <= 17.0


def test_rk4_order_of_convergence_4x4_long_horizon():
    p = ModelParams(0.1, 0.9)
    mu = 0.2

    def max_error(step):
        traj = integrate_master_4x4(p, isotropic(mu), IntegratorConfig(step=step, t_max=5.0))
        return max(
            np.abs(state - evolve_isotropic(p, mu, t)).max()
            for t, state in zip(traj.times, traj.states)
        )

    ratio = max_error(1e-2) / max_error(5e-3)
    assert 15.0 <= ratio <= 17.0


# Final state of integrate_master_2x2 at (0.1, 0.9) from R_+ = (1, 1, 0)/sqrt(2),
# step 1e-3 to t = 0.5, as float.hex (real, imag) pairs, taken from the numpy
# stage loop that the scalar stepper replaced.  Python complex arithmetic has
# no BLAS or FMA path, so these bits hold on every platform.
_PINNED_2X2_FINAL = (
    ("0x1.0000000000000p-1", "0x0.0p+0"),
    ("-0x1.31ef699047df8p-2", "-0x1.48afa7ee63006p-2"),
    ("-0x1.31ef699047df8p-2", "0x1.48afa7ee63006p-2"),
    ("0x1.0000000000000p-1", "0x0.0p+0"),
)


def test_2x2_stepper_bits_are_pinned():
    r0 = BlochVector(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), 0.0)
    traj = integrate_master_2x2(ModelParams(0.1, 0.9), r0.to_density_matrix(),
                                IntegratorConfig(step=1e-3, t_max=0.5))
    final = [(z.real.hex(), z.imag.hex()) for z in traj.states[-1].ravel().tolist()]
    assert final == list(_PINNED_2X2_FINAL)


def numpy_stage_loop_4x4(p, rho0, cfg):
    """Reference RK4: the dense 16x16 generator, built from the amplified
    right-hand side, stepped by numpy mat-vecs in the same stage form."""
    s1, s2, s3 = (np.kron(s, qmat.IDENTITY_2) for s in (qmat.PAULI_1, qmat.PAULI_2, qmat.PAULI_3))

    def rhs(rho):
        return ((-1j * p.omega) * (s3 @ rho - rho @ s3) + p.a * (s3 @ rho @ s3 - rho)
                - p.b * (s1 @ rho @ s2 + s2 @ rho @ s1))

    gen = np.ascontiguousarray(rhs(np.eye(16, dtype=complex).reshape(16, 4, 4)).reshape(16, 16).T)
    h = cfg.step
    y = np.asarray(rho0, dtype=complex).reshape(-1)
    states = [y]
    for _ in range(int(round(cfg.t_max / h))):
        k1 = gen @ y
        k2 = gen @ (y + (0.5 * h) * k1)
        k3 = gen @ (y + (0.5 * h) * k2)
        k4 = gen @ (y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(y)
    return np.array(states).reshape(-1, 4, 4)


def test_4x4_stepper_matches_numpy_stage_loop():
    # The scalar stepper sums each row in column order; the 16x16 numpy
    # mat-vec may round differently (BLAS), so the two agree to 1e-15.
    rng = np.random.default_rng(31)
    points = [ModelParams(0.0, 0.7, 1.2), random_model_params(rng), random_model_params(rng)]
    cfg = IntegratorConfig(step=1e-3, t_max=0.4)
    for p in points:
        rho0 = isotropic(rng.uniform(0.0, 1.0))
        traj = integrate_master_4x4(p, rho0, cfg)
        assert np.abs(traj.states - numpy_stage_loop_4x4(p, rho0, cfg)).max() <= 1e-15, p


def test_stepper_steps_only_entries_reachable_from_the_initial_state():
    p = ModelParams(0.1, 0.9)
    cfg = IntegratorConfig(step=1e-3, t_max=0.4)
    # Isotropic start: the generator couples each entry that is off-diagonal
    # in the bath qubit only to itself and its bath-flipped partner, so the
    # corners never reach (0,2), (2,0), (1,3) or (3,1): they stay exactly
    # +0.0 (all-zero bytes) at every step.
    rho0 = isotropic(0.6)
    traj = integrate_master_4x4(p, rho0, cfg)
    unreached = traj.states[:, [0, 2, 1, 3], [2, 0, 3, 1]]
    assert unreached.tobytes() == bytes(unreached.nbytes)
    assert np.abs(traj.states - numpy_stage_loop_4x4(p, rho0, cfg)).max() <= 1e-15
    # A dense start reaches every entry.
    rng = np.random.default_rng(17)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    dense = g @ g.conj().T
    dense = 0.5 * (dense + dense.conj().T) / np.trace(dense).real
    traj = integrate_master_4x4(p, dense, cfg)
    assert np.abs(traj.states - numpy_stage_loop_4x4(p, dense, cfg)).max() <= 1e-15
    # A pole has no coherence to step: its trajectory is constant.
    pole = BlochVector(0.0, 0.0, 1.0).to_density_matrix()
    states = integrate_master_2x2(p, pole, cfg).states
    assert states.tobytes() == np.broadcast_to(pole, states.shape).tobytes()


# Final states of integrate_master_4x4 at (0.1, 0.9), step 1e-3 to t = 0.4,
# from isotropic(0.6) and from the seeded dense start above, as float.hex
# (real, imag) pairs, taken from the row-loop stepper that the generated
# straight-line stepper replaced.  The stepping is plain Python complex
# arithmetic; the dense start itself comes from numpy matmuls, so its pin
# holds for one numpy build.
_PINNED_4X4_ISOTROPIC_FINAL = (
    ("0x1.999999999999ap-2", "0x0.0p+0"), ("0x0.0p+0", "0x0.0p+0"),
    ("0x0.0p+0", "0x0.0p+0"), ("0x1.0a837baa8f8b7p-2", "-0x1.bc971dad23f47p-3"),
    ("0x0.0p+0", "0x0.0p+0"), ("0x1.999999999999ap-4", "0x0.0p+0"),
    ("-0x1.803db22d0e561p-55", "0x1.90219ab56d288p-3"), ("0x0.0p+0", "0x0.0p+0"),
    ("0x0.0p+0", "0x0.0p+0"), ("-0x1.803db22d0e561p-55", "-0x1.90219ab56d288p-3"),
    ("0x1.999999999999ap-4", "0x0.0p+0"), ("0x0.0p+0", "0x0.0p+0"),
    ("0x1.0a837baa8f8b7p-2", "0x1.bc971dad23f47p-3"), ("0x0.0p+0", "0x0.0p+0"),
    ("0x0.0p+0", "0x0.0p+0"), ("0x1.999999999999ap-2", "0x0.0p+0"),
)
_PINNED_4X4_DENSE_FINAL = (
    ("0x1.cdfdceffaa634p-4", "0x0.0p+0"), ("0x1.5bc803b471fbep-8", "-0x1.fa313ba55f8edp-4"),
    ("-0x1.506e8a48370a2p-5", "-0x1.859fef789597fp-7"), ("-0x1.c6a1ecf22cc51p-5", "0x1.f67965f8bd81ap-4"),
    ("0x1.5bc803b471fbep-8", "0x1.fa313ba55f8edp-4"), ("0x1.66762c44749ffp-3", "0x0.0p+0"),
    ("0x1.493e8995c17e6p-4", "-0x1.2b3a8cf04000cp-4"), ("-0x1.26ae93049d192p-3", "-0x1.753432a4501b7p-4"),
    ("-0x1.506e8a48370a2p-5", "0x1.859fef789597fp-7"), ("0x1.493e8995c17e6p-4", "0x1.2b3a8cf04000cp-4"),
    ("0x1.472940a50a381p-2", "0x0.0p+0"), ("0x1.864c44493fd09p-5", "-0x1.3739c148ee88ap-3"),
    ("-0x1.c6a1ecf22cc51p-5", "-0x1.f67965f8bd81ap-4"), ("-0x1.26ae93049d192p-3", "0x1.753432a4501b7p-4"),
    ("0x1.864c44493fd09p-5", "0x1.3739c148ee88ap-3"), ("0x1.921c3578d0df3p-2", "0x0.0p+0"),
)


def test_4x4_stepper_bits_are_pinned():
    p = ModelParams(0.1, 0.9)
    cfg = IntegratorConfig(step=1e-3, t_max=0.4)
    rng = np.random.default_rng(17)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    dense = g @ g.conj().T
    dense = 0.5 * (dense + dense.conj().T) / np.trace(dense).real
    for rho0, pinned in ((isotropic(0.6), _PINNED_4X4_ISOTROPIC_FINAL), (dense, _PINNED_4X4_DENSE_FINAL)):
        traj = integrate_master_4x4(p, rho0, cfg)
        final = [(z.real.hex(), z.imag.hex()) for z in traj.states[-1].ravel().tolist()]
        assert final == list(pinned)


def row_loop_rk4(p, rho0, cfg, paulis):
    """Reference RK4: every generator row's nonzero terms summed in column
    order on Python complex scalars, in the stage form of the generated
    stepper, with no pruning of unreached entries and no generated code."""
    s1, s2, s3 = paulis

    def rhs(rho):
        return ((-1j * p.omega) * (s3 @ rho - rho @ s3) + p.a * (s3 @ rho @ s3 - rho)
                - p.b * (s1 @ rho @ s2 + s2 @ rho @ s1))

    dim = rho0.size
    basis = np.eye(dim, dtype=complex).reshape((dim,) + rho0.shape)
    gen = [[(j, v) for j, v in enumerate(row) if v] for row in rhs(basis).reshape(dim, dim).T.tolist()]

    def apply(x):
        out = []
        for row in gen:
            acc = row[0][1] * x[row[0][0]] if row else 0j  # an empty row's entry is constant
            for j, v in row[1:]:
                acc += v * x[j]
            out.append(acc)
        return out

    h, half, sixth = complex(cfg.step), complex(0.5 * cfg.step), complex(cfg.step / 6.0)
    live = {i for i in range(dim) if gen[i]}
    y = rho0.reshape(-1).tolist()
    states = [y[:]]
    for _ in range(int(round(cfg.t_max / cfg.step))):
        k1 = apply(y)
        x = [y[i] + half * k1[i] if i in live else y[i] for i in range(dim)]
        k2 = apply(x)
        x = [y[i] + half * k2[i] if i in live else y[i] for i in range(dim)]
        k3 = apply(x)
        x = [y[i] + h * k3[i] if i in live else y[i] for i in range(dim)]
        k4 = apply(x)
        y = [y[i] + sixth * (k1[i] + (k2[i] + k2[i]) + (k3[i] + k3[i]) + k4[i]) if i in live else y[i]
             for i in range(dim)]
        states.append(y)
    return np.array(states).reshape((-1,) + rho0.shape)


def test_stepper_matches_the_row_loop_to_the_bit():
    # Rates with a = 0 or b = 0 change the generator's nonzero pattern, and
    # the starts differ in which entries they reach.
    rng = np.random.default_rng(73)
    cfg = IntegratorConfig(step=1e-3, t_max=0.03)
    paulis_2 = (qmat.PAULI_1, qmat.PAULI_2, qmat.PAULI_3)
    paulis_4 = tuple(np.kron(s, qmat.IDENTITY_2) for s in paulis_2)
    for k in range(12):
        p = random_model_params(rng)
        if k % 4 == 1:
            p = ModelParams(0.0, p.b, p.omega)
        if k % 4 == 2:
            p = ModelParams(p.a, 0.0, p.omega)
        qubit = BlochVector(*rng.uniform(-0.5, 0.5, size=3)).to_density_matrix()
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        dense = g @ g.conj().T
        dense = 0.5 * (dense + dense.conj().T) / np.trace(dense).real
        cases = [(integrate_master_2x2, qubit, paulis_2),
                 (integrate_master_4x4, isotropic(rng.uniform(0.0, 1.0)), paulis_4),
                 (integrate_master_4x4, dense, paulis_4),
                 (integrate_master_4x4, np.kron(qubit, np.diag([0.3, 0.7])), paulis_4)]
        for integrate, rho0, paulis in cases:
            states = integrate(p, rho0, cfg).states
            assert states.tobytes() == row_loop_rk4(p, rho0, cfg, paulis).tobytes(), (p, rho0)


def test_stepper_is_compiled_once_per_nonzero_pattern():
    # The generated source holds indices and fixed names only, so a run at
    # other rates with the same nonzero pattern reuses the compiled stepper,
    # and the cache holds a fixed number of patterns.
    oracle._stepper.cache_clear()
    cfg = IntegratorConfig(step=1e-3, t_max=0.01)
    for p in (ModelParams(0.1, 0.9), ModelParams(0.3, 0.8, 1.5)):
        integrate_master_4x4(p, isotropic(0.6), cfg)
        integrate_master_2x2(p, BlochVector(0.3, 0.2, 0.1).to_density_matrix(), cfg)
    info = oracle._stepper.cache_info()
    assert (info.misses, info.hits, info.maxsize) == (2, 2, 32)


def test_4x4_product_state_evolves_first_factor_only():
    # Checks the vectorization layout: rho (x) sigma must follow rho(t) (x) sigma.
    p = ModelParams(0.3, 0.8)
    cfg = IntegratorConfig(step=1e-3, t_max=1.0)
    rho = BlochVector(0.3, -0.4, 0.2).to_density_matrix()
    sigma = BlochVector(-0.5, 0.1, 0.6).to_density_matrix()
    single = integrate_master_2x2(p, rho, cfg).states
    joint = integrate_master_4x4(p, np.kron(rho, sigma), cfg).states
    expected = np.einsum("kij,lm->kiljm", single, sigma).reshape(-1, 4, 4)
    assert np.abs(joint - expected).max() <= 1e-13


def test_4x4_maximally_mixed_is_fixed():
    p = ModelParams(0.1, 0.9)
    traj = integrate_master_4x4(p, np.eye(4, dtype=complex) / 4.0, IntegratorConfig(step=1e-3, t_max=0.5))
    assert np.abs(traj.states - np.eye(4) / 4.0).max() <= 1e-12


def test_4x4_matches_closed_form_evolution():
    p = ModelParams(0.1, 0.9)
    mu = 0.3
    traj = integrate_master_4x4(p, isotropic(mu), IntegratorConfig(step=1e-4, t_max=0.3))
    expected = evolve_isotropic(p, mu, traj.times[-1])
    assert np.abs(traj.states[-1] - expected).max() <= 1e-8


def test_4x4_ancilla_state_is_constant():
    p = ModelParams(0.3, 0.8)
    traj = integrate_master_4x4(p, isotropic(0.6), IntegratorConfig(step=1e-3, t_max=1.0))
    reduced = np.einsum("kaiaj->kij", traj.states.reshape(-1, 2, 2, 2, 2))
    assert np.abs(reduced - reduced[0]).max() <= 1e-10


def test_maximizer_parabola():
    t, v = maximize_scalar(lambda x: -((x - 1.0) ** 2), 0.0, 2.0)
    assert abs(t - 1.0) <= 1e-10
    assert abs(v) <= 1e-12


def test_maximizer_validation():
    with pytest.raises(ValueError):
        maximize_scalar(lambda x: x, 1.0, 1.0)


@pytest.mark.parametrize("t_lo, t_hi", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)])
def test_maximizer_rejects_a_bracket_that_is_not_finite(t_lo, t_hi):
    # linspace over an infinite bracket is all NaN and inf, so no peak can be found.
    with pytest.raises(ValueError, match="need finite t_lo < t_hi"):
        maximize_scalar(lambda t: -t * t, t_lo, t_hi)


def test_maximizer_recovers_positivity_radius_peak():
    p = ModelParams(0.1, 0.9)
    peak, t_star = r4_max(p)
    t, v = maximize_scalar(lambda x: r4_curve(p, x), 0.0, math.pi / (2.0 * p.Omega))
    assert abs(t - t_star) <= 1e-6
    assert abs(v - peak) <= 1e-6


def test_maximizer_recovers_rate_factor_peak():
    p = ModelParams(0.3, 0.8)
    peak, t_bar = rate_factor_max(p)
    t, v = maximize_scalar(lambda x: concurrence_rate_factor(p, x), 0.0, math.pi / (2.0 * p.Omega))
    assert abs(t - t_bar) <= 1e-6
    assert abs(v - peak) <= 1e-6


def test_maximizer_terminates_where_tol_is_below_the_float_spacing():
    # Near t = 6e5 the float spacing is 1.2e-10, above the bracket width 1e-10:
    # the golden section stops once the bracket can no longer shrink.
    calls = []

    def parabola(x):
        calls.append(x)
        if len(calls) > 10_000:
            raise AssertionError("golden section did not terminate")
        return -((x - 6e5 - 0.3) ** 2)

    t, v = maximize_scalar(parabola, 6e5, 6e5 + 1.0)
    assert abs(t - (6e5 + 0.3)) <= 1e-6
    assert v <= 0.0


def test_maximizer_is_deterministic():
    p = ModelParams(0.1, 0.8)
    first = maximize_scalar(lambda x: r4_curve(p, x), 0.0, 3.0)
    second = maximize_scalar(lambda x: r4_curve(p, x), 0.0, 3.0)
    assert first == second


def _array_capable_curves(p):
    return {
        "r4_curve": lambda t: r4_curve(p, t),
        "concurrence_rate_factor": lambda t: concurrence_rate_factor(p, t),
        "rate_factor_product_form": lambda t: oracle.rate_factor_product_form(p, t),
        "sqrt_norm_bound_curve": lambda t: np.sqrt(norm_bound_curve(p, t)),
    }


def test_maximizer_grid_call_is_bit_identical_to_the_per_point_grid():
    # float(curve(t)) raises TypeError on the grid array, which forces the
    # per-point grid; the one-call grid must pick the same bracket and so
    # return the same (t, value) to the bit.
    rng = np.random.default_rng(27)
    points = [random_model_params(rng) for _ in range(12)]
    points += [ModelParams(0.3, 0.0), ModelParams(0.0, 0.5), ModelParams(0.0, 0.999999999999)]
    for p in points:
        bracket = math.pi / (2.0 * p.Omega)
        for name, curve in _array_capable_curves(p).items():
            one_call = maximize_scalar(curve, 0.0, bracket)
            per_point = maximize_scalar(lambda t: float(curve(t)), 0.0, bracket)
            assert one_call == per_point, (p, name)


def test_maximizer_evaluates_the_coarse_grid_in_one_array_call():
    p = ModelParams(0.1, 0.9)
    calls = []

    def recording(t):
        calls.append(t)
        return r4_curve(p, t)

    maximize_scalar(recording, 0.0, 3.0)
    first, *rest = calls
    assert isinstance(first, np.ndarray) and first.shape == (1000,)
    assert rest and all(type(t) is float for t in rest)


def test_maximizer_evaluates_a_float_only_curve_per_point():
    calls = []

    def recording(t):
        calls.append(t)
        return math.sin(t)  # TypeError on an array

    t, v = maximize_scalar(recording, 0.0, 3.0)
    assert abs(t - math.pi / 2.0) <= 1e-6 and abs(v - 1.0) <= 1e-12
    assert isinstance(calls[0], np.ndarray)
    assert calls[1:1001] == np.linspace(0.0, 3.0, 1000).tolist()
    assert all(type(t) is float for t in calls[1:])


@pytest.mark.parametrize("curve", [
    # `t < 2.0` on an array raises ValueError (ambiguous truth value).
    lambda t: -(t - 0.7) * (t - 0.7) if t < 2.0 else -9.0,
    lambda t: -(t - 0.7) * (t - 0.7) if np.ndim(t) == 0 else np.zeros(3),
    lambda t: -(t - 0.7) * (t - 0.7) if np.ndim(t) == 0 else 0.0,
], ids=["raises", "wrong-shape", "not-an-array"])
def test_maximizer_falls_back_on_a_curve_without_an_array_answer(curve):
    t, v = maximize_scalar(curve, 0.0, 3.0)
    assert abs(t - 0.7) <= 1e-6 and abs(v) <= 1e-12


def test_maximizer_falls_back_where_array_arithmetic_would_warn():
    # On this grid the product form forms inf * 0 on arrays, which numpy
    # warns about (an error under this suite's filter); per point, Python
    # float arithmetic stays silent, as it did before the one-call grid.
    p = ModelParams(1e102, 1e103, 2e103)
    curve = _array_capable_curves(p)["rate_factor_product_form"]
    bracket = math.pi / (2.0 * p.Omega)
    assert maximize_scalar(curve, 0.0, bracket) == maximize_scalar(
        lambda t: float(curve(t)), 0.0, bracket)


def test_maximizer_names_a_negative_bracket_start_through_the_time_gate():
    p = ModelParams(0.1, 0.9)
    for curve in _array_capable_curves(p).values():
        with pytest.raises(ValueError, match=r"^time must be >= 0 and finite, got -0\.5$"):
            maximize_scalar(curve, -0.5, 1.0)


def test_integrators_accept_random_params():
    rng = np.random.default_rng(9)
    for _ in range(3):
        p = random_model_params(rng)
        r0 = BlochVector(*(0.5 * rng.uniform(-1, 1, size=3)))
        assert crosscheck.propagator_vs_rk4(p, r0, IntegratorConfig(step=1e-3, t_max=0.2)) <= 1e-8


def test_oracle_layer_never_calls_lapack():
    # The closed forms are checked against these modules precisely because
    # they do not share LAPACK with numpy/scipy; keep it that way.
    for module in (qmat, oracle, crosscheck):
        source = Path(module.__file__).read_text(encoding="utf-8").lower()
        assert "linalg" not in source, module.__name__
        assert "scipy" not in source, module.__name__


def test_no_module_reaches_into_a_sibling_private_name():
    # A private name is a module's own business: no sibling may import it
    # (from .mod import _name) or reach it as an attribute (mod._name).
    # Public names of the private module _timekernel stay importable.
    package = Path(qmat.__file__).parent
    siblings = {path.stem for path in package.glob("*.py")}
    offenders = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                names = [alias.name for alias in node.names]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in siblings):
                names = [node.attr]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {name}" for name in names
                          if name.startswith("_") and not name.startswith("__")]
    assert offenders == []


def test_closed_forms_never_import_the_oracle_layer():
    # The oracles check the closed forms, so no closed-form module may lean
    # on them: semigroup, bipartite, slippage and _timekernel import
    # nothing from oracle, relatively or absolutely.
    package = Path(qmat.__file__).parent
    offenders = []
    for stem in ("semigroup", "bipartite", "slippage", "_timekernel"):
        tree = ast.parse((package / f"{stem}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                names = [base] + [f"{base}.{alias.name}".lstrip(".") for alias in node.names]
            else:
                continue
            if any("oracle" in name.split(".") for name in names):
                offenders.append(f"{stem}.py:{node.lineno}")
    assert offenders == []


def test_oracle_reads_no_cached_model_constant():
    # The oracles read only the rates a, b and omega of a ModelParams, never
    # a derived constant it caches (Omega, R4, G_max, ...), or an error in
    # that constant would move the oracle and the closed form together.  The
    # forbidden names are every cached property of ModelParams, so a constant
    # cached later is covered too; getattr with a literal name counts.
    cached = {name for name, member in vars(ModelParams).items()
              if isinstance(member, functools.cached_property)}
    assert cached
    offenders = []
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr in cached:
            offenders.append(f"oracle.py:{node.lineno} .{node.attr}")
        elif isinstance(node, ast.Constant) and node.value in cached:
            offenders.append(f"oracle.py:{node.lineno} {node.value!r}")
    assert offenders == []


def test_closed_forms_run_the_jacobi_only_in_their_numerical_references():
    # semigroup, bipartite, slippage and _timekernel hold closed forms; the
    # Jacobi (qmat.hermitian_*) may run only in the Wootters concurrence and
    # the Choi scan, the two numerical references the benchmark traces there.
    allowed = {("bipartite", "concurrence_wootters"), ("slippage", "is_completely_positive")}
    package = Path(qmat.__file__).parent
    offenders, users = [], set()
    for stem in ("semigroup", "bipartite", "slippage", "_timekernel"):
        tree = ast.parse((package / f"{stem}.py").read_text(encoding="utf-8"))
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if not name.startswith("hermitian_"):
                    continue
                scope = (stem, getattr(top, "name", None))
                if scope in allowed:
                    users.add(scope)
                else:
                    offenders.append(f"{stem}.py:{node.lineno} {name}")
    assert offenders == [] and users == allowed


def test_exports_match_what_the_package_binds():
    # Every exported name resolves, __init__ exports exactly the public
    # names it binds, and neither a module nor a class of the package binds
    # a removed name, so a half-done deletion fails here.
    assert all(hasattr(qslip, name) for name in qslip.__all__)
    tree = ast.parse(Path(qslip.__file__).read_text(encoding="utf-8"))
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            bound |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Assign):
            bound |= {target.id for target in node.targets if isinstance(target, ast.Name)}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
    assert len(qslip.__all__) == len(set(qslip.__all__))
    assert set(qslip.__all__) == {name for name in bound if not name.startswith("_")}

    offenders = [name for name in _DELETED_NAMES if hasattr(qslip, name)]
    for info in pkgutil.iter_modules(qslip.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"qslip.{info.name}")
        scopes = [module] + [obj for _, obj in inspect.getmembers(module, inspect.isclass)
                             if obj.__module__ == module.__name__]
        offenders += [f"{scope.__name__}.{name}" for scope in scopes
                      for name in _DELETED_NAMES if name in vars(scope)]
    assert offenders == []


def test_every_public_name_has_a_caller_outside_the_tests():
    # Every public function and class of the package, and every public method
    # of such a class, is referenced by name or attribute from a package
    # module (not __init__, which only re-exports) or from the benchmark,
    # whose files this reads only.  A name that only tests reach is surface
    # the package does not need.
    package = Path(qmat.__file__).parent
    sources = [path for path in sorted(package.glob("*.py")) if path.name != "__init__.py"]
    sources += sorted((Path(__file__).parent.parent / "perfbench").glob("*.py"))
    used = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    public = []
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)) or top.name.startswith("_"):
                continue
            public.append((f"{path.stem}.{top.name}", top.name))
            if isinstance(top, ast.ClassDef):
                public += [(f"{path.stem}.{top.name}.{item.name}", item.name) for item in top.body
                           if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    assert len(public) > 40
    assert [full for full, name in public if name not in used] == []


def test_benchmark_workloads_reach_only_existing_names():
    # The benchmark's workloads call the package by attribute; a name a
    # refactor drops would make their operations raise.  Reads the file
    # only.  Each call must also bind its positional and keyword arguments
    # (calls with *args or **kwargs are checked for the name alone).
    source = Path(__file__).parent.parent / "perfbench" / "workloads.py"
    modules = {"qslip": qslip, **{name: importlib.import_module(f"qslip.{name}") for name in
                                  ("bipartite", "cli", "oracle", "qmat", "semigroup", "slippage")}}
    tree = ast.parse(source.read_text(encoding="utf-8"))
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    missing, unbound, reached = [], [], 0
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            continue
        reached += 1
        where = f"workloads.py:{node.lineno} {node.value.id}.{node.attr}"
        if not hasattr(modules[node.value.id], node.attr):
            missing.append(where)
            continue
        call = calls.get(id(node))
        if (call is None or any(isinstance(arg, ast.Starred) for arg in call.args)
                or any(kw.arg is None for kw in call.keywords)):
            continue
        try:
            inspect.signature(getattr(modules[node.value.id], node.attr)).bind(
                *call.args, **{kw.arg: None for kw in call.keywords})
        except TypeError as exc:
            unbound.append(f"{where}: {exc}")
    assert reached > 30
    assert missing == [] and unbound == []


def test_benchmark_span_names_are_functions_of_their_module():
    # The benchmark's traced run indexes its spans by "module.name", and its
    # recorder wraps only the functions a module defines itself, so a name
    # it reads that is missing or re-exported from another module raises
    # KeyError there.  Reads perfbench's worker and span recorder only: the
    # durations(...) names, with loops over literal tuples expanded, and the
    # keys of COUNTERS.
    bench = Path(__file__).parent.parent / "perfbench"
    worker = ast.parse((bench / "worker.py").read_text(encoding="utf-8"))
    loops = {}
    for node in ast.walk(worker):
        if isinstance(node, ast.For) and isinstance(node.target, ast.Name):
            try:
                values = ast.literal_eval(node.iter)
            except ValueError:
                continue
            loops.update({id(inner): (node.target.id, values) for inner in ast.walk(node)})
    names = []
    for node in ast.walk(worker):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "durations":
            arg = node.args[0]
            if isinstance(arg, ast.Constant):
                names.append(arg.value)
                continue
            var, values = loops[id(arg)]
            code = compile(ast.Expression(arg), "worker.py", "eval")
            names += [eval(code, {var: value}) for value in values]
    spans = ast.parse((bench / "spans.py").read_text(encoding="utf-8"))
    counters, = [node.value for node in spans.body if isinstance(node, ast.Assign)
                 and any(getattr(target, "id", None) == "COUNTERS" for target in node.targets)]
    names += [key.value for key in counters.keys]
    assert len(names) > 10 and "bipartite.concurrence_wootters" in names
    offenders = []
    for full_name in names:
        module, name = full_name.split(".")
        fn = getattr(importlib.import_module(f"qslip.{module}"), name, None)
        if not (inspect.isfunction(fn) and fn.__module__ == f"qslip.{module}"):
            offenders.append(full_name)
    assert offenders == []
