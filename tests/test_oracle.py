import ast
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import random_model_params
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
    r4_curve,
    r4_max,
    concurrence_rate_factor,
    rate_factor_max,
)
from qslip import oracle, qmat
from qslip.oracle import MAX_STEPS


def bloch_of(states):
    return np.stack(
        [
            2.0 * states[:, 0, 1].real,
            -2.0 * states[:, 0, 1].imag,
            2.0 * states[:, 0, 0].real - 1.0,
        ],
        axis=-1,
    )


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
    p = ModelParams(0.1, 0.9)
    r0 = BlochVector(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), 0.0)
    traj = integrate_master_2x2(p, r0.to_density_matrix(), IntegratorConfig(step=1e-4, t_max=0.5))
    analytic = bloch_trajectory(p, r0, traj.times)
    assert np.abs(bloch_of(traj.states) - analytic).max() <= 1e-8


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
    t, v = maximize_scalar(lambda x: -((x - 1.0) ** 2), 0.0, 2.0, tol=1e-12)
    assert abs(t - 1.0) <= 1e-10
    assert abs(v) <= 1e-12


def test_maximizer_validation():
    with pytest.raises(ValueError):
        maximize_scalar(lambda x: x, 1.0, 1.0)
    with pytest.raises(ValueError):
        maximize_scalar(lambda x: x, 0.0, 1.0, tol=0.0)


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
    # Near t = 6e5 the float spacing is 1.2e-10, above the default tol 1e-10:
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


def test_integrators_accept_random_params():
    rng = np.random.default_rng(9)
    for _ in range(3):
        p = random_model_params(rng)
        r0 = BlochVector(*(0.5 * rng.uniform(-1, 1, size=3)))
        traj = integrate_master_2x2(p, r0.to_density_matrix(), IntegratorConfig(step=1e-3, t_max=0.2))
        analytic = bloch_trajectory(p, r0, traj.times)
        assert np.abs(bloch_of(traj.states) - analytic).max() <= 1e-8


def test_oracle_layer_never_calls_lapack():
    # The closed forms are checked against these modules precisely because
    # they do not share LAPACK with numpy/scipy; keep it that way.
    for module in (qmat, oracle):
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
