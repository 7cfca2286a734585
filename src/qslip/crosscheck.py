"""Where each closed form meets its independent numerical oracle.

``qslip verify`` and the acceptance suite call these checks, each with its
own sample points and tolerances.  A check returns its largest absolute
deviation (a peak time's relative to its scale): 0 for no point, NaN if any
is NaN.  Closed forms and oracles are reached as module attributes, so a
test can replace either side.
"""

import math

import numpy as np

from . import bipartite, oracle, qmat, semigroup


def propagator_vs_rk4(p: semigroup.ModelParams, r0: semigroup.BlochVector,
                      cfg: oracle.IntegratorConfig) -> float:
    """RK4 of the qubit master equation from ``r0`` against the closed-form Bloch trajectory."""
    traj = oracle.integrate_master_2x2(p, r0.to_density_matrix(), cfg)
    rho01, rho00 = traj.states[:, 0, 1], traj.states[:, 0, 0].real
    numeric = np.stack([2.0 * rho01.real, -2.0 * rho01.imag, 2.0 * rho00 - 1.0], axis=-1)
    devs = np.abs(numeric - semigroup.bloch_trajectory(p, r0, traj.times))
    return float(np.max(devs, initial=0.0))


def spectrum_vs_jacobi(p: semigroup.ModelParams, mu: float, times, transposed=False) -> float:
    """Sorted Jacobi spectrum of the evolved isotropic matrix against the closed form.  Its
    partial transpose (``transposed``) swaps the corners: its spectrum is the closed form at -mu."""
    devs = []
    for t in times:
        matrix = bipartite.evolve_isotropic(p, mu, t)
        if transposed:
            matrix = qmat.partial_transpose_first(matrix)
        closed = bipartite.eigenvalues_closed_form(p, -mu if transposed else mu, t)
        devs.append(np.abs(np.sort(qmat.hermitian_eigenvalues(matrix)) - np.sort(closed)).max())
    return float(np.max(devs, initial=0.0))


def concurrence_vs_wootters(p: semigroup.ModelParams, mus, times) -> tuple[float, int]:
    """Closed-form concurrence against Wootters on the evolved matrix, and the number of
    ``(mu, t)`` points compared: those where the closed form is NaN (not a state) are skipped."""
    devs = []
    for mu in mus:
        for t in times:
            closed = bipartite.concurrence_curve(p, mu, t)
            if not math.isnan(closed):
                numeric = bipartite.concurrence_wootters(bipartite.evolve_isotropic(p, mu, t))
                devs.append(abs(closed - numeric))
    return float(np.max(devs, initial=0.0)), len(devs)


def maxima_vs_golden_section(p: semigroup.ModelParams) -> float:
    """Closed-form peaks (R, t'), (R4, t*), (G, t_bar) against golden section
    over [0, pi / (2 Omega)], G from the product form.  A peak time counts only
    where it is unique: not R's for a >= b (no interior peak), nor R4's and G's at b = 0 (flat).
    Golden section fixes a smooth peak only to about sqrt(eps) times its time
    scale, so a peak time deviates by ``|t_peak - t_num| / max(1, t_peak)``."""
    bracket = math.pi / (2.0 * p.Omega)
    devs = []
    for (peak, t_peak), curve, unique in (
        (semigroup.norm_bound_max(p), lambda t: np.sqrt(semigroup.norm_bound_curve(p, t)),
         p.a < p.b),
        (bipartite.r4_max(p), lambda t: bipartite.r4_curve(p, t), p.b > 0.0),
        (bipartite.rate_factor_max(p), lambda t: oracle.rate_factor_product_form(p, t), p.b > 0.0),
    ):
        t_num, v_num = oracle.maximize_scalar(curve, 0.0, bracket)
        devs += [abs(peak - v_num), abs(t_peak - t_num) / max(1.0, t_peak) if unique else 0.0]
    return float(np.max(devs, initial=0.0))
