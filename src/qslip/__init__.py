"""qslip: dephasing-qubit semigroup, slippage channel, and entanglement diagnostics.

A verification-oriented toolkit for a single qubit whose equatorial Bloch
components are driven by a generator that may fail positivity.  Closed
forms (propagator, peak radii, two-qubit spectra, concurrence, creation
windows) live alongside an independent numerical oracle layer (cyclic
Jacobi eigensolver, fixed-step RK4, golden-section maximizer) that checks
them.
"""

from .bipartite import (
    WindowReport,
    can_create_entanglement,
    concurrence_closed_form,
    concurrence_curve,
    concurrence_rate_factor,
    concurrence_wootters,
    detect_windows,
    eigenvalues_closed_form,
    evolve_isotropic,
    isotropic,
    positivity_bound,
    r1_curve,
    r4_curve,
    r4_max,
    rate_factor_max,
    window_functions,
)
from .oracle import (
    IntegratorConfig,
    Trajectory,
    integrate_master_2x2,
    integrate_master_4x4,
    maximize_scalar,
    rate_factor_product_form,
)
from .semigroup import (
    BlochVector,
    Classification,
    DerivedRates,
    ModelParams,
    StochasticFieldParams,
    bloch_propagator,
    bloch_trajectory,
    classify,
    derive_params,
    norm_bound_curve,
    norm_bound_max,
)
from .slippage import (
    CPReport,
    SlippageChannel,
    choi_matrix,
    compose_actions,
    is_completely_positive,
    semigroup_action,
    slippage_action,
)

__version__ = "0.1.0"

__all__ = [
    "BlochVector",
    "CPReport",
    "Classification",
    "DerivedRates",
    "IntegratorConfig",
    "ModelParams",
    "SlippageChannel",
    "StochasticFieldParams",
    "Trajectory",
    "WindowReport",
    "bloch_propagator",
    "bloch_trajectory",
    "can_create_entanglement",
    "choi_matrix",
    "classify",
    "compose_actions",
    "concurrence_closed_form",
    "concurrence_curve",
    "concurrence_rate_factor",
    "concurrence_wootters",
    "derive_params",
    "detect_windows",
    "eigenvalues_closed_form",
    "evolve_isotropic",
    "integrate_master_2x2",
    "integrate_master_4x4",
    "is_completely_positive",
    "isotropic",
    "maximize_scalar",
    "norm_bound_curve",
    "norm_bound_max",
    "positivity_bound",
    "r1_curve",
    "r4_curve",
    "r4_max",
    "rate_factor_max",
    "rate_factor_product_form",
    "semigroup_action",
    "slippage_action",
    "window_functions",
]
