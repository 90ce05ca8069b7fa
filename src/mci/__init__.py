"""Minimum-complexity interpolation in random-features models.

Solve min sum_j rho(a_j) subject to exact interpolation through the concave
n-dimensional dual, compare finite-width solutions against infinite-width
references, and audit the concentration assumptions behind the convergence
rates.
"""

from .audit import (
    AssumptionReport,
    EventBudget,
    HermiteConditionReport,
    HermiteProfile,
    SolvedModel,
    assumption_report,
    event_audit,
    hermite_coefficients,
    hermite_condition_check,
    smallball_estimate,
    subgaussian_proxy,
)
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    Row,
    aggregate,
    load,
    persist,
    run_audit,
    run_fig1,
    run_latent,
    run_scaling,
)
from .features import (
    DataSpec,
    FeatureSpec,
    Instance,
    KernelOracle,
    RidgeTarget,
    featurize,
    kernel_matrix,
    mean_features,
    sample_covariates,
    sample_data,
    sample_weights,
    whiten,
)
from .penalty import (
    GrowthReport,
    PenaltySpec,
    conjugate,
    link_s,
    link_s_prime,
    rho,
    validate_growth,
)
from .predict import (
    KernelPredictor,
    Predictor,
    kernel_interpolant,
    l2_distance,
    test_error,
)
from .solver import (
    Solution,
    SolverOptions,
    dual_gradient,
    dual_hessian,
    dual_objective,
    fit,
    solve_dual,
    solve_l1,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
