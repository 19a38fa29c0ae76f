"""Fractional velocity and local regularity estimation.

Numerical tools for functions that fail to be differentiable on small
sets: one-sided fractional velocities on geometric increment schedules,
pointwise Holder exponents by oscillation regression, change-set scans,
fractional interval theorems, and Riemann-Liouville quadrature for
cross-checking the local fractional derivative against the velocity.
"""

__version__ = "0.1.0"

from .diffops import (
    Direction,
    difference,
    fractional_variation,
    variation_values,
)
from .errors import (
    DomainError,
    LocallyConstantError,
    PreconditionError,
    QuadratureError,
    ScheduleUnderflowError,
)
from .estimator import (
    ConditionsReport,
    EpsilonSchedule,
    HolderEstimate,
    LimitEstimate,
    LimitStatus,
    VelocityReport,
    check_conditions,
    classify_limit,
    estimate_holder_exponent,
    estimate_velocity,
    taylor_residual,
    variation_bound_constants,
    velocity_limit,
)
from .rlcalc import (
    LfdReport,
    QuadratureConfig,
    QuadScheme,
    check_lfd_equivalence,
    kg_lfd,
    rl_derivative,
    rl_integral,
)
from .scanner import (
    ChangeSetReport,
    IntervalVerdict,
    Theorem,
    null_measure_trend,
    scan_change_set,
    verify_mean_value,
    verify_rolle,
    verify_weak_darboux,
)
from .zoo import (
    SMOOTH,
    UNDEFINED,
    AnalyticTestFunction,
    MarkedPoint,
    default_zoo,
    make_chirp,
    make_polynomial,
    make_power_cusp,
    make_weierstrass,
)

__all__ = [
    "__version__",
    "Direction",
    "difference",
    "fractional_variation",
    "variation_values",
    "DomainError",
    "LocallyConstantError",
    "PreconditionError",
    "QuadratureError",
    "ScheduleUnderflowError",
    "ConditionsReport",
    "EpsilonSchedule",
    "HolderEstimate",
    "LimitEstimate",
    "LimitStatus",
    "VelocityReport",
    "check_conditions",
    "classify_limit",
    "estimate_holder_exponent",
    "estimate_velocity",
    "taylor_residual",
    "variation_bound_constants",
    "velocity_limit",
    "LfdReport",
    "QuadratureConfig",
    "QuadScheme",
    "check_lfd_equivalence",
    "kg_lfd",
    "rl_derivative",
    "rl_integral",
    "ChangeSetReport",
    "IntervalVerdict",
    "Theorem",
    "null_measure_trend",
    "scan_change_set",
    "verify_mean_value",
    "verify_rolle",
    "verify_weak_darboux",
    "SMOOTH",
    "UNDEFINED",
    "AnalyticTestFunction",
    "MarkedPoint",
    "default_zoo",
    "make_chirp",
    "make_polynomial",
    "make_power_cusp",
    "make_weierstrass",
]
