"""thresholdlab: threshold behavior of monotone failure sets on {0,1}^n.

Build k-out-of-n, consecutive-run, product-composed, and explicit
monotone structures; evaluate their failure probability curves exactly;
locate and measure their thresholds; construct symmetric structures with
a prescribed width between 1/sqrt(n) and 1/log(n); and cross-check
everything with seeded Monte Carlo.
"""

from .construction import (
    ConstructionRecord,
    TargetError,
    WidthTarget,
    build_arbitrary_width,
    invert_phi,
    parallel_series,
    phi,
    scaling_experiment,
)
from .exact_eval import (
    EvalResult,
    EvaluationError,
    ReliabilityPolynomial,
    availability,
    derivative,
    influences,
    reliability_polynomial,
)
from .grammar import ParseError, format_expr, parse_expr
from .montecarlo import (
    McEstimate,
    McError,
    estimate_availability,
    estimate_to_halfwidth,
    wilson_interval,
)
from .structures import (
    Configuration,
    Consecutive,
    Explicit,
    KOutOfN,
    PermutationPair,
    Product,
    StructureError,
    StructureExpr,
    explicit_from_generators,
    majority,
    membership,
    parallel,
    product,
    series,
    spot_check_monotone,
    truth_table,
    upward_closure,
    verify_invariance,
    verify_monotone,
)
from .threshold import (
    BoundCheck,
    ThresholdReport,
    check_cauchy_schwarz_bound,
    check_entropy_inequalities,
    check_isoperimetric_bound,
    gaussian_isoperimetric,
    hoeffding_width_bound,
    homogeneity_scan,
    locate,
    sharpness_trend,
    width,
)

__version__ = "0.1.0"

__all__ = [
    "BoundCheck",
    "Configuration",
    "Consecutive",
    "ConstructionRecord",
    "EvalResult",
    "EvaluationError",
    "Explicit",
    "KOutOfN",
    "McEstimate",
    "McError",
    "ParseError",
    "PermutationPair",
    "Product",
    "ReliabilityPolynomial",
    "StructureError",
    "StructureExpr",
    "TargetError",
    "ThresholdReport",
    "WidthTarget",
    "availability",
    "build_arbitrary_width",
    "check_cauchy_schwarz_bound",
    "check_entropy_inequalities",
    "check_isoperimetric_bound",
    "derivative",
    "estimate_availability",
    "estimate_to_halfwidth",
    "explicit_from_generators",
    "format_expr",
    "gaussian_isoperimetric",
    "hoeffding_width_bound",
    "homogeneity_scan",
    "influences",
    "invert_phi",
    "locate",
    "majority",
    "membership",
    "parallel",
    "parallel_series",
    "parse_expr",
    "phi",
    "product",
    "reliability_polynomial",
    "scaling_experiment",
    "series",
    "sharpness_trend",
    "spot_check_monotone",
    "truth_table",
    "upward_closure",
    "verify_invariance",
    "verify_monotone",
    "width",
    "wilson_interval",
]
