"""Polygonal (continuous piecewise-linear) approximation under the L1 norm.

Build a partition (uniform or curvature-equalized), fit ordinates
(interpolant, least squares, or least absolute deviation), measure errors
against a-priori bounds, and evaluate the result in O(1) or O(log N) per
point.  The ``polylin`` command line exposes the same operations.
"""

from .analysis import (
    BEST_L1_FACTOR,
    Curvature,
    curvature,
    error_bound,
    l1_distance,
    min_segments_for_tolerance,
    partition_gain,
    per_interval_errors,
)
from .core import (
    Partition,
    PolygonalFunction,
    TargetFunction,
    VectorTargetFunction,
    as_target,
    from_samples,
    hat_basis,
)
from .evaluate import BenchResult, Evaluator, bench, evaluate, evaluate_batch, make_evaluator
from .fit import (
    FitReport,
    best_l1_fit,
    interpolant,
    l2_projection,
)
from .partition import (
    KnotDistribution,
    LinearTargetError,
    build_distribution,
    knot_density,
    optimized_partition,
    uniform_partition,
)
from .quadrature import QuadratureError
from .vector import (
    vector_best_l1_fit,
    vector_bound_optimized_interpolant,
    vector_bound_uniform_interpolant,
    vector_build_distribution,
    vector_interpolant,
    vector_l1_distance,
    vector_optimized_partition,
)

__version__ = "0.1.0"

__all__ = [
    "BEST_L1_FACTOR",
    "BenchResult",
    "Curvature",
    "Evaluator",
    "FitReport",
    "KnotDistribution",
    "LinearTargetError",
    "Partition",
    "PolygonalFunction",
    "QuadratureError",
    "TargetFunction",
    "VectorTargetFunction",
    "as_target",
    "bench",
    "best_l1_fit",
    "build_distribution",
    "curvature",
    "error_bound",
    "evaluate",
    "evaluate_batch",
    "from_samples",
    "hat_basis",
    "interpolant",
    "knot_density",
    "l1_distance",
    "l2_projection",
    "make_evaluator",
    "min_segments_for_tolerance",
    "optimized_partition",
    "partition_gain",
    "per_interval_errors",
    "uniform_partition",
    "vector_best_l1_fit",
    "vector_bound_optimized_interpolant",
    "vector_bound_uniform_interpolant",
    "vector_build_distribution",
    "vector_interpolant",
    "vector_l1_distance",
    "vector_optimized_partition",
]
