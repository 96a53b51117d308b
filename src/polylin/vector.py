"""Vector-valued targets: one partition shared by every component.

The combined knot density sums the component curvatures before the cube
root, and the vector L1 distance adds up component distances; with those
substitutions the scalar machinery carries over, including the 3/8
advantage of the best L1 fit over the interpolant.

Only the fits and distances are componentwise here.  Density, distribution,
partition and bounds are the scalar functions of ``polylin.partition`` and
``polylin.analysis``, which take a vector target as is (a scalar target is
the one-component case); the ``vector_*`` names below delegate to them.
The vector bounds plug the summed curvature into the scalar formulas; they
are heuristics (the scalar derivation is not rerun componentwise) and are
labeled as such.
"""

from __future__ import annotations

from .analysis import curvature, l1_distance
from .core import Partition, PolygonalFunction, VectorTargetFunction
from .fit import FitReport, best_l1_fit, interpolant
from .partition import KnotDistribution, _check_segments, build_distribution, optimized_partition

__all__ = [
    "vector_build_distribution",
    "vector_optimized_partition",
    "vector_l1_distance",
    "vector_interpolant",
    "vector_best_l1_fit",
    "vector_bound_uniform_interpolant",
    "vector_bound_optimized_interpolant",
]


def vector_build_distribution(F: VectorTargetFunction, a: float, b: float) -> KnotDistribution:
    """Cumulative distribution of the combined density over [a, b]."""
    return build_distribution(F, a, b)


def vector_optimized_partition(F: VectorTargetFunction, a: float, b: float, n: int) -> Partition:
    """Equalized partition for all components jointly."""
    return optimized_partition(F, a, b, n)


def vector_l1_distance(F: VectorTargetFunction, gs) -> float:
    """Sum of component L1 distances; gs pairs with F componentwise."""
    gs = list(gs)
    if len(gs) != len(F.components):
        raise ValueError(f"{len(F.components)} components but {len(gs)} approximants")
    return sum(l1_distance(f, g) for f, g in zip(F.components, gs))


def vector_interpolant(F: VectorTargetFunction, p: Partition) -> list[PolygonalFunction]:
    """Componentwise interpolants on the shared partition, domains checked."""
    return [interpolant(f, p) for f in F.components]


def vector_best_l1_fit(
    F: VectorTargetFunction, p: Partition
) -> tuple[list[PolygonalFunction], list[FitReport]]:
    """Componentwise best L1 fits on the shared partition.

    The vector L1 distance is a sum over components with no coupling, so
    fitting each component independently minimizes it.
    """
    fits = []
    reports = []
    for f in F.components:
        g, report = best_l1_fit(f, p)
        fits.append(g)
        reports.append(report)
    return fits, reports


def vector_bound_uniform_interpolant(F: VectorTargetFunction, a: float, b: float, n: int) -> float:
    """Heuristic vector bound: scalar uniform formula with summed curvature."""
    _check_segments(n)
    return curvature(F, a, b).bounds(n)["uniform_interpolant"]


def vector_bound_optimized_interpolant(F: VectorTargetFunction, a: float, b: float, n: int) -> float:
    """Heuristic vector bound: scalar equalized formula with the combined density."""
    _check_segments(n)
    return curvature(F, a, b).bounds(n)["optimized_interpolant"]
