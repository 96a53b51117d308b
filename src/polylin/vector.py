"""Vector-valued targets: one partition shared by every component.

The combined knot density sums the component curvatures before the cube
root, and the vector L1 distance adds up component distances; with those
substitutions the scalar machinery carries over, including the 3/8
advantage of the best L1 fit over the interpolant.  The vector analogues
of the scalar error bounds follow by plugging the combined density into
the scalar formulas; they are heuristics (the scalar derivation is not
rerun componentwise) and are labeled as such.
"""

from __future__ import annotations

import numpy as np

from .analysis import BEST_L1_FACTOR, l1_distance
from .core import Partition, PolygonalFunction, TargetFunction, VectorTargetFunction, from_samples
from .fit import FitOptions, FitReport, best_l1_fit
from .partition import (
    KnotDistribution,
    _density_accuracy,
    _distribution_from_density,
    invert_distribution,
)

__all__ = [
    "vector_knot_density",
    "vector_build_distribution",
    "vector_optimized_partition",
    "vector_l1_distance",
    "vector_interpolant",
    "vector_best_l1_fit",
    "vector_bound_uniform_interpolant",
    "vector_bound_optimized_interpolant",
]


def vector_knot_density(F: VectorTargetFunction, x):
    """Combined local density (sum over components of |f_j''|)^(1/3)."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    xs = np.atleast_1d(x)
    total = np.zeros(xs.shape)
    for comp in F.components:
        vals = np.asarray(comp.d2(xs), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError("second derivative is not finite on the interval")
        total += np.abs(vals)
    out = np.cbrt(total)
    return float(out[0]) if scalar else out


def _any_numeric(F: VectorTargetFunction) -> bool:
    return any(c.second_derivative_kind == "numeric" for c in F.components)


def vector_build_distribution(F: VectorTargetFunction, a: float, b: float) -> KnotDistribution:
    """Cumulative distribution of the combined density over [a, b]."""
    _check_interval(F, a, b)
    rel, floor = _density_accuracy(_any_numeric(F), a, b)
    return _distribution_from_density(
        lambda x: vector_knot_density(F, x), a, b, rel_tol=rel, resolve_floor=floor
    )


def vector_optimized_partition(F: VectorTargetFunction, a: float, b: float, n: int) -> Partition:
    """Equalized partition for all components jointly."""
    if n < 1:
        raise ValueError(f"need at least one segment, got {n}")
    dist = vector_build_distribution(F, a, b)
    if n == 1:
        return Partition(np.array([a, b]))
    interior = invert_distribution(dist, np.arange(1, n) / n)
    return Partition(np.concatenate([[a], interior, [b]]))


def vector_l1_distance(
    F: VectorTargetFunction, gs, *, tol: float | None = None
) -> float:
    """Sum of component L1 distances; gs pairs with F componentwise."""
    gs = list(gs)
    if len(gs) != len(F.components):
        raise ValueError(f"{len(F.components)} components but {len(gs)} approximants")
    return sum(l1_distance(f, g, tol=tol) for f, g in zip(F.components, gs))


def vector_interpolant(F: VectorTargetFunction, p: Partition) -> list[PolygonalFunction]:
    """Componentwise interpolants on the shared partition."""
    return [from_samples(p, f) for f in F.components]


def vector_best_l1_fit(
    F: VectorTargetFunction, p: Partition, opts: FitOptions | None = None
) -> tuple[list[PolygonalFunction], list[FitReport]]:
    """Componentwise best L1 fits on the shared partition.

    The vector L1 distance is a sum over components with no coupling, so
    fitting each component independently minimizes it.
    """
    fits = []
    reports = []
    for f in F.components:
        g, report = best_l1_fit(f, p, opts)
        fits.append(g)
        reports.append(report)
    return fits, reports


def _vector_curvature_integrals(F: VectorTargetFunction, a: float, b: float):
    from .quadrature import default_tolerance, integrate_segments

    edges = np.linspace(a, b, 65)
    tol = default_tolerance()
    rel, floor = _density_accuracy(_any_numeric(F), a, b)
    rel = max(rel, 1e-10)

    def combined(x, _s):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        total = np.zeros(xs.shape)
        for comp in F.components:
            total += np.abs(np.asarray(comp.d2(xs), dtype=float))
        return total

    curv = float(
        np.sum(
            integrate_segments(
                combined, edges, abs_tol=tol, rel_tol=rel, resolve_floor=floor
            )
        )
    )
    dens = float(
        np.sum(
            integrate_segments(
                lambda x, _s: vector_knot_density(F, x),
                edges,
                abs_tol=tol,
                rel_tol=rel,
                resolve_floor=floor,
            )
        )
    )
    return curv, dens


def vector_bound_uniform_interpolant(F: VectorTargetFunction, a: float, b: float, n: int) -> float:
    """Heuristic vector bound: scalar uniform formula with summed curvature."""
    _check_bound_args(F, a, b, n)
    curv, _ = _vector_curvature_integrals(F, a, b)
    return (b - a) ** 2 / (12.0 * n * n) * curv


def vector_bound_optimized_interpolant(F: VectorTargetFunction, a: float, b: float, n: int) -> float:
    """Heuristic vector bound: scalar equalized formula with the combined density."""
    _check_bound_args(F, a, b, n)
    _, dens = _vector_curvature_integrals(F, a, b)
    return dens**3 / (12.0 * n * n)


def _check_bound_args(F: VectorTargetFunction, a: float, b: float, n: int) -> None:
    if n < 1:
        raise ValueError(f"need at least one segment, got {n}")
    _check_interval(F, a, b)


def _check_interval(F: VectorTargetFunction, a: float, b: float) -> None:
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise ValueError(f"invalid interval [{a}, {b}]")
    lo, hi = F.domain
    if a < lo or b > hi:
        raise ValueError(f"[{a}, {b}] outside the target domain [{lo}, {hi}]")
