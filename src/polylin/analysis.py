"""Error measurement, a-priori error bounds, and segment budgeting.

Bounds follow the small-segment expansion of the L1 interpolation error:
per segment it behaves like h^3 |f''| / 12, which sums to

    uniform grid:      (b-a)^2 / (12 N^2) * integral of |f''|
    equalized grid:    1 / (12 N^2) * (integral of |f''|^(1/3))^3

and the best L1 line on a segment beats the interpolant by the fixed
factor 3/8.  These "bounds" are leading-order asymptotic estimates in N,
not one-sided bounds: measured errors track them closely once each
segment's curvature is nearly constant, but while segments are too wide to
resolve the curvature the measured error can land on either side.  On the
chirp sin(10 pi x^2) over [0, 1], equalized, measured/estimate is 1.071 at
N=12 and 0.676 at N=8, against 0.990 to 0.996 from N=31 up.

Every bound and every planned segment count comes from one pair of
curvature integrals, of |f''| and of |f''|^(1/3).  For a vector target the
component curvatures are summed first (see ``polylin.partition``), and a
scalar target is the one-component case.  ``curvature`` evaluates the pair
once into a ``Curvature``, whose ``bounds`` and ``counts`` give all four
kinds; the per-kind functions and the vector bounds read from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PolygonalFunction, TargetFunction, VectorTargetFunction
from .partition import (
    LinearTargetError,
    _check_interval,
    _check_segments,
    _density_accuracy,
    _is_linear,
    _second_derivatives,
    knot_density,
)
from .quadrature import QuadratureError, integrate_segments

__all__ = [
    "BEST_L1_FACTOR",
    "Curvature",
    "curvature",
    "l1_distance",
    "per_interval_errors",
    "error_bound",
    "min_segments_for_tolerance",
    "partition_gain",
]

# Best L1 line vs interpolating line, per segment, asymptotically.
BEST_L1_FACTOR = 3.0 / 8.0

BOUND_KINDS = (
    "uniform_interpolant",
    "optimized_interpolant",
    "uniform_best_l1",
    "optimized_best_l1",
)


def _residual(f: TargetFunction, g: PolygonalFunction):
    knots = g.partition.knots
    h = g.partition.widths
    v = g.ordinates

    def fun(x, seg):
        d = (x - knots[seg]) / h[seg]
        return np.asarray(f.eval(x), dtype=float) - ((1.0 - d) * v[seg] + d * v[seg + 1])

    return fun


def per_interval_errors(f: TargetFunction, g: PolygonalFunction) -> np.ndarray:
    """L1 error contributed by each segment of g's partition."""
    _check_interval(f, g.partition.a, g.partition.b)
    return integrate_segments(_residual(f, g), g.partition.knots, absolute=True)


def l1_distance(f: TargetFunction, g: PolygonalFunction) -> float:
    """Integral of |f - g| over g's interval."""
    return float(np.sum(per_interval_errors(f, g)))


def _check_kind(kind: str) -> None:
    if kind not in BOUND_KINDS:
        raise ValueError(f"unknown bound kind {kind!r}")


def _check_tolerance(tolerance: float) -> None:
    if not tolerance > 0.0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")


@dataclass(frozen=True)
class Curvature:
    """The two curvature integrals of a target over ``interval``.

    ``total`` integrates the summed |f_j''| and ``density`` the knot density
    (summed |f_j''|)^(1/3).  Every bound and every planned segment count is
    a closed form in the two.
    """

    total: float
    density: float
    interval: tuple[float, float]

    def bounds(self, n: int) -> dict[str, float]:
        """A-priori L1 error estimates for N segments, one per bound kind.

        Each value is the leading-order asymptotic estimate (see the module
        docstring), not a one-sided bound while the segments do not resolve
        the curvature: on the equalized chirp, measured/estimate is 1.071 at
        N=12 and 0.676 at N=8.
        """
        _check_segments(n)
        a, b = self.interval
        out = {}
        for kind in BOUND_KINDS:
            if kind.startswith("uniform"):
                value = (b - a) ** 2 / (12.0 * n * n) * self.total
            else:
                value = self.density**3 / (12.0 * n * n)
            if kind.endswith("best_l1"):
                value *= BEST_L1_FACTOR
            out[kind] = value
        return out

    def counts(self, tolerance: float) -> dict[str, int]:
        """Smallest N whose bound meets the tolerance, one per bound kind.

        The interpolant kinds solve bound(N) = tolerance for real N and round
        up; the best-L1 kinds scale the interpolant root by sqrt(3/8) first,
        then round up.  A linear target needs a single segment.
        """
        _check_tolerance(tolerance)
        a, b = self.interval
        out = {}
        for kind in BOUND_KINDS:
            if kind.startswith("uniform"):
                raw = (b - a) ** 2 * self.total / 12.0
            else:
                raw = self.density**3 / 12.0
            n_real = math.sqrt(raw / tolerance)
            if kind.endswith("best_l1"):
                n_real *= math.sqrt(BEST_L1_FACTOR)
            out[kind] = max(1, math.ceil(n_real))
        return out


def curvature(f: TargetFunction | VectorTargetFunction, a: float, b: float) -> Curvature:
    """The curvature integrals of f over [a, b]: the one quadrature behind
    every bound and planned count.

    The first integral bisects wherever any f_j'' changes sign.  The
    difference-quotient f'' of a line is pure stencil rounding, which no
    tolerance resolves; so where an integral fails on a target that equals
    its chord to rounding, the target is linear and both integrals are 0.
    """
    _check_interval(f, a, b)
    edges = np.linspace(a, b, 65)
    rel, floor = _density_accuracy(f, a, b)
    try:
        total = integrate_segments(
            lambda x, _s: np.stack(_second_derivatives(f, x), axis=1),
            edges,
            rel_tol=rel,
            resolve_floor=floor,
            absolute=True,
        )
        density = integrate_segments(
            lambda x, _s: knot_density(f, x),
            edges,
            rel_tol=rel,
            resolve_floor=floor,
        )
    except QuadratureError:
        if not _is_linear(f, a, b):
            raise
        return Curvature(0.0, 0.0, (a, b))
    return Curvature(float(np.sum(total)), float(np.sum(density)), (a, b))


def error_bound(f: TargetFunction, a: float, b: float, n: int, kind: str) -> float:
    """A-priori L1 error estimate for N segments of one kind; see
    ``Curvature.bounds``."""
    _check_kind(kind)
    _check_segments(n)
    return curvature(f, a, b).bounds(n)[kind]


def min_segments_for_tolerance(
    f: TargetFunction, a: float, b: float, tolerance: float, kind: str
) -> int:
    """Smallest N whose bound of one kind meets the tolerance; see
    ``Curvature.counts``."""
    _check_kind(kind)
    _check_tolerance(tolerance)
    return curvature(f, a, b).counts(tolerance)[kind]


def partition_gain(f: TargetFunction, a: float, b: float) -> float:
    """Bound ratio uniform/equalized: how much knot placement alone buys.

    Equals ((b-a)^2 * integral of |f''|) / (integral of |f''|^(1/3))^3,
    which is 1 exactly when |f''| is constant and grows with curvature
    concentration.
    """
    c = curvature(f, a, b)
    if c.density == 0.0 or c.total == 0.0:
        raise LinearTargetError("gain undefined: |f''| integrates to zero")
    return (b - a) ** 2 * c.total / c.density**3
