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
kinds; the per-kind functions and the vector bounds read from it.  The
pair comes from the curvature pass of ``polylin.partition``, whose
accepted panels are also the knot table's cells (a grid that is not
uniform), so a ``KnotDistribution`` already holds its target's pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._roots import TINY
from .core import PolygonalFunction, TargetFunction, VectorTargetFunction
from .partition import (
    KnotDistribution,
    LinearTargetError,
    _check_interval,
    _check_segments,
    _prepared,
)
from .quadrature import integrate_segments

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


def _knot_signs(f: TargetFunction, knots: np.ndarray, h: np.ndarray, v: np.ndarray):
    """The stand-ins for e = f - g where it is 0 exactly at a segment's
    left or right knot, one pair of arrays over the segments: the sign of e
    just inside the segment (of f' - s at the left knot and of s - f' at
    the right one, s the segment's slope) at size TINY, which moves no sum
    of samples, and which ``polylin._roots`` reads as a sign alone.  A zero
    or non-finite f' - s gives 0."""
    s = np.diff(v) / h
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d1 = np.asarray(f.first_derivative(knots), dtype=float)
        left, right = d1[:-1] - s, s - d1[1:]
    return tuple(np.where(np.isfinite(t), np.sign(t) * TINY, 0.0) for t in (left, right))


def _residual(f: TargetFunction, g: PolygonalFunction):
    knots = g.partition.knots
    h = g.partition.widths
    v = g.ordinates
    # The quadrature's sign rule ignores zeros, so a sample where e = 0
    # exactly at a knot takes the sign of e just inside the segment (see
    # per_interval_errors).
    left, right = _knot_signs(f, knots, h, v)

    def fun(x, seg):
        d = (x - knots.take(seg)) / h.take(seg)
        e = np.asarray(f.eval(x), dtype=float) - ((1.0 - d) * v.take(seg) + d * v[1:].take(seg))
        zero = (e == 0.0).nonzero()[0]
        if zero.size:
            z, dz = seg.take(zero), d.take(zero)
            e[zero] = np.where(dz == 0.0, left.take(z), np.where(dz == 1.0, right.take(z), 0.0))
        return e

    return fun


def per_interval_errors(f: TargetFunction, g: PolygonalFunction) -> np.ndarray:
    """L1 error contributed by each segment of g's partition.

    The quadrature's absolute mode cuts each crossing of e = f - g at its
    root, so both sides integrate as smooth panels.  Where e is exactly 0
    at a knot, as at every knot of an interpolant, the sign of f' - s there
    (s the segment's slope) tells the quadrature which sign e takes just
    inside the segment; the root finder halves a bracket that starts on
    that sign, so a lobe between the knot and the nearest sample is still
    located and integrated.
    """
    _check_interval(f, g.partition.a, g.partition.b)
    return integrate_segments(_residual(f, g), g.partition.knots, absolute=True)


def l1_distance(f: TargetFunction, g: PolygonalFunction) -> float:
    """Integral of |f - g| over g's interval.  Where f - g is exactly 0 at
    a knot, the sign of f' - s there stands in for it (see
    ``per_interval_errors``)."""
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


def curvature(
    f: TargetFunction | VectorTargetFunction | KnotDistribution, a: float, b: float
) -> Curvature:
    """The curvature integrals of f over [a, b]: the one quadrature behind
    every bound and planned count.

    Both integrals are read from f's knot distribution, which
    ``build_distribution`` tabulates with one pass, cut at the zeros of
    every f_j'' (see ``polylin.partition``), so on each piece the summed
    |f_j''| is smooth and the cube root's cusp is mapped away.  For a
    distribution from ``build_distribution`` in place of f, nothing is
    integrated again.  A line's f'' is 0, and so are both of its
    integrals; so are those of a target whose f' is constant to rounding
    (``build_distribution`` raises ``LinearTargetError`` on both).  A kink
    between the grid points raises ``ValueError`` as a non-finite f'' does
    (see ``polylin.partition``).
    """
    try:
        sums = _prepared(f, a, b)._sums
    except LinearTargetError:
        return Curvature(0.0, 0.0, (a, b))
    if sums is None:
        raise ValueError("this distribution was not built by build_distribution; pass its target")
    return Curvature(*sums, (a, b))


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
