"""Error measurement, a-priori error bounds, and segment budgeting.

The measured error, the L1 distance, is one sum of signed smooth
integrals of e = f - g between crossings located on the pieces of each
segment where f'' keeps its sign; a target the curvature scan of
``polylin.partition`` cannot vouch for is measured, though not bounded.

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

from ._roots import TINY, roots
from .core import PolygonalFunction, TargetFunction, VectorTargetFunction
from .partition import (
    KnotDistribution,
    LinearTargetError,
    _check_interval,
    _check_segments,
    _scanned,
    _prepared,
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


EPS = float(np.finfo(float).eps)
# Each crossing is narrowed to this share of its bracket.  Off by delta, a
# crossing moves the integral by at most |e'| delta^2 (e' = f' - g' next
# to it): the rounding of the area of a lobe as wide as the bracket.
CROSSING_WIDTH = math.sqrt(EPS)


def per_interval_errors(f: TargetFunction, g: PolygonalFunction) -> np.ndarray:
    """L1 error contributed by each segment of g's partition: the signed
    smooth integrals of e = f - g between its crossings (see
    ``_crossings`` and ``_between_crossings``)."""
    p, v = g.partition, g.ordinates
    _check_interval(f, p.a, p.b)
    found = _crossings(f, p, v, _ends(f, p.knots, 1))
    pieces, values = _between_crossings(f, p, v, found.segments, found.roots, found.start)
    return np.bincount(pieces, values, minlength=p.n_segments)


def l1_distance(f: TargetFunction, g: PolygonalFunction) -> float:
    """Integral of |f - g| over g's interval (see ``per_interval_errors``)."""
    return float(np.sum(per_interval_errors(f, g)))


def _between_crossings(f: TargetFunction, p, v, segments, crossings, start):
    """Each piece's segment and signed integral of e = f - g (g with
    ordinates v on p), from one quadrature call.  e keeps one sign between
    neighbouring crossings of a segment: start[k] just right of segment
    k's left knot, flipped at each crossing (in no particular order, in
    ``segments``); a segment whose start is 0 adds nothing."""
    knots, h, n = p.knots, p.widths, p.n_segments
    # Each piece starts at a segment's left knot or at a crossing.  Sorted
    # by segment, then position (lexsort is stable, so a knot stays ahead of
    # a crossing on it), each ends where the next one starts, the last at
    # its segment's right knot.
    seg = np.concatenate((np.arange(n), segments))
    lo = np.concatenate((knots[:-1], crossings))
    order = np.lexsort((lo, seg))
    seg, lo = seg[order], lo[order]
    last = np.concatenate((seg[1:] != seg[:-1], [True]))
    hi = np.where(last, knots[seg + 1], np.concatenate((lo[1:], [0.0])))
    rank = np.arange(seg.size) - np.searchsorted(seg, seg)
    sign = start[seg] * np.where(rank % 2 == 0, 1.0, -1.0)

    def signed(x, piece):
        return sign.take(piece) * (np.asarray(f.eval(x), dtype=float) - _line(knots, h, v, x, seg.take(piece)))

    return seg, integrate_segments(signed, panels=(lo, hi, np.arange(seg.size), seg.size))


def _line(knots, h, v, x, seg):
    """g at the points x of the segments seg, g with ordinates v on knots
    whose widths are h."""
    d = (x - knots.take(seg)) / h.take(seg)
    return (1.0 - d) * v.take(seg) + d * v[1:].take(seg)


@dataclass(frozen=True)
class _Ends:
    """The ends of the pieces a crossing search cuts a partition into, and
    f and f' there (see ``_ends``).  They do not depend on g."""

    x: np.ndarray  # sorted; the knots are among them
    fx: np.ndarray  # f at x
    d1: np.ndarray  # f' at x
    seg: np.ndarray  # the segment of each piece [x[i], x[i + 1]]
    free: np.ndarray  # whether each piece lies in a scan cell not vouched for


def _ends(f: TargetFunction, knots: np.ndarray, steps: int) -> _Ends:
    """``steps`` equal steps per segment of ``knots``, cut at the zeros of
    f'' and at the ends of the scan cells ``polylin.partition`` cannot
    vouch for, with f and f' there.  The L1 distance takes one step per
    segment; the best-L1 fit takes more, once per fit, so that its
    brackets start narrow."""
    a, b = float(knots[0]), float(knots[-1])
    ((_comp, zeros, cells),) = _scanned(f, a, b)
    grid = knots[:-1, None] + np.diff(knots)[:, None] * (np.arange(steps) / steps)
    cuts = np.concatenate([() if zeros is None else zeros, cells.ravel()])
    x = np.union1d(np.append(grid, b), cuts[(cuts > a) & (cuts < b)])
    seg = np.searchsorted(knots, x[:-1], side="right") - 1
    # A piece inside an unvouched cell sits at an odd place among its ends.
    free = np.searchsorted(cells.ravel(), 0.5 * (x[:-1] + x[1:])) % 2 == 1
    return _Ends(x, *_at(f, x), seg, free)


def _at(f: TargetFunction, x: np.ndarray):
    """f and f' at x; a non-finite f raises QuadratureError."""
    fx = np.asarray(f.eval(x), dtype=float)
    if not np.all(np.isfinite(fx)):
        raise QuadratureError("non-finite integrand value")
    with np.errstate(invalid="ignore", over="ignore"):
        return fx, np.asarray(f.first_derivative(x), dtype=float)


@dataclass(frozen=True)
class _Search:
    """What ``_crossings`` found of e = f - g: its crossings, and per segment."""

    segments: np.ndarray  # the segment of each crossing
    roots: np.ndarray  # the crossings, in no particular order
    before: np.ndarray  # the sign of e just left of each crossing
    start: np.ndarray  # per segment, the sign of e just right of its left knot
    bound: np.ndarray  # per segment, an upper bound on |e|
    scale: np.ndarray  # per segment, the largest |f| + |g| at its piece ends


def _crossings(f: TargetFunction, p, v, ends: _Ends, width: float | None = None) -> _Search:
    """The crossings of e = f - g, g with ordinates v on p, on the pieces
    between ``ends``.

    g is linear on a segment, so e'' = f'': on a vouched piece e is convex
    or concave, so ends of opposite sign bracket one crossing (the sign of
    e' stands in for that of e just inside an end where e = 0), and a
    piece between two zeros of e holds none.  A pair needs e to run toward
    zero at one end and away at the other, and fits nowhere the tangent
    lines at the ends meet on e's side of zero.  Other such pieces,
    brackets with an end where e = 0, and unvouched cells are split where
    e has the sign their ends' values lack: where those tangents meet if e
    does there, else at the extremum of e (the zero of e', to adjacent
    floats).  Brackets are narrowed to ``width`` times their segment, or
    where width is None to CROSSING_WIDTH of themselves.  Zeros of f''
    closer than the scan grid go unseen, and so can a pair there.  As e
    lies between its chord and its tangents, |e| on a segment is bounded
    by its piece ends and, on vouched pieces where e turns, where they meet.
    """
    knots, h = p.knots, p.widths
    s = np.diff(v) / h

    def resid(t, k):
        return np.asarray(f.eval(t), dtype=float) - _line(knots, h, v, t, k)

    def slope(t, k):
        with np.errstate(invalid="ignore", over="ignore"):
            return np.asarray(f.first_derivative(t), dtype=float) - s.take(k)

    def pieces(x, fx, d1, seg):
        # Per piece [x[i], x[i+1]]: e and e' at its ends, the sign of e just
        # inside them, their larger |f| + |g|; each segment's first piece.
        gx = np.interp(x, knots, v)
        with np.errstate(invalid="ignore", over="ignore"):
            d_lo, d_hi = d1[:-1] - s[seg], d1[1:] - s[seg]
        e, size = fx - gx, np.abs(fx) + np.abs(gx)
        s_lo = _sign(np.where(e[:-1] != 0.0, e[:-1], d_lo))
        s_hi = _sign(np.where(e[1:] != 0.0, e[1:], -d_hi))
        first = np.flatnonzero(np.concatenate([[True], seg[1:] != seg[:-1]]))
        return e[:-1], e[1:], d_lo, d_hi, s_lo, s_hi, np.maximum(size[:-1], size[1:]), first

    x, fx, d1, seg = ends.x, ends.fx, ends.d1, ends.seg
    e_lo, e_hi, d_lo, d_hi, s_lo, s_hi, top, first = pieces(x, fx, d1, seg)
    # Only a piece where e' changes sign can hold a pair, or take |e| past
    # its ends' values: the rest are read on those alone.
    t = np.flatnonzero(d_lo * d_hi < 0.0)
    lo, hi, e0, e1, de0, de1, s0, s1 = (q[t] for q in (x[:-1], x[1:], e_lo, e_hi, d_lo, d_hi, s_lo, s_hi))
    with np.errstate(invalid="ignore", over="ignore"):
        # Where the tangent lines at the ends meet, and e on them there.
        z = (e1 - e0 + de0 * lo - de1 * hi) / (de0 - de1)
        meet = e0 + de0 * (z - lo)
    inside = (z > lo) & (z < hi)
    tangent = np.zeros(first.size)
    np.maximum.at(tangent, seg[t], np.where(inside & ~ends.free[t], np.abs(meet), 0.0))
    pair = (s0 == s1) & (s0 * de0 < 0.0) & ~(s0 * meet > 0.0)
    zero_end = (s0 != s1) & ((e0 == 0.0) | (e1 == 0.0))
    j = np.flatnonzero(inside & (pair | zero_end))
    hit = j[np.where(e0[j] == 0.0, s1[j], s0[j]) * resid(z[j], seg[t[j]]) < 0.0] if j.size else j
    need = pair | zero_end | ends.free[t]
    need[hit] = False
    k, split = t[need], t[hit]
    if k.size + split.size:
        # roots reads e' at the ends for its sign and its steps: an
        # infinite f' there is given as the largest finite value.
        big = np.finfo(float).max
        ends_d = (np.clip(d.take(k), -big, big) for d in (d_lo, d_hi))
        d_noise = EPS * (np.maximum(np.abs(d1[k]), np.abs(d1[k + 1])) + np.abs(s[seg[k]]))
        m = roots(slope, seg[k], x[k], x[k + 1], *ends_d, d_noise) if k.size else x[k]
        # Each split point joins the ends in its piece's segment.
        new = np.concatenate([m, z[hit]])
        x, idx = np.unique(np.concatenate([x, new]), return_index=True)
        fx, d1 = (np.concatenate(both)[idx] for both in zip((fx, d1), _at(f, new)))
        seg = np.concatenate([seg, seg[-1:], seg[k], seg[split]])[idx[:-1]]
        e_lo, e_hi, d_lo, d_hi, s_lo, s_hi, top, first = pieces(x, fx, d1, seg)
    bound = np.maximum(tangent, np.maximum.reduceat(np.maximum(np.abs(e_lo), np.abs(e_hi)), first))
    # Where e and e' are both 0 at an end, the piece's other end tells.
    s_lo, s_hi = np.where(s_lo == 0.0, s_hi, s_lo), np.where(s_hi == 0.0, s_lo, s_hi)
    s_lo, s_hi = s_lo + (s_lo == 0.0), s_hi + (s_hi == 0.0)
    k = np.flatnonzero(s_lo != s_hi)
    # An end where e = 0 exactly is given as its sign alone (see _roots).
    ends_e = (np.where(e[k] != 0.0, e[k], sg[k] * TINY) for e, sg in ((e_lo, s_lo), (e_hi, s_hi)))
    narrow = CROSSING_WIDTH * (x[k + 1] - x[k]) if width is None else width * h[seg[k]]
    r = roots(resid, seg[k], x[k], x[k + 1], *ends_e, EPS * top[k], narrow) if k.size else x[k]
    # A piece end inside a segment where e = 0 and the sign flips crosses.
    at = np.flatnonzero((seg[1:] == seg[:-1]) & (s_hi[:-1] != s_lo[1:]))
    found = (np.concatenate(both) for both in ((seg[k], seg[at]), (r, x[at + 1]), (s_lo[k], s_hi[at])))
    return _Search(*found, s_lo[first], bound, np.maximum.reduceat(top, first))


def _sign(a: np.ndarray) -> np.ndarray:
    """The sign of a, 0 where a is 0 or NaN."""
    return (a > 0.0) - (a < 0.0).astype(float)


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
