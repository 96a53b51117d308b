"""Numeric inner loops in numpy: polygonal evaluation and the tridiagonal solve."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def backend() -> str:
    """Name of the kernel implementation, recorded by ``polylin bench``."""
    return "numpy"


# -- polygonal evaluation ----------------------------------------------------
#
# Segment k (0-based) is the right-open [x_k, x_{k+1}).  Each evaluator
# builds a table once, holding v[k] and one difference per segment, plus a
# sentinel segment k = N that starts at x_N with v[N] and a zero
# difference.  A point at x_N lands on the sentinel and gets v[N] + d*0 =
# v[N] bit for bit, and no pass folds x_N into segment N - 1.  The table
# search puts every knot at d = 0, so every knot returns its ordinate bit
# for bit.  The uniform kernel does so where t (below) rounds to the
# knot's index, as at every knot of [0, 1] with N a power of 2; elsewhere
# d at a knot is a rounding error of t.
#
# Uniform storage: the segment comes from one multiply and a floor, using
# only the end knots: t = (x - x0)*N/(xN - x0), k = floor t, d = t - k,
# and the value is v[k] + d*Δv[k], Δv[k] = v[k+1] - v[k].  That d is bit
# for bit the 1 - i + t of the 1-based index i = k + 1, because
# 1 - (k + 1) is exactly -k.  A t that rounds to N or just past it
# takes the sentinel.
#
# General storage: a guide table (Chen & Asau 1974; Devroye, Non-Uniform
# Random Variate Generation, 1986, section III.2.4), O(1) per point.  M
# uniform cells cover [x0, xN], and a point's cell is int((x - x0) * scale).
# Each cell stores the number of knots x_1..x_N in the cells before it.
# That is the point's segment (0-based), or the one before it when the
# cell's own knot lies at or left of the point, so one compare against the
# segment's right end settles the lookup (x_N is the right end of segment
# N - 1 and the sentinel's is +inf).  Knots get their cells from the same
# float formula as points, and the formula is monotone in x, so the stored
# counts are exact.  M is twice the number of narrowest widths that fit in
# [x0, xN], so no cell holds two knots.  Where that would take more than
# MAX_CELLS_PER_SEGMENT * N cells (strongly graded knots), the cells that
# hold several knots are binary-searched instead: O(log N) worst case.
# The counts are stored as intp, so a lookup indexes with them directly.
# The value is v[k] + (x - x_k)*s[k], s[k] = Δv[k]/(x_{k+1} - x_k) the
# slope per unit x, so no width is gathered and nothing divides per point.
#
# Where Δv or the slope overflows (ordinates near the float limit, or a
# subnormal width), the table stores 0 there and marks the segment steep.
# Its points take the convex form d*v[k+1] + (1 - d)*v[k], with d the
# fraction of the segment, which cannot overflow.  A table with no steep
# segment stores None for the mark and pays nothing for it.
#
# Both kernels write into an optional ``out``, which may be xs itself, and
# gather with take into buffers they already hold: a call holds at most
# three arrays the size of its batch at once (24 bytes a point), plus a
# bool mask in the table search.  mode="clip" never moves an index (every
# k is a segment or the sentinel); it only lets take write into out
# without an intermediate copy.

MAX_CELLS_PER_SEGMENT = 8


@dataclass(frozen=True)
class UniformTable:
    """Values on equally spaced knots (see the comment above)."""

    x0: float
    span: float  # xN - x0
    n: int
    v: np.ndarray
    step: np.ndarray  # v[k + 1] - v[k], then the sentinel's 0
    steep: np.ndarray | None  # segments whose step overflowed; None if there are none

    @classmethod
    def build(cls, knots: np.ndarray, v: np.ndarray) -> "UniformTable":
        with np.errstate(over="ignore"):
            step, steep = _steps(np.diff(v))
        return cls(float(knots[0]), float(knots[-1] - knots[0]), knots.size - 1, v, step, steep)

    def evaluate(self, xs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Values at xs, every one in [x0, xN] (the callers check or clamp)."""
        t = np.subtract(xs, self.x0)
        t *= self.n
        t /= self.span
        # The floor stays a float until t - k is taken, which saves a
        # mixed-type pass.
        k = np.floor(t)
        t -= k
        return _line(self, k.astype(np.intp), t, out)


@dataclass(frozen=True)
class GuideTable:
    """Segment lookup and values for strictly increasing knots (see the comment above)."""

    knots: np.ndarray
    v: np.ndarray
    step: np.ndarray  # slope of each segment, then the sentinel's 0
    steep: np.ndarray | None  # segments whose slope overflowed; None if there are none
    right: np.ndarray  # knots[k + 1], with +inf for the sentinel
    scale: float  # cells per unit length
    first: np.ndarray  # intp, M + 1 entries: knots x_1..x_N left of each cell
    crowded: np.ndarray | None  # cells holding several knots; None if there are none

    @classmethod
    def build(cls, knots: np.ndarray, v: np.ndarray) -> "GuideTable":
        n = knots.size - 1
        width = np.diff(knots)
        span = float(knots[-1] - knots[0])
        m = int(math.ceil(min(2.0 * span / float(width.min()), MAX_CELLS_PER_SEGMENT * n)))
        scale = m / span
        if not math.isfinite(scale):  # span below m / 1.8e308: one cell holds every knot
            scale = 0.0
        cells = ((knots[1:] - knots[0]) * scale).astype(np.intp)
        counts = np.bincount(cells, minlength=m + 1)
        first = np.zeros(m + 1, dtype=np.intp)
        np.cumsum(counts[:-1], out=first[1:])
        crowded = counts > 1
        right = np.append(knots[1:], np.inf)
        with np.errstate(over="ignore"):
            step, steep = _steps(np.diff(v) / width)
        return cls(knots, v, step, steep, right, scale, first, crowded if crowded.any() else None)

    def segments(self, xs: np.ndarray) -> np.ndarray:
        """0-based segment of every abscissa in [x0, xN]: N, the sentinel, at xN."""
        t = np.subtract(xs, self.knots[0])
        t *= self.scale
        cells = t.astype(np.intp)
        k = self.first.take(cells)
        k += xs >= self.right.take(k, out=t, mode="clip")
        if self.crowded is not None:
            hit = self.crowded.take(cells)
            k[hit] = np.searchsorted(self.right, xs[hit], side="right")
        return k

    def evaluate(self, xs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Values at xs, every one in [x0, xN] (the callers check or clamp)."""
        k = self.segments(xs)
        d = self.knots.take(k, mode="clip")
        np.subtract(xs, d, out=d)
        return _line(self, k, d, out, self.knots)


def _steps(step: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """step with the sentinel's 0 appended, and its overflowed entries set
    to 0 and marked steep (None when there are none)."""
    step = np.append(step, 0.0)
    steep = ~np.isfinite(step)
    if not steep.any():
        return step, None
    step[steep] = 0.0
    return step, steep


def _line(
    table: UniformTable | GuideTable,
    k: np.ndarray,
    d: np.ndarray,
    out: np.ndarray | None,
    knots: np.ndarray | None = None,
) -> np.ndarray:
    """v[k] + d*step[k] into out, overwriting d.

    A point in a steep segment gets f*v[k + 1] + (1 - f)*v[k] instead,
    with f = d, or f = d/(x_{k+1} - x_k) when knots are given.
    """
    out = table.step.take(k, out=out, mode="clip")
    out *= d
    if table.steep is not None:
        hit = table.steep.take(k)
        j = k[hit]
        f = d[hit] if knots is None else d[hit] / (knots[j + 1] - knots[j])
        exact = f * table.v[j + 1] + (1.0 - f) * table.v[j]
    out += table.v.take(k, out=d, mode="clip")
    if table.steep is not None:
        out[hit] = exact
    return out


def thomas(lower, diag, upper, rhs) -> np.ndarray:
    """Tridiagonal forward elimination + back substitution, no pivoting.

    A zero pivot raises ``numpy.linalg.LinAlgError``.  The two loops run
    on Python floats, IEEE doubles as numpy's are, so they round as a loop
    over numpy scalars would, at a third of the cost.
    """
    lower, diag, upper, rhs = (np.asarray(v, dtype=float).tolist() for v in (lower, diag, upper, rhs))
    piv = diag[0]
    if piv == 0.0:
        raise np.linalg.LinAlgError("zero pivot in tridiagonal solve")
    ck, dk = upper[0] / piv if upper else 0.0, rhs[0] / piv
    c, d = [ck], [dk]
    # The last row has no upper entry; the 0 it gets is never read back.
    for low, mid, up, r in zip(lower, diag[1:], upper[1:] + [0.0], rhs[1:]):
        piv = mid - low * ck
        if piv == 0.0:
            raise np.linalg.LinAlgError("zero pivot in tridiagonal solve")
        ck, dk = up / piv, (r - low * dk) / piv
        c.append(ck)
        d.append(dk)
    x = [dk]
    for ck, dk in zip(c[-2::-1], d[-2::-1]):
        x.append(dk - ck * x[-1])
    return np.array(x[::-1])
