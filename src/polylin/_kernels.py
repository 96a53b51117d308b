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
# Segments are right-open, [x_{i-1}, x_i), with x = xN folded into the last
# segment.
#
# Uniform storage: the segment index comes from one multiply and a floor,
# delta = 1 - i + N*(x - x0)/(xN - x0), using only the end knots.
#
# General storage: a guide table (Chen & Asau 1974; Devroye, Non-Uniform
# Random Variate Generation, 1986, section III.2.4), O(1) per point.  M
# uniform cells cover [x0, xN], and a point's cell is int((x - x0) * scale).
# Each cell stores the number of interior knots in the cells before it.
# That is the point's segment (0-based), or the one before it when the
# cell's own knot lies at or left of the point, so one compare against the
# segment's right end settles the lookup.  Knots get their cells from the
# same float formula as points, and the formula is monotone in x, so the
# stored counts are exact.  M is twice the number of narrowest widths that
# fit in [x0, xN], so no cell holds two knots.  Where that would take more
# than MAX_CELLS_PER_SEGMENT * N cells (strongly graded knots), the cells
# that hold several knots are binary-searched instead: O(log N) worst case.

MAX_CELLS_PER_SEGMENT = 8


def eval_uniform(x0: float, xn: float, ordinates: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Values at xs, every one in [x0, xN] (the callers check or clamp)."""
    n = ordinates.size - 1
    t = n * (xs - x0) / (xn - x0)
    i = np.floor(t).astype(np.int64) + 1
    # x >= x0 gives t >= 0 and so i >= 1; only x = xN (and rounding next
    # to it) needs folding into the last segment.  One in-place minimum
    # gives what np.clip(i, 1, n) gave, without its per-call dispatch.
    np.minimum(i, n, out=i)
    d = 1.0 - i + t
    return (1.0 - d) * ordinates[i - 1] + d * ordinates[i]


@dataclass(frozen=True)
class GuideTable:
    """Segment lookup for strictly increasing knots (see the comment above)."""

    knots: np.ndarray
    width: np.ndarray  # knots[k + 1] - knots[k]
    right: np.ndarray  # knots[k + 1], with +inf for the last segment
    scale: float  # cells per unit length
    first: np.ndarray  # int32, M + 1 entries: interior knots left of each cell
    crowded: np.ndarray | None  # cells holding several knots; None if there are none

    @classmethod
    def build(cls, knots: np.ndarray) -> "GuideTable":
        n = knots.size - 1
        width = np.diff(knots)
        span = float(knots[-1] - knots[0])
        m = int(math.ceil(min(2.0 * span / float(width.min()), MAX_CELLS_PER_SEGMENT * n)))
        scale = m / span
        if not math.isfinite(scale):  # span below m / 1.8e308: one cell holds every knot
            scale = 0.0
        cells = ((knots[1:-1] - knots[0]) * scale).astype(np.intp)
        counts = np.bincount(cells, minlength=m + 1)
        first = np.zeros(m + 1, dtype=np.int32)
        np.cumsum(counts[:-1], out=first[1:])
        crowded = counts > 1
        right = np.append(knots[1:-1], np.inf)
        return cls(knots, width, right, scale, first, crowded if crowded.any() else None)

    def segments(self, xs: np.ndarray) -> np.ndarray:
        """0-based segment of every abscissa in [x0, xN]."""
        t = xs - self.knots[0]
        t *= self.scale
        cells = t.astype(np.intp)
        k = self.first[cells].astype(np.intp)
        k += xs >= self.right[k]
        if self.crowded is not None:
            hit = self.crowded[cells]
            k[hit] = np.searchsorted(self.right, xs[hit], side="right")
        return k


def eval_guided(table: GuideTable, ordinates: np.ndarray, xs: np.ndarray) -> np.ndarray:
    k = table.segments(xs)
    d = xs - table.knots[k]
    d /= table.width[k]
    out = d * ordinates[1:][k]
    np.subtract(1.0, d, out=d)
    d *= ordinates[:-1][k]
    out += d
    return out


def thomas(lower, diag, upper, rhs) -> np.ndarray:
    """Tridiagonal forward elimination + back substitution, no pivoting.

    A zero pivot raises ``numpy.linalg.LinAlgError``.
    """
    lower, diag, upper, rhs = (np.asarray(v, dtype=float) for v in (lower, diag, upper, rhs))
    n = diag.size
    c = np.empty(n)
    d = np.empty(n)
    x = np.empty(n)
    piv = diag[0]
    if piv == 0.0:
        raise np.linalg.LinAlgError("zero pivot in tridiagonal solve")
    c[0] = upper[0] / piv if n > 1 else 0.0
    d[0] = rhs[0] / piv
    for k in range(1, n):
        piv = diag[k] - lower[k - 1] * c[k - 1]
        if piv == 0.0:
            raise np.linalg.LinAlgError("zero pivot in tridiagonal solve")
        c[k] = upper[k] / piv if k < n - 1 else 0.0
        d[k] = (rhs[k] - lower[k - 1] * d[k - 1]) / piv
    x[n - 1] = d[n - 1]
    for k in range(n - 2, -1, -1):
        x[k] = d[k] - c[k] * x[k + 1]
    return x
