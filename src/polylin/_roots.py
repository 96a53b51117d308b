"""Bracketed root finding, vectorized over many independent brackets.

Used for the crossings of f - g, which the L1 distance and the best-L1
fit find with one search (``polylin.analysis._crossings``); for the
zeros of e' = f' - s (s a segment's slope) at which that search splits a
piece that may hold a pair of crossings; and for the zeros of f'' that
the curvature integrals, and the search's pieces, are cut at.

A value no larger in size than TINY, the smallest normal double, has a
sign but no size: it is 0, or the stand-in that the search writes where
e = f - g is 0 exactly at a piece end.  A bracket that starts on such a
value is halved, since a step from it would land next to that end, in
the rounding of e, and miss a lobe between the end and the root.  This
is the one place that reads the stand-in.
"""

from __future__ import annotations

import numpy as np

__all__ = ["roots"]

TINY = float(np.finfo(float).tiny)


def roots(resid, seg, lo, hi, e_lo, e_hi, noise, width=0.0):
    """Narrow every bracket [lo, hi] of a sign change of e to ``width``.

    ``resid(x, seg)`` evaluates e at the points x of the brackets numbered
    seg; ``e_lo``/``e_hi`` are e at the bracket ends, which must have
    opposite signs, and ``noise`` is each bracket's rounding band of e.
    Chandrupatla's method (Adv. Eng. Softw. 28(3), 1997): x1 is the newest
    point, x2 the bracket's other end and x3 the end dropped last.  The next
    point is the inverse quadratic through the three where their values are
    close enough to monotone for it to be trusted, the midpoint otherwise,
    and false position through the two given ends at the first step.  Each
    point keeps a tolerance from both ends: one float spacing, half the
    bracket's ``width``, or the span over which e moves by ``noise`` (its
    rounding), whichever is widest.  A point that closes in on the root
    from one side is then followed by one past it, and where rounding
    blurs the sign of e the bracket is halved instead of crept along; so
    is, all the way, a bracket with an end given as no larger than TINY.
    Once every open bracket lies within that rounding, where e tells no
    more than its sign, bisect finishes them.  A bracket is done once it
    is no wider than its ``width`` (a scalar or one per bracket), or once
    its midpoint rounds to an end, bisection's own stop; its root is that
    midpoint, so e changes sign within width / 2 of it.  With width 0
    only the latter stop applies: e at the root and at one adjacent float
    have opposite signs, zero counting as positive.  Finished brackets
    are dropped whenever they are half of those carried.
    """
    root = np.empty(lo.size)
    idx = np.arange(lo.size)
    noise = np.where((np.abs(e_lo) <= TINY) | (np.abs(e_hi) <= TINY), np.inf, noise)
    width = np.broadcast_to(np.asarray(width, dtype=float), lo.shape)
    x1, f1, x2, f2, x3, f3 = hi, e_hi, lo, e_lo, lo, e_lo
    t = e_hi / (e_hi - e_lo)
    # The inverse quadratic divides by f3 - f1, which is zero only where
    # the interpolation is already rejected; so is every quotient that
    # overflows next to an e as small as TINY.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while True:
            a, b = np.minimum(x1, x2), np.maximum(x1, x2)
            mid = 0.5 * (a + b)
            open_ = (mid > a) & (mid < b) & (b - a > width)
            n_open = np.count_nonzero(open_)
            if 2 * n_open <= idx.size:
                root[idx[~open_]] = mid[~open_]
                if n_open == 0:
                    return root
                idx, seg, x1, f1, x2, f2, x3, f3, t, a, b, mid, noise, width = (
                    z[open_] for z in (idx, seg, x1, f1, x2, f2, x3, f3, t, a, b, mid, noise, width)
                )
            d12 = f1 - f2
            tol = np.maximum(np.spacing(np.maximum(-a, b)), 0.5 * width)
            clamp = np.minimum(np.maximum(tol / (b - a), noise / np.abs(d12)), 0.5)
            if (clamp == 0.5).all():
                root[idx] = bisect(resid, seg, a, b, np.where(x1 == a, f1, f2) >= 0.0, width)
                return root
            xt = x1 + np.minimum(np.maximum(t, clamp), 1.0 - clamp) * (x2 - x1)
            xt = np.where((xt > a) & (xt < b), xt, mid)
            ft = resid(xt, seg)
            same = (ft >= 0.0) == (f1 >= 0.0)
            x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
            x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
            x1, f1 = xt, ft
            d12, d32 = f1 - f2, f3 - f2
            xi, phi = (x1 - x2) / (x3 - x2), d12 / d32
            guess = f1 / d32 * (f3 / d12 + (x3 - x1) / (x2 - x1) * f2 / (f3 - f1))
            t = np.where((phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi), guess, 0.5)


def bisect(resid, seg, lo, hi, lo_pos, width):
    """Halve every bracket [lo, hi] of a sign change down to its ``width``.

    ``lo_pos`` is the sign of e at lo (zero counting as positive).  A
    bracket is done, as in roots, once it is no wider than its width or
    its midpoint rounds to an end.  Finished brackets are dropped whenever
    they are half of those carried.
    """
    root = np.empty(lo.size)
    idx = np.arange(lo.size)
    while True:
        mid = 0.5 * (lo + hi)
        split = (mid > lo) & (mid < hi) & (hi - lo > width)
        n_split = np.count_nonzero(split)
        if 2 * n_split <= idx.size:
            root[idx[~split]] = mid[~split]
            if n_split == 0:
                return root
            idx, seg, lo, hi, lo_pos, mid, split, width = (
                z[split] for z in (idx, seg, lo, hi, lo_pos, mid, split, width)
            )
        same = (resid(mid, seg) >= 0.0) == lo_pos
        lo = np.where(split & same, mid, lo)
        hi = np.where(split & ~same, mid, hi)
