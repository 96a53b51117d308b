"""Batched adaptive Simpson quadrature over tagged panels.

One engine serves every integral in the package: panels, each tagged with
the total it adds to, are refined in lockstep, so the integrand is
evaluated on one numpy array per refinement level.  Every panel is
bisected MIN_LEVELS times before a tolerance test may accept it, so where
those forced levels sample is known up front and the start takes one call
at all 17 abscissae of every panel, whose output fixes the component
count.  Each later level takes one call for the panels still open.

Integrands may be vector valued (several components sharing the same
sample points, as many as the integrand's output has columns), and are
smooth: callers cut their panels at kinks and changes of sign, and a kink
left inside a panel is refined down to the kink floor.  Refinement ends
on its own: a panel splits only while its quarter points are distinct
floats and it is wider than the kink floor, 2^-40 of the call's total
width, so no panel is bisected much more than 40 times.

A caller that tabulates a running integral can read the panels one call
accepted, with their ends, contributions and samples
(``_accepted_panels``), so the table costs no second quadrature.  An
accepted panel's contribution is Boole's rule on its five samples, the
exact integral of the quartic through them, so the running integral
inside a panel is that quartic's too.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools

import numpy as np

__all__ = ["QuadratureError", "integrate_segments"]


class QuadratureError(RuntimeError):
    """Adaptive refinement failed (non-finite integrand or tolerance not met)."""


# Rounding floor: no panel is asked to beat ~1000 ulps of its own value
# scale, which is where Richardson differences drown in cancellation noise
# for large-magnitude integrands (e.g. steep sigmoid ramps).
NOISE_EPS = 2e-13
# Refinement abort: fail loudly rather than exhaust memory.
PANEL_CAP = 4_000_000
# Every panel is bisected at least MIN_LEVELS times before it may be
# accepted.
MIN_LEVELS = 2

# Where the next integrate_segments call hands its accepted panels; see
# ``_accepted_panels``.
_LISTENER = contextvars.ContextVar("polylin_accepted_panels", default=None)


@contextlib.contextmanager
def _accepted_panels():
    """Collect the panels that the next ``integrate_segments`` call in the
    block accepts.

    Yields a list that the call, once it returns, fills with five arrays:
    every accepted panel's ends ``lo`` and ``hi``, its destination index,
    its contribution to the totals (the Richardson-corrected Simpson sum,
    one column per component), and the five samples that sum weighs, at
    lo, the quarter points and hi (shape (panels, 5, components)), in no
    particular order.  The panels tile the
    call's segments, so summing the contributions by destination gives its
    results up to the order of the additions.  S2 + (S2 - S1)/15 is
    Boole's rule, (hi - lo)/90 * (7, 32, 12, 32, 7) on the samples, up to
    the rounding of the midpoint the panel was split at.
    """
    out = []
    token = _LISTENER.set(out)
    try:
        yield out
    finally:
        _LISTENER.reset(token)


def _call(fun, x, seg, columns=None):
    """fun at x as an (x.size, columns) array; ``columns`` defaults to what
    the output has (one for a 1-D output)."""
    vals = np.asarray(fun(x, seg), dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    if columns is None and vals.ndim == 2:
        columns = max(vals.shape[1], 1)
    if vals.shape != (x.size, columns):
        raise ValueError(f"integrand returned shape {vals.shape} for {x.size} points")
    if not np.isfinite(vals).all():
        raise QuadratureError("non-finite integrand value")
    return vals


def _check_cap(n):
    """Refuse to sample a level of more than PANEL_CAP panels."""
    if n > PANEL_CAP:
        raise QuadratureError(
            f"refinement reached {n} active panels; "
            "integrand is too rough for the requested tolerance"
        )


def integrate_segments(fun, panels, *, abs_tol: float = 1e-12, rel_tol: float = 0.0):
    """Integrate ``fun`` over panels, returning per-destination totals.

    ``panels`` = (lo, hi, seg, nseg): panels with finite ends, each tagged
    with its destination index in range(nseg); segments [x[k], x[k+1]]
    are (x[:-1], x[1:], arange(N), N).  The absolute error is budgeted
    across panels in proportion to width, so the summed error of each
    component is below max(abs_tol, rel_tol * |its total|).

    fun(x, seg) -> (npts,) or (npts, k): one or k components, a count taken
    from the first call, which samples every abscissa of the forced
    bisections, and then required of every later call.  ``seg`` carries the
    destination of every sample point so local quantities (barycentric
    coordinates, local ordinates) can be formed without searching.

    A panel too narrow to split further is accepted with its residual
    recorded; residuals are totalled per component and checked against
    each component's own allowance at the end.

    Returns an (nseg,) array, or (nseg, k) when k > 1.
    """
    lo, hi, seg, nseg = panels
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    seg = np.asarray(seg, dtype=np.intp).copy()
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError("panel ends must be finite")
    if np.any(hi < lo):
        raise ValueError("panel with hi < lo")
    listener = _LISTENER.get()
    if listener is not None:
        _LISTENER.set(None)  # an integrand's own quadrature is not recorded
    accepted = []

    # Zero-width panels contribute nothing; drop them up front.
    keep = hi > lo
    lo, hi, seg = lo[keep], hi[keep], seg[keep]
    total_width = float((hi - lo).sum())
    kink_floor = total_width * 2.0**-40

    def simpson(w, va, vm, vb):
        return (w / 6.0)[:, None] * (va + 4.0 * vm + vb)

    def estimates(lo, mid, hi, samples):
        """Simpson's rule on both halves of each panel, summed, and its
        Richardson error against the rule on the whole panel."""
        y_lo, y_lm, y_mid, y_rm, y_hi = samples
        # Measure the halves from the rounded mid they were split at: on a
        # panel only thousands of ulps wide (far from the origin) half the
        # nominal width is off by 1e-4 relative or more, and Richardson's
        # estimate never settles.
        halves = simpson(mid - lo, y_lo, y_lm, y_mid) + simpson(hi - mid, y_mid, y_rm, y_hi)
        return halves, (halves - simpson(hi - lo, y_lo, y_mid, y_hi)) / 15.0

    def narrow(lo, lm, rm, hi):
        # A panel too narrow to split (a quarter point collides with an end, or
        # width below the kink floor, where refinement only chases rounding
        # jitter) cannot improve.
        return (lm <= lo) | (rm >= hi) | (hi - lo <= kink_floor)

    def children(rows, left, right):
        # What the split rows hand their left children, then their right
        # ones; when every row splits there is nothing to gather.
        if rows.size < len(left):
            left, right = left.take(rows, axis=0), right.take(rows, axis=0)
        return np.concatenate([left, right])

    def descend(rows, lo, lm, mid, rm, hi):
        return children(rows, lo, mid), children(rows, lm, rm), children(rows, mid, hi)

    def add(rows, lo, hi, seg, contrib, samples):
        idx = seg.take(rows)
        for c in range(columns):
            totals[:, c] += np.bincount(idx, weights=contrib[:, c], minlength=nseg)
        if listener is not None:
            weighed = np.stack([v.take(rows, axis=0) for v in samples], axis=1)
            accepted.append((lo.take(rows), hi.take(rows), idx, contrib, weighed))

    # Every panel is bisected MIN_LEVELS times before a test may accept it,
    # so the abscissae of those levels are known before anything is sampled,
    # and one call samples them all, the panels' ends included; its output
    # fixes the component count.  A panel too narrow to split at a forced
    # level is accepted there with its residual recorded, and nothing
    # inside it is sampled.
    mid = 0.5 * (lo + hi)
    pts, segs = [lo, mid, hi], [seg, seg, seg]
    tiers, splits = [], []
    for level in range(MIN_LEVELS + 1):
        _check_cap(lo.size)
        lm, rm = 0.5 * (lo + mid), 0.5 * (mid + hi)
        tiers.append((lo, lm, mid, rm, hi, seg))
        pts += [lm, rm]
        segs += [seg, seg]
        if level < MIN_LEVELS:
            tight = narrow(lo, lm, rm, hi)
            split = (~tight).nonzero()[0]
            splits.append((tight.nonzero()[0], split))
            lo, mid, hi = descend(split, lo, lm, mid, rm, hi)
            seg = children(split, seg, seg)
    vals = _call(fun, np.concatenate(pts), np.concatenate(segs))
    columns = vals.shape[1]
    totals = np.zeros((nseg, columns))
    if vals.shape[0] == 0:
        return totals[:, 0] if columns == 1 else totals
    leftover = np.zeros(columns)
    ends = list(itertools.accumulate(v.size for v in pts))
    forced = iter([vals[i:j] for i, j in zip([0, *ends], ends)])

    f_lo, f_mid, f_hi = next(forced), next(forced), next(forced)
    for (lo, lm, mid, rm, hi, seg), (stuck, split) in zip(tiers, splits):
        f_lm, f_rm = next(forced), next(forced)
        samples = (f_lo, f_lm, f_mid, f_rm, f_hi)
        if stuck.size:
            S2, err = estimates(
                *(v.take(stuck, axis=0) for v in (lo, mid, hi)),
                [v.take(stuck, axis=0) for v in samples],
            )
            leftover += np.abs(err).sum(axis=0)
            add(stuck, lo, hi, seg, S2 + err, samples)
        f_lo, f_mid, f_hi = descend(split, *samples)
    lo, lm, mid, rm, hi, seg = tiers[MIN_LEVELS]
    f_lm, f_rm = next(forced), next(forced)

    while True:
        samples = (f_lo, f_lm, f_mid, f_rm, f_hi)
        S2, err = estimates(lo, mid, hi, samples)

        # Width-proportional error budget, optionally scaled by a running
        # estimate of each column's total when a relative tolerance is
        # requested.
        tol_line = abs_tol
        if rel_tol > 0.0:
            estimate = totals.sum(axis=0) + S2.sum(axis=0)
            tol_line = np.maximum(abs_tol, rel_tol * np.abs(estimate))
        w = hi - lo
        thr = (tol_line / total_width) * w[:, None]
        # The budget is raised by a rounding floor: Richardson differences
        # below NOISE_EPS times the sampled value scale are cancellation
        # noise, and chasing them refines forever without gaining a digit.
        vmax = functools.reduce(np.maximum, map(np.abs, samples))
        limit = np.maximum(thr, NOISE_EPS * vmax * w[:, None])
        ok = (np.abs(err) <= limit).all(axis=1)

        # A panel too narrow to split is accepted with the residual error
        # recorded per component.
        degenerate = narrow(lo, lm, rm, hi)
        stuck = degenerate & ~ok
        if stuck.any():
            leftover += np.abs(err[stuck]).sum(axis=0)
            ok |= degenerate

        done = ok.nonzero()[0]
        if done.size:
            add(done, lo, hi, seg, S2.take(done, axis=0) + err.take(done, axis=0), samples)

        rows = (~ok).nonzero()[0]
        if rows.size == 0:
            break
        lo, mid, hi = descend(rows, lo, lm, mid, rm, hi)
        f_lo, f_mid, f_hi = descend(rows, *samples)
        seg = children(rows, seg, seg)
        _check_cap(lo.size)
        lm, rm = 0.5 * (lo + mid), 0.5 * (mid + hi)
        vals = _call(fun, np.concatenate([lm, rm]), np.concatenate([seg, seg]), columns)
        f_lm, f_rm = vals[: lo.size], vals[lo.size :]

    # Residuals are judged per component against that component's own
    # allowance.
    scale = np.sum(np.abs(totals), axis=0)
    allow = np.maximum(abs_tol, rel_tol * scale)
    if np.any(leftover > 10.0 * allow):
        c = int(np.argmax(leftover / allow))
        raise QuadratureError(
            f"residual error {leftover[c]:.3e} in component {c} "
            "above tolerance after refinement"
        )
    if listener is not None:
        listener.extend(np.concatenate(parts) for parts in zip(*accepted))
    return totals[:, 0] if columns == 1 else totals
