"""Batched adaptive Simpson quadrature over segmented intervals.

One engine serves every integral in the package: panels are refined in
lockstep across all segments, so the integrand is always evaluated on one
numpy array per refinement level.  Integrands may be vector valued (several
components sharing the same sample points, as many as the integrand's output
has columns), and absolute-value integrands get sign-aware refinement: a
panel whose sampled values change sign is bisected until the sign is
resolved or the panel is negligibly narrow.
An absolute-value integrand may have several components; their absolute
values are summed and a sign change in any one of them forces bisection.
"""

from __future__ import annotations

import functools

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
# accepted; MAX_LEVELS bisections reach the resolution of a double.
MIN_LEVELS = 2
MAX_LEVELS = 52


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
    if not np.all(np.isfinite(vals)):
        raise QuadratureError("non-finite integrand value")
    return vals


def integrate_segments(
    fun,
    edges=None,
    *,
    panels=None,
    abs_tol: float = 1e-12,
    rel_tol: float = 0.0,
    resolve_floor: float | None = None,
    absolute: bool = False,
):
    """Integrate ``fun`` over each segment, returning per-segment totals.

    fun(x, seg) -> (npts,) or (npts, k): one or k components, a count taken
    from the first output and then required of every call.  ``seg`` carries
    the segment index of every sample point so local quantities (barycentric
    coordinates, local ordinates) can be formed without searching.

    Segments come either from ``edges`` (array of N+1 breakpoints -> N
    segments) or from ``panels`` = (lo, hi, seg, nseg) for scattered panels
    tagged with destination indices.  The absolute error is budgeted across
    panels in proportion to width, so the summed error is below
    max(abs_tol, rel_tol * |total|).

    ``resolve_floor`` declares the caller's finest structure scale: a width
    below which the integrand is known to be smooth, so a panel that narrow
    still refusing its budget is chasing rounding jitter.  Such panels are
    accepted with their residual recorded, which keeps noise from doubling
    the panel population all the way down to ulp-wide panels.  Residuals are totalled per component and checked
    against each component's own allowance at the end.

    With ``absolute=True`` the result is the integral of the sum over
    components of |fun|, and a sign change of any component forces
    bisection.

    Returns an (nseg,) array, or (nseg, k) when k > 1 and not ``absolute``.
    """
    if resolve_floor is not None and not (np.ndim(resolve_floor) == 0 and resolve_floor >= 0.0):
        raise ValueError("resolve_floor must be a nonnegative width")

    if edges is not None:
        edges = np.asarray(edges, dtype=float)
        if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
            raise ValueError("edges must be strictly increasing")
        lo = edges[:-1].copy()
        hi = edges[1:].copy()
        seg = np.arange(edges.size - 1)
        nseg = edges.size - 1
    elif panels is not None:
        lo, hi, seg, nseg = panels
        lo = np.asarray(lo, dtype=float).copy()
        hi = np.asarray(hi, dtype=float).copy()
        seg = np.asarray(seg, dtype=np.intp).copy()
        if np.any(hi < lo):
            raise ValueError("panel with hi < lo")
    else:
        raise ValueError("pass edges or panels")

    # Zero-width panels contribute nothing; drop them up front.
    keep = hi > lo
    lo, hi, seg = lo[keep], hi[keep], seg[keep]
    f_lo = _call(fun, lo, seg)
    columns = f_lo.shape[1]
    nout = 1 if absolute else columns
    totals = np.zeros((nseg, nout))
    if lo.size == 0:
        return totals[:, 0] if nout == 1 else totals

    total_width = float(np.sum(hi - lo))
    kink_floor = total_width * 2.0**-40

    mid = 0.5 * (lo + hi)
    f_mid = _call(fun, mid, seg, columns)
    f_hi = _call(fun, hi, seg, columns)

    def body(values):
        """What Simpson sums: the raw values, or in absolute mode the
        absolute values summed over the components."""
        if not absolute:
            return values
        mags = np.abs(values)
        return mags if columns == 1 else mags.sum(axis=1, keepdims=True)

    def simpson(w, va, vm, vb):
        return (w / 6.0)[:, None] * (va + 4.0 * vm + vb)

    S = simpson(hi - lo, body(f_lo), body(f_mid), body(f_hi))
    leftover = np.zeros(nout)

    for level in range(MAX_LEVELS + 1):
        if lo.size == 0:
            break
        if lo.size > PANEL_CAP:
            raise QuadratureError(
                f"refinement reached {lo.size} active panels; "
                "integrand is too rough for the requested tolerance"
            )
        lm = 0.5 * (lo + mid)
        rm = 0.5 * (mid + hi)
        pts = np.concatenate([lm, rm])
        segs2 = np.concatenate([seg, seg])
        vals = _call(fun, pts, segs2, columns)
        f_lm, f_rm = vals[: lo.size], vals[lo.size :]

        samples = (f_lo, f_lm, f_mid, f_rm, f_hi)
        summed = [body(v) for v in samples]
        # Measure the children from the rounded mid they were split at: on a
        # panel only thousands of ulps wide (far from the origin) half the
        # nominal width is off by 1e-4 relative or more, and Richardson's
        # estimate never settles.
        S_l = simpson(mid - lo, *summed[:3])
        S_r = simpson(hi - mid, *summed[2:])
        S2 = S_l + S_r
        err = (S2 - S) / 15.0

        # Width-proportional error budget, optionally scaled by a running
        # estimate of the total when a relative tolerance is requested.
        tol_line = abs_tol
        if rel_tol > 0.0:
            estimate = float(np.sum(totals[:, 0]) + np.sum(S2[:, 0]))
            tol_line = max(abs_tol, rel_tol * abs(estimate))
        w = hi - lo
        thr = (tol_line / total_width) * w[:, None]
        # The budget is raised by a rounding floor: Richardson differences
        # below NOISE_EPS times the sampled value scale are cancellation
        # noise, and chasing them refines forever without gaining a digit.
        vmax = functools.reduce(np.maximum, summed if absolute else map(np.abs, samples))
        limit = np.maximum(thr, NOISE_EPS * vmax * w[:, None])
        ok = np.all(np.abs(err) <= limit, axis=1)

        if absolute:
            stacked = np.stack(samples)
            sgn = np.sign(stacked)
            changes = (sgn.max(axis=0) > 0) & (sgn.min(axis=0) < 0)
            # A mixed panel whose whole sampled mass sits inside its own
            # budget cannot move the total by more than that budget, so the
            # crossing need not be located; near-zero residuals otherwise
            # drag the bisection into their rounding noise.
            peak = vmax if columns == 1 else np.abs(stacked).max(axis=0)
            changes &= peak * w[:, None] > thr
            ok &= ~np.any(changes, axis=1) | (hi - lo <= kink_floor)

        if level < MIN_LEVELS:
            ok &= False

        # A panel too narrow to split (midpoint collides with an endpoint, or
        # width below the kink floor or the caller's structure scale, where
        # refinement only chases rounding jitter) cannot improve; accept it
        # and record the residual error per component.
        narrow = w <= kink_floor
        if resolve_floor is not None:
            narrow |= w <= resolve_floor
        degenerate = (lm <= lo) | (rm >= hi) | narrow
        if level == MAX_LEVELS:
            degenerate |= True
        stuck = degenerate & ~ok
        if np.any(stuck):
            leftover += np.sum(np.abs(err[stuck]), axis=0)
            ok |= degenerate

        if np.any(ok):
            contrib = S2[ok] + err[ok]
            idx = seg[ok]
            for c in range(nout):
                totals[:, c] += np.bincount(idx, weights=contrib[:, c], minlength=nseg)

        bad = ~ok
        if not np.any(bad):
            lo = lo[:0]
            break
        lo = np.concatenate([lo[bad], mid[bad]])
        hi = np.concatenate([mid[bad], hi[bad]])
        seg = np.concatenate([seg[bad], seg[bad]])
        f_lo = np.concatenate([f_lo[bad], f_mid[bad]])
        f_hi = np.concatenate([f_mid[bad], f_hi[bad]])
        f_mid = np.concatenate([f_lm[bad], f_rm[bad]])
        mid = np.concatenate([lm[bad], rm[bad]])
        S = np.concatenate([S_l[bad], S_r[bad]])

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
    return totals[:, 0] if nout == 1 else totals

