"""Polygonal approximants on a fixed partition.

Three fits, in increasing cost: the interpolant (sample at the knots), the
least-squares projection (tridiagonal normal equations), and the least
absolute deviation fit.  The L1 cost of ordinates v has the exact gradient
-integral of sign(f - g) phi_i, which is closed form once the crossings of
f - g are known, and a tridiagonal generalized Hessian
2 sum_r phi_i(r) phi_j(r) / |e'(r)| over the crossings r (the canonical
points of best L1 approximation).  The fit runs Newton iterations on that
pair, started from the least-squares projection, and stops once every
gradient entry is at its rounding floor.  The fit has no tuning knobs:
the stopping rule is that floor, and every integral it takes runs at the
package's default quadrature budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import thomas
from .analysis import l1_distance
from .core import Partition, PolygonalFunction, TargetFunction, from_samples
from .partition import _check_interval
from .quadrature import QuadratureError, integrate_segments

__all__ = [
    "FitReport",
    "interpolant",
    "l2_projection",
    "best_l1_fit",
]

# Crossings of f - g are bracketed on SAMPLES equal subintervals per
# segment.  A settled iterate is checked again on DENSE subintervals; new
# crossings there resume the iteration on that grid.
SAMPLES = 32
DENSE = 128
# Settled once every |gradient_i| is within OPTIMALITY_TOL times the
# integral of phi_i plus its rounding floor: a crossing r is known to
# ROOT_ULPS ulps of f and of the ordinates over |e'(r)|, and an error delta
# there moves gradient_i by 2 phi_i(r) delta.
OPTIMALITY_TOL = 1e-9
ROOT_ULPS = 8.0
DIFF_STEP = 2.0**-20  # relative step of the difference giving f' at a crossing
REG = 1e-12  # Hessian regularization, relative to each row's own diagonal
MAX_LINE_STEPS = 30  # trial step lengths per Newton step (see _line_search)
CURVATURE = 0.9
DIP_STEPS = 45  # golden-section steps per hidden-pair search (see _hidden_pairs)
MAX_NEWTON_ITERS = 50  # an unsettled fit past this reports converged=False

EPS = float(np.finfo(float).eps)
GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class FitReport:
    """Outcome of a least-absolute-deviation solve.

    ``optimality_residual`` is max_i |integral of sign(f - g) phi_i| /
    integral of phi_i at the returned ordinates, from the located
    crossings; it is 0 at the exact minimizer.
    """

    iterations: int
    final_cost: float
    converged: bool
    function_evals: int
    optimality_residual: float


def interpolant(f: TargetFunction, p: Partition) -> PolygonalFunction:
    """Polygonal interpolant: ordinates are f at the knots."""
    _check_interval(f, p.a, p.b)
    return from_samples(p, f)


def l2_projection(f: TargetFunction, p: Partition) -> PolygonalFunction:
    """Least-squares polygonal fit via the tridiagonal normal equations.

    The nodal-basis Gramian has rows h/6 * [1, 4, 1] scaled by the local
    segment widths (halved at the ends); the load vector needs one
    two-component quadrature pass over the segments.
    """
    _check_interval(f, p.a, p.b)
    knots, h = p.knots, p.widths
    diag = _to_knots(h, h) / 3.0
    off = h / 6.0

    def load(x, seg):
        d = (x - knots[seg]) / h[seg]
        fx = np.asarray(f.eval(x), dtype=float)
        return np.stack([fx * (1.0 - d), fx * d], axis=1)

    try:
        parts = integrate_segments(load, knots)
    except QuadratureError as exc:
        raise QuadratureError(f"load-vector quadrature failed: {exc}") from exc
    c = thomas(off, diag, off, _to_knots(parts[:, 0], parts[:, 1]))
    return PolygonalFunction(p, c)


def _to_knots(left, right):
    """Per-knot sums of per-segment terms on each segment's left and right hat."""
    return np.r_[left, 0.0] + np.r_[0.0, right]


# -- exact crossing-point Newton ---------------------------------------------


@dataclass(frozen=True)
class _Crossings:
    """The exact L1 gradient and generalized Hessian at some ordinates."""

    samples: int
    n_roots: int
    grad: np.ndarray
    diag: np.ndarray
    off: np.ndarray
    residual: np.ndarray  # |grad_i| / integral of phi_i
    settled: bool


def _crossings(f: TargetFunction, p: Partition, v: np.ndarray, samples: int) -> _Crossings:
    """Locate the sign changes of e = f - g and assemble the Newton pieces.

    e is sampled at samples + 1 points per segment, and every sign change
    is bisected down to adjacent floats.  A segment whose samples of e all
    sit within rounding of its largest |f| + |g| counts as fitted: it adds
    nothing to the gradient or the Hessian.  (Rounding of each sample's own
    |f| + |g| would vanish where f crosses zero, and a line's noise there
    would read as crossings.)
    """
    knots, h, n = p.knots, p.widths, p.n_segments

    def line(x, seg, w=v):
        d = (x - knots[seg]) / h[seg]
        return (1.0 - d) * w[seg] + d * w[seg + 1]

    def resid(x, seg):
        return np.asarray(f.eval(x), dtype=float) - line(x, seg)

    x = knots[:-1, None] + h[:, None] * (np.arange(samples + 1) / samples)
    x[:, -1] = knots[1:]
    rows = np.repeat(np.arange(n), samples + 1)
    fx = np.asarray(f.eval(x.ravel()), dtype=float)
    e = (fx - line(x.ravel(), rows)).reshape(x.shape)
    scale = (np.abs(fx) + line(x.ravel(), rows, np.abs(v))).reshape(x.shape)
    emax = np.max(np.abs(e), axis=1)
    live = emax > ROOT_ULPS * EPS * np.max(scale, axis=1)
    pos = e >= 0.0

    cs, ck = np.nonzero(live[:, None] & (pos[:, :-1] != pos[:, 1:]))
    ds, dl, dm, dr = _hidden_pairs(resid, x, e, pos, live, h)
    seg = np.concatenate([cs, ds, ds])
    lo_pos = np.concatenate([pos[cs, ck], pos[ds, dl], ~pos[ds, dl]])
    lo = np.concatenate([x[cs, ck], x[ds, dl], dm])
    hi = np.concatenate([x[cs, ck + 1], dm, x[ds, dr]])
    root = _bisect(resid, seg, lo, hi, lo_pos)
    r = (root - knots[seg]) / h[seg]

    # |e'| at each crossing from a centered difference of f kept inside the
    # segment; the line's slope is exact.
    a = np.maximum(root - DIFF_STEP * h[seg], knots[seg])
    b = np.minimum(root + DIFF_STEP * h[seg], knots[seg + 1])
    fa, fb, fr = np.split(np.asarray(f.eval(np.concatenate([a, b, root])), dtype=float), 3)
    slope = np.abs((fb - fa) / (b - a) - (v[seg + 1] - v[seg]) / h[seg])
    slope = np.maximum(slope, ROOT_ULPS * EPS * (np.abs(fa) + np.abs(fb)) / (b - a))

    def at_roots(left, right):
        return _to_knots(np.bincount(seg, left, minlength=n), np.bincount(seg, right, minlength=n))

    # sign(e) on a segment is its sign at the left knot, flipped at each
    # crossing; integrate it against both hats between the crossings.
    start = np.where(live, np.where(pos[:, 0], 0.5, -0.5), 0.0) * h
    flip = np.where(lo_pos, -1.0, 1.0) * h[seg]
    grad = -_to_knots(start, start) - at_roots(flip * (1.0 - r) ** 2, flip * (1.0 - r * r))
    w = 2.0 / slope
    diag = at_roots(w * (1.0 - r) ** 2, w * r * r)
    off = np.bincount(seg, w * r * (1.0 - r), minlength=n)
    delta = ROOT_ULPS * EPS * (np.abs(fr) + line(root, seg, np.abs(v))) / slope + 2.0 * EPS * np.abs(root)
    floor = at_roots(2.0 * (1.0 - r) * delta, 2.0 * r * delta)
    mass = _to_knots(0.5 * h, 0.5 * h)

    # An ordinate moved by more than the largest residual on its hat flips
    # every sign there.  This diagonal floor keeps a row whose crossings sit
    # at its hat's edges, or that has none, from taking such a step; it
    # fades with the gradient, so the local rate is kept.
    reach = np.maximum(np.r_[emax, 0.0], np.r_[0.0, emax])
    diag = np.maximum(diag, np.divide(np.abs(grad), reach, out=np.zeros(n + 1), where=reach > 0.0))
    diag[diag == 0.0] = 1.0
    settled = bool(np.all(np.abs(grad) <= OPTIMALITY_TOL * mass + floor))
    return _Crossings(samples, seg.size, grad, diag, off, np.abs(grad) / mass, settled)


def _hidden_pairs(resid, x, e, pos, live, h):
    """Crossing pairs closer together than the sample spacing.

    Such a pair hides in a dip of |e| between samples of one sign.  A
    golden-section search for the extremum of each dip stops where it finds
    the other sign.  DIP_STEPS steps shrink a dip's bracket (at most h / 16) below
    2.4e-11 h; a pair that escapes them is narrower still and moves a
    gradient entry by less than OPTIMALITY_TOL / 10 of its hat's integral.
    Returns, per pair: segment, sample index left of it, a point of the
    other sign, sample index right of it.
    """
    mag = np.abs(e)
    dip = np.repeat(live[:, None], e.shape[1], axis=1)
    dip[:, 1:] &= (pos[:, 1:] == pos[:, :-1]) & (mag[:, 1:] < mag[:, :-1])
    dip[:, :-1] &= (pos[:, :-1] == pos[:, 1:]) & (mag[:, :-1] <= mag[:, 1:])
    seg, k = np.nonzero(dip)
    left, right = np.maximum(k - 1, 0), np.minimum(k + 1, e.shape[1] - 1)
    a, b = x[seg, left], x[seg, right]
    toward = np.where(pos[seg, k], 1.0, -1.0)
    toward, both = np.concatenate([toward, toward]), np.concatenate([seg, seg])
    point = np.full(seg.size, np.nan)
    for _ in range(DIP_STEPS):
        going = np.isnan(point)
        if not np.any(going):
            break
        c, d = b - GOLDEN * (b - a), a + GOLDEN * (b - a)
        ec, ed = np.split(toward * resid(np.concatenate([c, d]), both), 2)
        lower = ec < ed
        point = np.where(going & (np.minimum(ec, ed) < 0.0), np.where(lower, c, d), point)
        a, b = np.where(lower, a, c), np.where(lower, d, b)
    found = ~np.isnan(point)
    return seg[found], left[found], point[found], right[found]


def _bisect(resid, seg, lo, hi, lo_pos):
    """Shrink every bracket [lo, hi] of a sign change to adjacent floats."""
    while True:
        mid = 0.5 * (lo + hi)
        split = (mid > lo) & (mid < hi)
        if not np.any(split):
            return mid
        same = (resid(mid, seg) >= 0.0) == lo_pos
        lo = np.where(split & same, mid, lo)
        hi = np.where(split & ~same, mid, hi)


def _line_search(f, p, v, step, state):
    """Step length along a Newton direction, from gradients alone.

    The cost is convex along the line, so its slope grad(v + alpha s) . s
    rises with alpha, and a length where it is still negative lowered the
    cost.  Such a length is accepted at alpha = 1, or once the slope has
    shrunk to CURVATURE times its start; so is one that settles or lowers
    the gradient norm.  Otherwise a safeguarded secant on the slope moves
    alpha.  Returns (state, alpha, evaluations); state is None on failure.
    """
    d0 = float(np.dot(state.grad, step))
    merit = float(np.linalg.norm(state.residual))
    lo, d_lo, hi, d_hi, alpha = 0.0, d0, 1.0, 0.0, 1.0
    for used in range(1, MAX_LINE_STEPS + 1):
        trial = _crossings(f, p, v + alpha * step, state.samples)
        slope = float(np.dot(trial.grad, step))
        if (
            trial.settled
            or np.linalg.norm(trial.residual) < (1.0 - 1e-4 * alpha) * merit
            or (slope <= 0.0 and (alpha == 1.0 or slope >= CURVATURE * d0))
        ):
            return trial, alpha, used
        # A rejected full step has a positive slope, so hi moves first.
        if slope < CURVATURE * d0:
            lo, d_lo = alpha, slope
        else:
            hi, d_hi = alpha, slope
        guess = lo + (hi - lo) * d_lo / (d_lo - d_hi)
        alpha = min(max(guess, 0.9 * lo + 0.1 * hi), 0.1 * lo + 0.9 * hi)
    return None, 0.0, MAX_LINE_STEPS


def best_l1_fit(f: TargetFunction, p: Partition) -> tuple[PolygonalFunction, FitReport]:
    """Least-absolute-deviation polygonal fit on a fixed partition.

    Returns the fitted function and a report; ``converged`` means every
    entry of the exact L1 gradient reached its rounding floor and denser
    sampling found no further crossings within MAX_NEWTON_ITERS Newton
    iterations.  Divergence does not raise: the last iterate is returned
    with converged=False.
    """
    v = l2_projection(f, p).ordinates.copy()
    state = _crossings(f, p, v, SAMPLES)
    evals, iterations, converged = 1, 0, False
    while True:
        if state.settled:
            check = state if state.samples == DENSE else _crossings(f, p, v, DENSE)
            evals += check is not state
            converged = check.n_roots == state.n_roots
            if converged:
                break
            state = check
            continue
        if iterations == MAX_NEWTON_ITERS:
            break
        try:
            step = thomas(state.off, state.diag * (1.0 + REG), state.off, -state.grad)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(step)):
            break
        iterations += 1
        trial, alpha, used = _line_search(f, p, v, step, state)
        evals += used
        if trial is None:
            break
        v, state = v + alpha * step, trial

    result = PolygonalFunction(p, v)
    report = FitReport(
        iterations=iterations,
        final_cost=l1_distance(f, result),
        converged=converged,
        function_evals=evals,
        optimality_residual=float(np.max(state.residual)),
    )
    return result, report

