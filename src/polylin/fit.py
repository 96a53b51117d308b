"""Polygonal approximants on a fixed partition.

Three fits, in increasing cost: the interpolant (sample at the knots), the
least-squares projection (tridiagonal normal equations), and the least
absolute deviation fit.  The L1 cost of ordinates v has the exact gradient
-integral of sign(f - g) phi_i, which is closed form once the crossings of
f - g are known, and a tridiagonal generalized Hessian
2 sum_r phi_i(r) phi_j(r) / |e'(r)| over the crossings r (the canonical
points of best L1 approximation), where e'(r) = f'(r) - g' comes from the
target's exact f'.  The fit runs Newton iterations on that pair, started
from the least-squares projection, and stops once every gradient entry is
at its rounding floor.

The crossings come from samples of e = f - g at equal steps in each
segment; f is sampled once per grid and fit, and every pass takes e from
those samples.  A pair closer together than the step hides in a dip of
|e| between samples of one sign, around an extremum of e of the other
sign.  Where e runs down to one extremum and back up across the dip's
two sample brackets, that extremum is the zero of e' = f' - s (s the
segment's slope) in the bracket where e' turns e back.  The zero is
narrowed on the target's exact f' as far as the crossings are (to
adjacent floats on the pass that judges convergence), and e taken at
both ends of what is left, so a pair is missed only where it is
narrower than that, or lies within the span where rounding hides the
sign of e'.  Where e has more than one extremum across the dip, a pair
at another one can be missed.  Every sign change is then narrowed by
Chandrupatla's bracketing method.  Its inverse quadratic steps give way
to halving where they are not trusted, and where rounding leaves e
nothing but its sign.  Each pass narrows its brackets only as far as
its settle test reads them, and counts half that width in its rounding
floor.  A line-search trial narrows to a width that shrinks with the
square of the residual its step started from (an inexact Newton step);
the first pass, from the least-squares start, to that width at the
largest residual there can be.  Settling is judged on a pass on the
dense grid at EXACT_WIDTH, a thousandth of the optimality tolerance; a
trial whose own width would be finer runs as that pass, and settles the
fit without another.  The reported cost is the sum of the smooth signed
integrals of e between that pass's crossings at the last ordinates.  The
fit has no tuning knobs: the stopping rule is that floor, and every
integral it takes runs at the package's default quadrature budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import thomas
from ._roots import TINY, roots
from .analysis import _between_crossings
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
# segment.  A settled iterate is checked again on DENSE subintervals, where
# the last trials of a fit also run; a check that does not settle resumes
# the iteration on that grid.
SAMPLES = 32
DENSE = 128
# Settled once every |gradient_i| is within OPTIMALITY_TOL times the
# integral of phi_i plus its rounding floor: a crossing r is known to
# ROOT_ULPS ulps of f and of the ordinates over |e'(r)|, and an error delta
# there moves gradient_i by 2 phi_i(r) delta.
OPTIMALITY_TOL = 1e-9
ROOT_ULPS = 8.0
REG = 1e-12  # Hessian regularization, relative to each row's own diagonal
MAX_LINE_STEPS = 30  # trial step lengths per Newton step (see _line_search)
CURVATURE = 0.9
# A line-search trial narrows its crossings to FORCING r^2 of their
# segment, where r is the largest residual of the state its step came from
# (see _line_search).  No residual exceeds 1, as |integral of sign(e)
# phi_i| <= integral of phi_i, so the first pass, at the least-squares
# start, narrows as a trial from that largest residual: to FORCING.
FORCING = 1e-4
# The pass that judges convergence narrows to EXACT_WIDTH of a segment.
# Half of it counts in the settle floor: a crossing in a segment of width
# h raises a hat's floor by at most EXACT_WIDTH h, 0.2% of the OPTIMALITY_TOL
# h / 2 that the hat is allowed at least.  A trial whose forcing width is
# no wider runs as that pass.
EXACT_WIDTH = OPTIMALITY_TOL / 1000
MAX_NEWTON_ITERS = 50  # an unsettled fit past this reports converged=False

EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class FitReport:
    """Outcome of a least-absolute-deviation solve.

    ``optimality_residual`` is max_i |integral of sign(f - g) phi_i| /
    integral of phi_i at the returned ordinates, from the located
    crossings (on a converged fit, those of the DENSE pass that narrows
    each to EXACT_WIDTH of its segment); it is 0 at the exact minimizer.
    ``converged`` means that each of those gradient entries is within
    OPTIMALITY_TOL of its hat's integral, plus the amount by which
    rounding could move it: a crossing r is known only to ROOT_ULPS ulps
    of f and g over |e'(r)|.  Where e is so flat that rounding alone
    locates a crossing, that allowance reaches the hat's integral, and
    converged says only that the ordinates fit f to within its rounding
    there; the residual then stays well above OPTIMALITY_TOL (0.15 for
    x + 1e-12 x^2 on 31 equal segments of [0, 1]).  ``final_cost`` is the
    L1 distance at the returned ordinates; it is NaN when the fit did not
    converge and its last iterate is too rough for the quadrature.
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
        d = (x - knots.take(seg)) / h.take(seg)
        fx = np.asarray(f.eval(x), dtype=float)
        out = np.empty((x.size, 2))
        np.multiply(fx, 1.0 - d, out=out[:, 0])
        np.multiply(fx, d, out=out[:, 1])
        return out

    try:
        parts = integrate_segments(load, knots)
    except QuadratureError as exc:
        raise QuadratureError(f"load-vector quadrature failed: {exc}") from exc
    c = thomas(off, diag, off, _to_knots(parts[:, 0], parts[:, 1]))
    return PolygonalFunction(p, c)


def _to_knots(left, right):
    """Per-knot sums of per-segment terms on each segment's left and right hat."""
    return np.concatenate((left, [0.0])) + np.concatenate(([0.0], right))


# -- exact crossing-point Newton ---------------------------------------------


@dataclass(frozen=True)
class _Grid:
    """samples + 1 equally spaced points per segment, ends on its knots, and
    f there: what every crossing pass on this grid starts from."""

    samples: int
    x: np.ndarray  # one row of abscissae per segment
    rows: np.ndarray  # the segment of each point of x.ravel()
    d: np.ndarray  # (x - left knot) / width, per point of x.ravel()
    fx: np.ndarray  # f at x.ravel()


def _grid(f: TargetFunction, p: Partition, samples: int) -> _Grid:
    knots, h, n = p.knots, p.widths, p.n_segments
    x = knots[:-1, None] + h[:, None] * (np.arange(samples + 1) / samples)
    x[:, -1] = knots[1:]
    rows = np.arange(n).repeat(samples + 1)
    flat = x.ravel()
    d = (flat - knots.take(rows)) / h.take(rows)
    return _Grid(samples, x, rows, d, np.asarray(f.eval(flat), dtype=float))


@dataclass(frozen=True)
class _Crossings:
    """The exact L1 gradient and generalized Hessian at some ordinates, and
    the crossings of f - g they come from."""

    grid: _Grid
    # Each crossing's bracket width, relative to its segment: FORCING on
    # the first pass, a trial's forcing width or EXACT_WIDTH in a fit; 0:
    # adjacent floats.
    width: float
    roots: np.ndarray  # every located crossing, in no particular order
    segments: np.ndarray  # the segment of each root
    start: np.ndarray  # sign of e at each segment's left knot; 0 on a fitted segment
    grad: np.ndarray
    diag: np.ndarray
    off: np.ndarray
    residual: np.ndarray  # |grad_i| / integral of phi_i
    settled: bool


def _crossings(
    f: TargetFunction, p: Partition, v: np.ndarray, grid: _Grid | int, width: float = 0.0
) -> _Crossings:
    """Locate the sign changes of e = f - g and assemble the Newton pieces.

    e is taken on ``grid`` (or on a grid of that many samples per segment,
    sampled here) from the f values already there.  Every sign change
    between neighbouring samples, and every pair of them hidden between
    samples of one sign (found from the exact f'; see _hidden_pairs for
    which can escape), is narrowed by roots, starting from the e values
    already known at its ends, to a bracket no wider than
    ``width`` times its segment, or to adjacent floats where width is 0.
    The zeros of e' that locate hidden pairs are narrowed to the same
    width, except on a pass at EXACT_WIDTH or finer, where they go to
    adjacent floats.  A root is then off by up to half its bracket, and a
    root off by delta moves a gradient entry by at most 2 delta, so the
    settle floor counts the half-width along with each root's rounding.
    Where e is 0 exactly at a knot, the sign of e just inside the segment
    stands in for it (``_knot_signs``), and roots halves a
    bracket that starts on such a stand-in.  A segment whose samples of e
    all sit within rounding of its largest |f| + |g| counts as fitted: it
    adds nothing to the gradient or the Hessian.  (Rounding of each
    sample's own |f| + |g| would vanish where f crosses zero, and a line's
    noise there would read as crossings.)
    """
    knots, h, n = p.knots, p.widths, p.n_segments
    if not isinstance(grid, _Grid):
        grid = _grid(f, p, grid)

    def line(d, seg, w=v):
        return (1.0 - d) * w.take(seg) + d * w[1:].take(seg)

    def resid(x, seg):
        return np.asarray(f.eval(x), dtype=float) - line((x - knots.take(seg)) / h.take(seg), seg)

    x, rows, fx = grid.x, grid.rows, grid.fx
    e = (fx - line(grid.d, rows)).reshape(x.shape)
    # e = 0 exactly at a knot, as at every knot of an interpolant, stands
    # in for the sign of e just inside the segment (see _knot_signs),
    # so a lobe between the knot and the next sample is bracketed; roots
    # halves a bracket that starts on the stand-in, so the lobe is found.
    at_knot = e[:, [0, -1]] == 0.0
    if at_knot.any():
        for col, signs in zip((0, -1), _knot_signs(f, knots, h, v)):
            e[:, col] = np.where(at_knot[:, col], signs, e[:, col])
    scale = (np.abs(fx) + line(grid.d, rows, np.abs(v))).reshape(x.shape)
    emax = np.abs(e).max(axis=1)
    top = scale.max(axis=1)
    live = emax > ROOT_ULPS * EPS * top
    pos = e >= 0.0

    cs, ck = (live[:, None] & (pos[:, :-1] != pos[:, 1:])).nonzero()
    s = np.diff(v) / h
    hidden = width if width > EXACT_WIDTH else 0.0
    ds, dl, dm, de, dr = _hidden_pairs(f, resid, x, e, pos, live, s, hidden * h)
    seg = np.concatenate([cs, ds, ds])
    e_lo = np.concatenate([e[cs, ck], e[ds, dl], de])
    root = roots(
        resid,
        seg,
        np.concatenate([x[cs, ck], x[ds, dl], dm]),
        np.concatenate([x[cs, ck + 1], dm, x[ds, dr]]),
        e_lo,
        np.concatenate([e[cs, ck + 1], de, e[ds, dr]]),
        EPS * top[seg],
        width * h[seg],
    )
    r = (root - knots[seg]) / h[seg]

    # |e'| at each crossing from the exact f' and the line's slope s, down
    # to the rounding of their difference.
    fr = np.asarray(f.eval(root), dtype=float)
    d1 = np.asarray(f.first_derivative(root), dtype=float)
    slope = np.maximum(np.abs(d1 - s[seg]), EPS * (np.abs(d1) + np.abs(s[seg])))

    def at_roots(left, right):
        return _to_knots(np.bincount(seg, left, minlength=n), np.bincount(seg, right, minlength=n))

    # sign(e) on a segment is its sign at the left knot, flipped at each
    # crossing; integrate it against both hats between the crossings.
    sign = np.where(live, np.where(pos[:, 0], 1.0, -1.0), 0.0)
    start = 0.5 * sign * h
    flip = np.where(e_lo >= 0.0, -1.0, 1.0) * h[seg]
    grad = -_to_knots(start, start) - at_roots(flip * (1.0 - r) ** 2, flip * (1.0 - r * r))
    w = 2.0 / slope
    diag = at_roots(w * (1.0 - r) ** 2, w * r * r)
    off = np.bincount(seg, w * r * (1.0 - r), minlength=n)
    delta = ROOT_ULPS * EPS * (np.abs(fr) + line(r, seg, np.abs(v))) / slope + 2.0 * EPS * np.abs(root)
    delta += 0.5 * width * h[seg]
    floor = at_roots(2.0 * (1.0 - r) * delta, 2.0 * r * delta)
    mass = _to_knots(0.5 * h, 0.5 * h)

    # An ordinate moved by more than the largest residual on its hat flips
    # every sign there.  This diagonal floor keeps a row whose crossings sit
    # at its hat's edges, or that has none, from taking such a step; it
    # fades with the gradient, so the local rate is kept.
    reach = np.maximum(np.concatenate((emax, [0.0])), np.concatenate(([0.0], emax)))
    diag = np.maximum(diag, np.divide(np.abs(grad), reach, out=np.zeros(n + 1), where=reach > 0.0))
    diag[diag == 0.0] = 1.0
    settled = bool((np.abs(grad) <= OPTIMALITY_TOL * mass + floor).all())
    return _Crossings(grid, width, root, seg, sign, grad, diag, off, np.abs(grad) / mass, settled)


def _knot_signs(f: TargetFunction, knots: np.ndarray, h: np.ndarray, v: np.ndarray):
    """The stand-ins for e = f - g where it is 0 exactly at a segment's
    left or right knot, one pair of arrays over the segments: the sign of e
    just inside the segment (of f' - s at the left knot and of s - f' at
    the right one, s the segment's slope) at size TINY, which
    ``polylin._roots`` reads as a sign alone.  A zero or non-finite f' - s
    gives 0."""
    s = np.diff(v) / h
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d1 = np.asarray(f.first_derivative(knots), dtype=float)
        left, right = d1[:-1] - s, s - d1[1:]
    return tuple(np.where(np.isfinite(t), np.sign(t) * TINY, 0.0) for t in (left, right))


def _hidden_pairs(f, resid, x, e, pos, live, s, width):
    """Crossing pairs closer together than the sample spacing.

    Such a pair hides in a dip of |e|: a sample whose neighbours have its
    sign and larger |e|.  Between its two crossings e has an extremum of
    the other sign, at a zero of e' = f' - s (s the segment's slope, f'
    the target's exact derivative).  f' is taken in one batch at every
    dip's sample and its two neighbours (the one inside the segment, at
    its ends), and the bracket next to the dip's sample across which e'
    turns e back toward the dip's sign is kept.  Where e runs down to a
    single extremum and back up across the dip's two brackets, as it does
    around a pair, that extremum is the one zero of e' in the kept
    bracket.  roots narrows that zero to ``width`` (per segment: the
    pass's own crossing width, or 0, adjacent floats, on a pass at
    EXACT_WIDTH or finer; see _crossings), and e is taken in one
    batch at both ends of what is left; a value of the other sign starts
    the pair's two brackets.  A pair holding the extremum but neither end
    lies between them, so it escapes only where it is narrower than the
    width, or lies within the span where rounding hides the sign of e'.
    A pair at a second extremum of e across the dip can escape: the
    samples and f' there do not tell that such an extremum exists.
    Returns, per pair: segment, sample index left of it, a point of the
    other sign, e there, sample index right of it.
    """
    mag = np.abs(e)
    dip = live[:, None].repeat(e.shape[1], axis=1)
    dip[:, 1:] &= (pos[:, 1:] == pos[:, :-1]) & (mag[:, 1:] < mag[:, :-1])
    dip[:, :-1] &= (pos[:, :-1] == pos[:, 1:]) & (mag[:, :-1] <= mag[:, 1:])
    seg, k = dip.nonzero()
    none = np.empty(0, dtype=np.intp)
    empty = none, none, np.empty(0), np.empty(0), none
    if seg.size == 0:
        return empty
    near = np.stack((np.maximum(k - 1, 0), k, np.minimum(k + 1, e.shape[1] - 1)), axis=1)
    toward = np.where(pos[seg, k], 1.0, -1.0)
    at = x[seg[:, None], near]
    d1 = np.asarray(f.first_derivative(at.ravel()), dtype=float).reshape(at.shape)
    # toward * e' runs from negative to not across the bracket that holds
    # the extremum; at an end sample the clipped bracket is empty.
    turn = toward[:, None] * (d1 - s[seg, None])
    up = (turn[:, :-1] < 0.0) & (turn[:, 1:] >= 0.0)
    j, i = up.nonzero()
    seg, toward, lo, hi = seg[j], toward[j], near[j, i], near[j, i + 1]
    if seg.size == 0:
        return empty

    def turn_at(u, b):
        return toward.take(b) * (np.asarray(f.first_derivative(u), dtype=float) - s.take(seg.take(b)))

    noise = EPS * (np.maximum(np.abs(d1[j, i]), np.abs(d1[j, i + 1])) + np.abs(s[seg]))
    w = width.take(seg)
    mid = roots(turn_at, np.arange(seg.size), x[seg, lo], x[seg, hi], turn[j, i], turn[j, i + 1], noise, w)
    ends = np.clip(mid[:, None] + 0.5 * w[:, None] * [-1.0, 1.0], x[seg, lo, None], x[seg, hi, None])
    vals = resid(ends.ravel(), seg.repeat(2)).reshape(ends.shape)
    pick = (toward[:, None] * vals).argmin(axis=1)[:, None]
    point, value = np.take_along_axis(ends, pick, 1)[:, 0], np.take_along_axis(vals, pick, 1)[:, 0]
    found = toward * value < 0.0
    return seg[found], lo[found], point[found], value[found], hi[found]


def _cost(f, p, v, state):
    """Integral of |f - g| at v between the crossings of ``state`` (see
    ``polylin.analysis._between_crossings``)."""
    return float(np.sum(_between_crossings(f, p, v, state.segments, state.roots, state.start)[1]))


def _line_search(f, p, v, step, state, dense):
    """Step length along a Newton direction, from gradients alone.

    The cost is convex along the line, so its slope grad(v + alpha s) . s
    rises with alpha, and a length where it is still negative lowered the
    cost.  Such a length is accepted at alpha = 1, or once the slope has
    shrunk to CURVATURE times its start; so is one that settles or lowers
    the gradient norm.  Otherwise a safeguarded secant on the slope moves
    alpha.  Returns (state, alpha, evaluations); state is None on failure.

    Newton keeps its quadratic rate on a gradient that is off by up to a
    forcing term of order r times the residual r it started from (inexact
    Newton: Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19(2),
    1982).  A crossing off by w of its segment moves a residual entry by at
    most about w, so each trial narrows its crossings to FORCING r^2 of
    their segment, with r the largest residual of ``state``; its settle
    floor grows to match (see _crossings).  Trials take e on the grid of
    ``state``, but where that width is no wider than EXACT_WIDTH, they run
    as the pass that judges convergence: on the ``dense`` grid at
    EXACT_WIDTH (see best_l1_fit).
    """
    d0 = float(np.dot(state.grad, step))
    merit = float(np.linalg.norm(state.residual))
    grid, width = state.grid, FORCING * float(np.max(state.residual)) ** 2
    if width <= EXACT_WIDTH:
        grid, width = dense, EXACT_WIDTH
    lo, d_lo, hi, d_hi, alpha = 0.0, d0, 1.0, 0.0, 1.0
    for used in range(1, MAX_LINE_STEPS + 1):
        trial = _crossings(f, p, v + alpha * step, grid, width)
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

    Returns the fitted function and a report; ``converged`` means that
    within MAX_NEWTON_ITERS Newton iterations a pass on the DENSE grid
    that narrows every crossing to EXACT_WIDTH settled: every entry of the
    exact L1 gradient it found reached its rounding floor.  That pass
    judges convergence whatever the line search's trials did, and the
    reported cost and residual come from it.  A settled trial that
    already ran as that pass is the check itself; any other settled state
    is checked by one more pass.  The first pass, from the least-squares
    start, narrows only to FORCING.  f is sampled once on each grid,
    SAMPLES and DENSE, and every pass takes e from those samples.
    Divergence does not raise: the last iterate is returned with
    converged=False, and with final_cost NaN when the quadrature cannot
    integrate its error.  A converged fit whose cost quadrature fails
    raises QuadratureError.
    """
    v = l2_projection(f, p).ordinates.copy()
    dense = _grid(f, p, DENSE)
    state = _crossings(f, p, v, _grid(f, p, SAMPLES), FORCING)
    evals, iterations = 1, 0
    while True:
        if state.settled and state.width != EXACT_WIDTH:
            state = _crossings(f, p, v, dense, EXACT_WIDTH)
            evals += 1
        if state.settled or iterations == MAX_NEWTON_ITERS:
            break
        try:
            step = thomas(state.off, state.diag * (1.0 + REG), state.off, -state.grad)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(step)):
            break
        iterations += 1
        trial, alpha, used = _line_search(f, p, v, step, state, dense)
        evals += used
        if trial is None:
            break
        v, state = v + alpha * step, trial

    converged = state.settled
    try:
        cost = _cost(f, p, v, state)
    except QuadratureError:
        # A diverged iterate can be too rough to integrate; its failure to
        # converge is the error to report, so the cost is left unknown.
        if converged:
            raise
        cost = math.nan
    report = FitReport(
        iterations=iterations,
        final_cost=cost,
        converged=converged,
        function_evals=evals,
        optimality_residual=float(np.max(state.residual)),
    )
    return PolygonalFunction(p, v), report

