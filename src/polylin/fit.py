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

The crossings come from the L1 distance's search
(``polylin.analysis._crossings``) on pieces of each segment: SAMPLES
equal steps, cut at the zeros of f'' and at the scan cells that cannot
be vouched for, with f and f' taken at their ends once per fit.  g is
linear on a segment, so e'' = f'' and e is convex or concave on each
piece: its ends and the tangent lines there bracket its at most two
crossings or rule them out, or else the zero of e' = f' - g' splits it.
The steps only make brackets start narrow.  Like the L1 distance, the
fit inherits the scan's contract: zeros of f'' closer together than the
scan grid go unseen, and a pair of crossings there can be missed.
Every sign change is narrowed by Chandrupatla's bracketing method.  Its
inverse quadratic steps give way to halving where they are not trusted,
and where rounding leaves e nothing but its sign.  Each pass narrows its
brackets only as far as its settle test reads them, and counts half that
width in its rounding floor.  A line-search trial narrows to a width
that shrinks with the square of the residual its step started from (an
inexact Newton step); the first pass, from the least-squares start, to
that width at the largest residual there can be.  Settling is judged on
a pass at EXACT_WIDTH, a thousandth of the optimality tolerance; a trial
whose own width would be finer runs as that pass, and settles the fit
without another.  The reported cost is the sum of the smooth signed
integrals of e between that pass's crossings at the last ordinates.  The
fit has no tuning knobs: the stopping rule is that floor, and every
integral it takes runs at the package's default quadrature budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analysis
from ._kernels import thomas
from .analysis import ROOT_ULPS, _between_crossings, _Ends, _ends, _line
from .core import Partition, PolygonalFunction, TargetFunction, from_samples
from .partition import _check_interval
from .quadrature import QuadratureError, integrate_segments

__all__ = [
    "FitReport",
    "interpolant",
    "l2_projection",
    "best_l1_fit",
]

# Brackets of the crossings of f - g start from SAMPLES equal steps per
# segment, cut at the zeros of f'' (see polylin.analysis._ends).
SAMPLES = 32
# Settled once every |gradient_i| is within OPTIMALITY_TOL times the
# integral of phi_i plus its rounding floor: a crossing r is known to
# ROOT_ULPS ulps of f and of the ordinates over |e'(r)|, and an error delta
# there moves gradient_i by 2 phi_i(r) delta.
OPTIMALITY_TOL = 1e-9
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
    crossings (on a converged fit, those of the pass that narrows each to
    EXACT_WIDTH of its segment); it is 0 at the exact minimizer.
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
        parts = integrate_segments(load, (knots[:-1], knots[1:], np.arange(p.n_segments), p.n_segments))
    except QuadratureError as exc:
        raise QuadratureError(f"load-vector quadrature failed: {exc}") from exc
    c = thomas(off, diag, off, _to_knots(parts[:, 0], parts[:, 1]))
    return PolygonalFunction(p, c)


def _to_knots(left, right):
    """Per-knot sums of per-segment terms on each segment's left and right hat."""
    return np.concatenate((left, [0.0])) + np.concatenate(([0.0], right))


# -- exact crossing-point Newton ---------------------------------------------


@dataclass(frozen=True)
class _Crossings:
    """The exact L1 gradient and generalized Hessian at some ordinates, and
    the crossings of f - g they come from."""

    ends: _Ends  # the piece ends every pass of a fit searches
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
    f: TargetFunction, p: Partition, v: np.ndarray, ends: _Ends | int, width: float = 0.0
) -> _Crossings:
    """Assemble the Newton pieces from the crossings of e = f - g.

    The crossings come from the L1 distance's search
    (``polylin.analysis._crossings``) on the pieces between ``ends`` (built
    here from a count of steps per segment, see ``polylin.analysis._ends``),
    each narrowed to a bracket no wider than ``width`` times its segment,
    or to adjacent floats where width is 0.  A root is then off by up to
    half its bracket, and a root off by delta moves a gradient entry by at
    most 2 delta, so the settle floor counts the half-width along with
    each root's rounding.  A segment the search finds fitted (start sign 0,
    no crossing) adds nothing to the gradient or the Hessian.
    """
    knots, h, n = p.knots, p.widths, p.n_segments
    if not isinstance(ends, _Ends):
        ends = _ends(f, knots, ends)
    found = analysis._crossings(f, p, v, ends, width)
    seg, root = found.segments, found.roots
    r = (root - knots[seg]) / h[seg]

    # |e'| at each crossing from the exact f' and the line's slope s, down
    # to the rounding of their difference.
    s = np.diff(v) / h
    fr = np.asarray(f.eval(root), dtype=float)
    d1 = np.asarray(f.first_derivative(root), dtype=float)
    slope = np.maximum(np.abs(d1 - s[seg]), EPS * (np.abs(d1) + np.abs(s[seg])))

    def at_roots(left, right):
        return _to_knots(np.bincount(seg, left, minlength=n), np.bincount(seg, right, minlength=n))

    # sign(e) on a segment is its sign at the left knot, flipped at each
    # crossing; integrate it against both hats between the crossings.
    start = 0.5 * found.start * h
    flip = -found.before * h[seg]
    grad = -_to_knots(start, start) - at_roots(flip * (1.0 - r) ** 2, flip * (1.0 - r * r))
    w = 2.0 / slope
    diag = at_roots(w * (1.0 - r) ** 2, w * r * r)
    off = np.bincount(seg, w * r * (1.0 - r), minlength=n)
    rounding = ROOT_ULPS * EPS * (np.abs(fr) + _line(knots, h, np.abs(v), root, seg))
    delta = rounding / slope + 2.0 * EPS * np.abs(root)
    delta += 0.5 * width * h[seg]
    floor = at_roots(2.0 * (1.0 - r) * delta, 2.0 * r * delta)
    mass = _to_knots(0.5 * h, 0.5 * h)

    # An ordinate moved by more than the largest |e| on its hat flips
    # every sign there.  This diagonal floor keeps a row whose crossings sit
    # at its hat's edges, or that has none, from taking such a step; it
    # fades with the gradient, so the local rate is kept.
    reach = np.maximum(np.concatenate((found.bound, [0.0])), np.concatenate(([0.0], found.bound)))
    diag = np.maximum(diag, np.divide(np.abs(grad), reach, out=np.zeros(n + 1), where=reach > 0.0))
    diag[diag == 0.0] = 1.0
    settled = bool((np.abs(grad) <= OPTIMALITY_TOL * mass + floor).all())
    return _Crossings(ends, width, root, seg, found.start, grad, diag, off, np.abs(grad) / mass, settled)


def _cost(f, p, v, state):
    """Integral of |f - g| at v between the crossings of ``state`` (see
    ``polylin.analysis._between_crossings``)."""
    return float(np.sum(_between_crossings(f, p, v, state.segments, state.roots, state.start)[1]))


def _line_search(f, p, v, step, state):
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
    floor grows to match (see _crossings).  Trials take e at the piece
    ends of ``state``; where that width is no wider than EXACT_WIDTH, they
    run as the pass that judges convergence, at EXACT_WIDTH (see
    best_l1_fit).
    """
    d0 = float(np.dot(state.grad, step))
    merit = float(np.linalg.norm(state.residual))
    width = max(FORCING * float(np.max(state.residual)) ** 2, EXACT_WIDTH)
    lo, d_lo, hi, d_hi, alpha = 0.0, d0, 1.0, 0.0, 1.0
    for used in range(1, MAX_LINE_STEPS + 1):
        trial = _crossings(f, p, v + alpha * step, state.ends, width)
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
    within MAX_NEWTON_ITERS Newton iterations a pass that narrows every
    crossing to EXACT_WIDTH of its segment settled: every entry of the
    exact L1 gradient it found reached its rounding floor.  That pass
    judges convergence whatever the line search's trials did, and the
    reported cost and residual come from it.  A settled trial that
    already ran as that pass is the check itself; any other settled state
    is checked by one more pass.  The first pass, from the least-squares
    start, narrows only to FORCING.  f and f' are taken once at the piece
    ends (see _crossings), and every pass takes e there.
    Divergence does not raise: the last iterate is returned with
    converged=False, and with final_cost NaN when the quadrature cannot
    integrate its error.  A converged fit whose cost quadrature fails
    raises QuadratureError.
    """
    v = l2_projection(f, p).ordinates.copy()
    state = _crossings(f, p, v, _ends(f, p.knots, SAMPLES), FORCING)
    evals, iterations = 1, 0
    while True:
        if state.settled and state.width != EXACT_WIDTH:
            state = _crossings(f, p, v, state.ends, EXACT_WIDTH)
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
        trial, alpha, used = _line_search(f, p, v, step, state)
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

