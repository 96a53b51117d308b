"""Knot placement: uniform grids and curvature-equalized grids.

The equalizing rule spaces knots by the local density |f''(x)|^(1/3),
normalized over [a, b]: knot i sits where the cumulative normalized density
reaches i/N.  Regions of high curvature then receive proportionally more
knots, which (asymptotically) equalizes the approximation error that each
segment contributes.

The cumulative density is tabulated by the curvature pass itself: one
adaptive quadrature integrates the summed |f''| and the density together
(``_curvature_pass``), and the panels it accepts, each within its
width's share of the error budget, are the table's cells.  So the grid
is not uniform: it is fine where the density changes fast and coarse
where it is smooth, and the same pass gives ``polylin.analysis`` its
curvature integrals.  A knot is found inside its table cell by Newton
steps on the cumulative, whose derivative is the density itself, with an
Illinois false-position step wherever Newton would leave the cell's
shrinking bracket (on a flat stretch, or next to a zero of f'').  Each
step costs one adaptive tail integral for all open targets at once.

Every target carries an exact f'' (closed form, or second-order jets for
an expression), so every integral here is held to the same relative
accuracy.  At a zero of f'' the density has a cube-root cusp and |f''| a
kink.  The zeros of every f_j'' are located once, and every curvature and
density integral (the pass and the tails) is cut at them; a piece that
ends at one is integrated through a cubic change of variable that makes
the integrand smooth there (see ``_split_integral``).  A second
derivative that is not finite at a point of the scan grid (GRID_PANELS
cells from a to b) raises ``ValueError``.  So does a kink between grid
points, which every target's exact f' shows: f' jumps across the kink's
cell by more than f'' integrates to there.  A target whose f' is
constant to rounding is a line, and its f'', rounding residue, is left
out (see ``_scan``).

A vector target places one partition for all its components by summing
the component curvatures before the cube root.  A scalar target is the
one-component case, so every function here takes either kind.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._roots import roots
from .core import Partition, TargetFunction, VectorTargetFunction
from .quadrature import NOISE_EPS, QuadratureError, _accepted_panels, integrate_segments

__all__ = [
    "LinearTargetError",
    "KnotDistribution",
    "uniform_partition",
    "knot_density",
    "build_distribution",
    "optimized_partition",
]

# Cells of the uniform grid on which ``_scan`` samples f' and f'' to find
# the zeros of f'', non-finite values and kinks.
GRID_PANELS = 4096
# Relative accuracy of the curvature pass, and so of the tabulated
# cumulative density.
CUMULATIVE_REL_TOL = 1e-10
# The inversion accepts a point whose normalized cumulative value is within
# this of its target, where the density is positive ...
ROOT_RESIDUAL_TOL = 1e-12
# ... and otherwise stops when the bracket is this narrow, relative to
# b - a, returning its upper end (flat stretches).
ROOT_ABSCISSA_TOL = 1e-12
# Plateau slack: the inversion picks the leftmost point whose cumulative
# value reaches the target minus this, which lands on the left edge of any
# flat stretch while staying far below meaningful density differences.
PLATEAU_SLACK = 1e-12
# Floor between consecutive knots, relative to b - a.
MIN_SPACING = 1e-12
# A target passes the kink check of ``_scan`` when its f' changes
# across every grid cell by the integral of f'' to within this share of
# the total curvature (plus the rounding of f'): a kink that carries less
# moves no bound or planned count by more than this relative amount.
KINK_REL = 1e-6

EPS = float(np.finfo(float).eps)


class LinearTargetError(ValueError):
    """The second derivative vanishes identically: every partition is exact."""


LINEAR_MESSAGE = "knot density integrates to zero (target is linear); any partition is exact"


def _components(f: TargetFunction | VectorTargetFunction) -> tuple[TargetFunction, ...]:
    """The component targets; a scalar target is a one-component vector target."""
    return f.components if isinstance(f, VectorTargetFunction) else (f,)


def uniform_partition(a: float, b: float, n: int) -> Partition:
    """N equal segments over [a, b]."""
    if not np.isfinite(a) or not np.isfinite(b) or not a < b:
        raise ValueError(f"invalid interval [{a}, {b}]")
    _check_segments(n)
    return Partition(np.linspace(a, b, n + 1))


def _second_derivatives(f: TargetFunction | VectorTargetFunction, x) -> list[np.ndarray]:
    """f_j''(x) for every component j, checked finite."""
    rows = []
    for comp in _components(f):
        vals = np.asarray(comp.d2(x), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError("second derivative is not finite on the interval")
        rows.append(vals)
    return rows


def _curvature_sum(f: TargetFunction | VectorTargetFunction, x) -> np.ndarray:
    """Summed curvature: the sum over components of |f_j''(x)|."""
    first, *rest = _second_derivatives(f, x)
    total = np.abs(first)
    for row in rest:
        total = total + np.abs(row)
    return total


def knot_density(f: TargetFunction | VectorTargetFunction, x):
    """Local knot density (sum over components of |f_j''(x)|)^(1/3)."""
    return np.cbrt(_curvature_sum(f, x))


def _scan(
    f: TargetFunction | VectorTargetFunction, a: float, b: float
) -> tuple[TargetFunction | VectorTargetFunction | None, np.ndarray]:
    """The curved part of f on [a, b] and the sorted zeros of its f_j'',
    where the summed curvature has a kink and the knot density a cusp.

    Each component's f'' is sampled on the scan grid, both ends included,
    so a non-finite f'' at any grid point raises here.  A sample within
    rounding of zero (EPS times the component's largest |f''|) is a zero
    where it borders a sample outside that band; a sign change between two
    samples outside it is narrowed to adjacent floats.  Zeros closer
    together than the grid spacing go unseen; integrals across them still
    converge, only with more refinement.

    Each component's f' is checked on the same grid first.  Where
    f' is constant to rounding the component is a line, and its f'' is
    rounding residue that no integral could resolve, so it is left out of
    the curved part (None when no component is left).  Otherwise the
    change of f' across each cell must match the integral of f'' over it
    (Simpson's rule, then an adaptive integral where the rule disagrees),
    to within KINK_REL of the total curvature plus the rounding of f'; a
    kink between grid points breaks that, and raises as a non-finite f''.
    """
    x = np.linspace(a, b, GRID_PANELS + 1)
    curved, found = [], [np.empty(0)]
    for comp in _components(f):
        (d2,) = _second_derivatives(comp, x)
        if _is_line(comp, x, d2):
            continue
        curved.append(comp)
        noise = EPS * np.max(np.abs(d2))
        band = np.abs(d2) <= noise
        inside = np.concatenate([[True], band[:-1]]) & np.concatenate([band[1:], [True]])
        found.append(x[band & ~inside])
        k = np.flatnonzero(~band[:-1] & ~band[1:] & ((d2[:-1] > 0.0) != (d2[1:] > 0.0)))
        if k.size:
            found.append(
                roots(
                    lambda t, _s: _second_derivatives(comp, t)[0],
                    k, x[k], x[k + 1], d2[k], d2[k + 1], np.full(k.size, noise),
                )
            )
    if not curved:
        part = None
    elif len(curved) == len(_components(f)):
        part = f
    else:
        part = VectorTargetFunction(tuple(curved))
    return part, np.unique(np.concatenate(found))


def _is_line(comp: TargetFunction, x: np.ndarray, d2: np.ndarray) -> bool:
    """Whether comp's f' is constant to rounding on the grid x (f'' there
    is d2); if not, raise where f' jumps across a cell.  See ``_scan``."""
    d1 = np.asarray(comp.first_derivative(x), dtype=float)
    if not np.all(np.isfinite(d1)):
        raise ValueError("second derivative is not finite on the interval")
    rounding = NOISE_EPS * np.max(np.abs(d1))
    if np.max(np.abs(d1 - d1[0])) <= rounding:
        return True
    h = np.diff(x)
    (d2m,) = _second_derivatives(comp, x[:-1] + 0.5 * h)
    simpson = h / 6.0 * (d2[:-1] + 4.0 * d2m + d2[1:])
    mass = h / 6.0 * (np.abs(d2[:-1]) + 4.0 * np.abs(d2m) + np.abs(d2[1:]))
    allow = KINK_REL * np.sum(mass) + rounding
    jump = np.diff(d1)
    k = np.flatnonzero(np.abs(jump - simpson) > allow)
    if k.size:
        try:
            exact = integrate_segments(
                lambda t, _s: _second_derivatives(comp, t)[0],
                panels=(x[k], x[k + 1], np.arange(k.size), k.size),
                abs_tol=0.1 * allow,
            )
        except QuadratureError:
            exact = np.full(k.size, np.nan)
        if not np.all(np.abs(jump[k] - exact) <= allow):
            raise ValueError("second derivative is not finite on the interval")
    return False


def _split_integral(fun, zeros, lo, hi, seg, nseg, *, table=False, **quadrature):
    """Integrals of fun(x) over panels (lo, hi, seg), cut at ``zeros``.

    Returns per-destination totals, as ``integrate_segments`` does with
    ``panels=(lo, hi, seg, nseg)``.  A piece that ends at a zero r is
    integrated in t over the piece's own interval, with x = r +- L u^3,
    u = |t - r| / L and Jacobian 3 u^2 (L the piece's width): a kink
    c|x - r| becomes ~u^5 and a cusp |x - r|^(1/3) ~u^3, both smooth.  A
    piece with a zero at both ends is halved first.  Pieces keep their
    widths, so the engine's width-proportional budget is unchanged.

    With ``table=True`` it also returns the panels the quadrature
    accepted, as their left ends mapped back to x and their contributions
    (one row per panel, one column per component of fun).
    """
    z = np.concatenate([[-np.inf], zeros, [np.inf]])
    first = np.searchsorted(z, lo, side="right")  # first zero above lo
    last = np.searchsorted(z, hi, side="left")  # first zero at or above hi
    counts = np.maximum(last - first, 0) + 1
    owner = np.repeat(np.arange(lo.size), counts)
    j = np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)
    k = first[owner] + j
    head, tail = j == 0, j == counts[owner] - 1
    start = np.where(head, lo[owner], z[k - 1])
    end = np.where(tail, hi[owner], z[k])
    from_lo = ~head | (z[first - 1] == lo)[owner]
    to_hi = ~tail | (z[last] == hi)[owner]
    both = from_lo & to_hi
    mid = 0.5 * (start + end)
    p_lo = np.concatenate([start, mid[both]])
    p_hi = np.concatenate([np.where(both, mid, end), end[both]])
    dest = np.concatenate([seg[owner], seg[owner][both]])
    side = np.concatenate([np.where(from_lo, 1.0, np.where(to_hi, -1.0, 0.0)), -np.ones(np.count_nonzero(both))])
    anchor = np.where(side < 0.0, p_hi, p_lo)
    width = p_hi - p_lo

    def place(t, p):
        """u and x at the points t of the mapped pieces p."""
        u = np.abs(t - anchor[p]) / width[p]
        return u, np.clip(anchor[p] + side[p] * width[p] * u**3, p_lo[p], p_hi[p])

    def mapped(t, piece):
        on = np.flatnonzero(side[piece])
        if on.size == 0:
            return fun(t)
        x = t.copy()
        u, x[on] = place(t[on], piece[on])
        vals = np.asarray(fun(x), dtype=float)
        jac = 3.0 * u * u
        vals[on] *= jac if vals.ndim == 1 else jac[:, None]
        return vals

    with _accepted_panels() if table else contextlib.nullcontext() as accepted:
        pieces = integrate_segments(mapped, panels=(p_lo, p_hi, np.arange(p_lo.size), p_lo.size), **quadrature)
    if pieces.ndim == 1:
        totals = np.bincount(dest, pieces, minlength=nseg)
    else:
        totals = np.stack([np.bincount(dest, col, minlength=nseg) for col in pieces.T], axis=1)
    if not table:
        return totals
    t, _hi, piece, values = accepted
    # A piece's own left end is exact; every other panel end maps to x.
    x = t.copy()
    on = np.flatnonzero((side[piece] != 0.0) & (t > p_lo[piece]))
    x[on] = place(t[on], piece[on])[1]
    return totals, x, values


# The curvature pass integrates the summed |f''| and the knot density
# together over this many equal panels, refined adaptively inside each.
PASS_PANELS = 64


def _curvature_pass(part, zeros, a: float, b: float):
    """One quadrature of the summed |f_j''| and of the knot density over
    [a, b], cut at ``zeros``, each to CUMULATIVE_REL_TOL of its own total
    however small that total is (the knots of c*f are those of f).

    Returns the two integrals, each the sum of its PASS_PANELS panel
    totals, and the knot table read from the panels the quadrature
    accepted: the grid of their ends and the running sum of their density
    contributions.  Each accepted panel met its share of the budget, in
    proportion to its width, so the table holds the cumulative density to
    the pass's accuracy; the cells follow the refinement (at least
    4 * PASS_PANELS of them, narrow where the density changes fast).
    """
    edges = np.linspace(a, b, PASS_PANELS + 1)

    def pair(x):
        total = _curvature_sum(part, x)
        return np.stack([total, np.cbrt(total)], axis=1)

    parts, ends, values = _split_integral(
        pair,
        zeros,
        edges[:-1],
        edges[1:],
        np.arange(PASS_PANELS),
        PASS_PANELS,
        abs_tol=1e-300,
        rel_tol=CUMULATIVE_REL_TOL,
        table=True,
    )
    total, density = np.sum(parts, axis=0)
    order = np.argsort(ends)
    x, mass = ends[order], values[order, 1]
    # Panel ends next to a zero can map to one float: each run of panels
    # that start at the same x makes one cell, and a run at b joins the
    # cell before it.
    first = np.flatnonzero(np.append(True, x[1:] > x[:-1]) & (x < b))
    cumulative = np.concatenate([[0.0], np.cumsum(np.add.reduceat(mass, first))])
    return (float(total), float(density)), np.append(x[first], b), cumulative


@dataclass(frozen=True)
class KnotDistribution:
    """Tabulated cumulative knot density, invertible to a knot placement.

    ``grid``/``cumulative`` hold the running integral of the density over
    the ends of the panels that the curvature pass accepted, a mesh of
    [a, b] that is not uniform; ``normalizer`` is the full integral, so
    the normalized distribution is cumulative/normalizer with range
    [0, 1].  ``zeros`` are the zeros of f'' that every tail integral is
    cut at.  A prepared distribution stands in for its target in
    ``optimized_partition`` and ``polylin.analysis.curvature``, so one
    pass serves every N and the bounds.
    """

    grid: np.ndarray
    cumulative: np.ndarray
    normalizer: float
    density: Callable
    zeros: np.ndarray
    # The pass's two curvature integrals, (summed |f''|, density), as
    # ``polylin.analysis.curvature`` reports them.
    _sums: tuple[float, float] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("grid", "cumulative", "zeros"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def interval(self) -> tuple[float, float]:
        return float(self.grid[0]), float(self.grid[-1])

    def value(self, x):
        """Normalized cumulative distribution at x (vectorized, in [0, 1])."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        a, b = self.interval
        if not np.all((x >= a) & (x <= b)):  # NaN is outside too
            raise ValueError("x outside the tabulated interval")
        idx = np.clip(np.searchsorted(self.grid, x, side="right") - 1, 0, self.grid.size - 2)
        out = np.clip(self._value_from(idx, x), 0.0, 1.0)
        return float(out[0]) if scalar else out

    def _value_from(self, idx: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Normalized cumulative at x: the tabulated value at grid[idx] plus
        the adaptive integral of the density from grid[idx] to x."""
        tail = _split_integral(
            self.density,
            self.zeros,
            self.grid[idx],
            x,
            np.arange(x.size),
            x.size,
            abs_tol=CUMULATIVE_REL_TOL * max(self.normalizer, np.finfo(float).tiny),
        )
        return (self.cumulative[idx] + tail) / self.normalizer


def build_distribution(
    f: TargetFunction | VectorTargetFunction, a: float, b: float
) -> KnotDistribution:
    """Tabulated cumulative integral of the knot density over [a, b], read
    from the curvature pass (see ``_curvature_pass``)."""
    _check_interval(f, a, b)
    part, zeros = _scan(f, a, b)
    if part is None:
        raise LinearTargetError(LINEAR_MESSAGE)
    sums, grid, cumulative = _curvature_pass(part, zeros, a, b)
    normalizer = float(cumulative[-1])
    if normalizer <= 0.0:
        raise LinearTargetError(LINEAR_MESSAGE)

    def density(x):
        return knot_density(part, x)

    return KnotDistribution(grid, cumulative, normalizer, density, zeros, sums)


def invert_distribution(dist: KnotDistribution, targets: np.ndarray) -> np.ndarray:
    """Abscissae where the normalized cumulative density crosses each target.

    Each target starts in its table cell at the false-position point and
    iterates on the bracket: a Newton step (the density is the cumulative's
    derivative) where it lands strictly inside, an Illinois step otherwise.
    The root sought is the leftmost point whose value reaches
    target - PLATEAU_SLACK, so a flat stretch resolves to its left edge.
    """
    targets = np.asarray(targets, dtype=float)
    a, b = dist.interval
    values = dist.cumulative / dist.normalizer
    want = targets - PLATEAU_SLACK
    hi_idx = np.clip(np.searchsorted(values, want, side="left"), 1, dist.grid.size - 1)
    base = hi_idx - 1
    lo, hi = dist.grid[base], dist.grid[hi_idx]
    g_lo, g_hi = values[base] - want, values[hi_idx] - want
    newton = np.full(targets.size, np.nan)
    # End of the bracket the previous round replaced: -1 low, +1 high.
    last = np.zeros(targets.size, dtype=int)
    out = hi.copy()
    pos = np.arange(targets.size)  # where the open targets go in out
    width_tol = ROOT_ABSCISSA_TOL * (b - a)

    while pos.size:
        # False position (the midpoint where rounding puts it on an end)
        # unless the last Newton step landed strictly inside the bracket.
        x = lo + (hi - lo) * (g_lo / (g_lo - g_hi))
        x = np.where((x > lo) & (x < hi), x, 0.5 * (lo + hi))
        x = np.where((newton > lo) & (newton < hi), newton, x)
        g = dist._value_from(base, x) - want
        slope = dist.density(x) / dist.normalizer
        up = g >= 0.0
        # Illinois: an end kept twice running has its residual halved, so
        # the false-position point cannot stall against it.
        g_lo = np.where(up & (last > 0), 0.5 * g_lo, g_lo)
        g_hi = np.where(~up & (last < 0), 0.5 * g_hi, g_hi)
        lo, g_lo = np.where(up, lo, x), np.where(up, g_lo, g)
        hi, g_hi = np.where(up, x, hi), np.where(up, g, g_hi)
        last = np.where(up, 1, -1)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            newton = x - g / slope

        hit = (np.abs(g) <= ROOT_RESIDUAL_TOL) & (slope > 0.0)
        mid = 0.5 * (lo + hi)
        # A bracket of adjacent floats cannot shrink further either.
        closed = ~hit & ((hi - lo <= width_tol) | (mid <= lo) | (mid >= hi))
        out[pos[hit]] = x[hit]
        out[pos[closed]] = hi[closed]
        keep = ~(hit | closed)
        pos, base, want, newton, last = pos[keep], base[keep], want[keep], newton[keep], last[keep]
        lo, hi, g_lo, g_hi = lo[keep], hi[keep], g_lo[keep], g_hi[keep]
    return out


def optimized_partition(
    f: TargetFunction | VectorTargetFunction | KnotDistribution, a: float, b: float, n: int
) -> Partition:
    """Curvature-equalized partition: knot i sits at the i/N density quantile.

    ``f`` is a target, or its distribution over [a, b] from
    ``build_distribution``, which a caller that needs several N builds
    once.
    """
    _check_segments(n)
    dist = _prepared(f, a, b)
    if n == 1:
        return Partition(np.array([a, b]))
    targets = np.arange(1, n) / n
    interior = invert_distribution(dist, targets)
    knots = np.concatenate([[a], interior, [b]])
    return Partition(_enforce_spacing(knots))


def _prepared(
    f: TargetFunction | VectorTargetFunction | KnotDistribution, a: float, b: float
) -> KnotDistribution:
    """f's distribution over [a, b]: f itself when it is one already."""
    if not isinstance(f, KnotDistribution):
        return build_distribution(f, a, b)
    if f.interval != (a, b):
        raise ValueError(f"distribution tabulated on {list(f.interval)}, not [{a}, {b}]")
    return f


def _enforce_spacing(knots: np.ndarray) -> np.ndarray:
    """Nudge coincident knots apart by the minimum spacing, keeping ends fixed."""
    span = knots[-1] - knots[0]
    eps = MIN_SPACING * span
    out = knots.copy()
    # Either loop below changes a knot only where its own condition holds
    # for the input, so a partition that already satisfies both skips them.
    if not (np.any(out[1:] < out[:-1] + eps) or np.any(out[:-1] > out[1:] - eps)):
        return out
    for i in range(1, out.size):
        if out[i] < out[i - 1] + eps:
            out[i] = out[i - 1] + eps
    for i in range(out.size - 2, 0, -1):
        if out[i] > out[i + 1] - eps:
            out[i] = out[i + 1] - eps
    out[0] = knots[0]
    out[-1] = knots[-1]
    return out


def _check_interval(f: TargetFunction | VectorTargetFunction, a: float, b: float) -> None:
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise ValueError(f"invalid interval [{a}, {b}]")
    lo, hi = f.domain
    if a < lo or b > hi:
        raise ValueError(f"[{a}, {b}] outside the target domain [{lo}, {hi}]")


def _check_segments(n: int) -> None:
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"segment count must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"need at least one segment, got {n}")
