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
curvature integrals.  Each accepted panel's contribution is Boole's rule
on its five samples, the exact integral of the quartic through them, so
the table keeps that integral as the cell's cumulative (a quintic,
scaled to the cell's mass).  A knot is the root of its cell's quintic,
found by guarded Newton steps; the inversion integrates nothing (see
``invert_distribution``).

Every target carries an exact f'' (closed form, or second-order jets for
an expression), so every integral here is held to the same relative
accuracy.  At a zero of f'' the density has a cube-root cusp and |f''| a
kink.  The zeros of every f_j'' are located once, and the pass is cut at
them; a piece that ends at one is integrated through a cubic change of
variable t -> x that makes the integrand smooth there (see
``_split_integral``), and its cells keep their quintics in t.  The zeros
come from a scan of f' and f'' on GRID_PANELS cells (``_scan``), which
also returns the cells it cannot vouch for: a non-finite f' or f'', or a
kink, where f' jumps across a cell by more than f'' integrates to there.
``build_distribution`` raises ``ValueError`` on any such cell, and so
does a pass that fails where |f''| grows without bound between grid
points (see ``_unbounded``).  The L1 distance reads the same scan (see
``polylin.analysis``).  A target whose f' is constant to rounding is a
line, and its f'', rounding residue, is left out.

A vector target places one partition for all its components by summing
the component curvatures before the cube root.  A scalar target is the
one-component case, so every function here takes either kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
# Plateau slack: the inversion picks the first cell whose cumulative value
# reaches the target minus this, which lands on the left edge of any flat
# stretch while staying far below meaningful density differences.
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
        if not np.isfinite(vals).all():
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


def _scan(f: TargetFunction | VectorTargetFunction, a: float, b: float) -> tuple:
    """Per component of f on [a, b]: (the component, the sorted zeros of
    its f'', the (lo, hi) rows of the scan cells it cannot vouch for), or
    (the component, None, no cells) where f' is finite and constant to
    rounding on the scan grid: a line, whose f'' is rounding residue.

    A cell is not vouched for where f' or f'' is not finite at an end or
    f'' at its midpoint, or where f' changes across it by more than f''
    integrates to there (Simpson's rule, then an adaptive integral where
    the rule disagrees) beyond KINK_REL of the total curvature plus the
    rounding of f': a kink.  A finite sample within rounding of zero (EPS
    times the largest finite |f''|) is a zero where it borders one outside
    that band; a sign change between two outside it, in a vouched cell,
    is narrowed to adjacent floats.  Zeros closer than the grid spacing go
    unseen; integrals across them converge with more refinement.
    """
    x = np.linspace(a, b, GRID_PANELS + 1)
    h = np.diff(x)
    rows = []
    for comp in _components(f):
        d2 = np.asarray(comp.d2(x), dtype=float)
        d1 = np.asarray(comp.first_derivative(x), dtype=float)
        finite = np.isfinite(d2) & np.isfinite(d1)
        rounding = NOISE_EPS * np.max(np.abs(d1), where=finite, initial=0.0)
        if finite.all() and np.max(np.abs(d1 - d1[0])) <= rounding:
            rows.append((comp, None, np.empty((0, 2))))
            continue
        d2m = np.asarray(comp.d2(x[:-1] + 0.5 * h), dtype=float)
        bad = ~(finite[:-1] & finite[1:] & np.isfinite(d2m))
        # Sums over the cells already refused are not read.
        with np.errstate(invalid="ignore", over="ignore"):
            simpson = h / 6.0 * (d2[:-1] + 4.0 * d2m + d2[1:])
            mass = h / 6.0 * (np.abs(d2[:-1]) + 4.0 * np.abs(d2m) + np.abs(d2[1:]))
            allow = KINK_REL * np.sum(mass, where=~bad) + rounding
            jump = np.diff(d1)
            k = np.flatnonzero(~bad & (np.abs(jump - simpson) > allow))
        if k.size:
            try:
                exact = integrate_segments(
                    lambda t, _s: _second_derivatives(comp, t)[0],
                    panels=(x[k], x[k + 1], np.arange(k.size), k.size),
                    abs_tol=0.1 * allow,
                )
            except (QuadratureError, ValueError):
                exact = np.full(k.size, np.nan)
            bad[k] = ~(np.abs(jump[k] - exact) <= allow)
        noise = EPS * np.max(np.abs(d2), where=finite, initial=0.0)
        band = finite & (np.abs(d2) <= noise)
        inside = np.concatenate([[True], band[:-1]]) & np.concatenate([band[1:], [True]])
        zeros = [x[band & ~inside]]
        k = np.flatnonzero(~bad & ~band[:-1] & ~band[1:] & ((d2[:-1] > 0.0) != (d2[1:] > 0.0)))
        if k.size:
            zeros.append(
                roots(
                    lambda t, _s: _second_derivatives(comp, t)[0],
                    k, x[k], x[k + 1], d2[k], d2[k + 1], np.full(k.size, noise),
                )
            )
        k = np.flatnonzero(bad)
        rows.append((comp, np.unique(np.concatenate(zeros)), np.stack([x[k], x[k + 1]], axis=1)))
    return tuple(rows)


# The last scan, (f, a, b, its rows): a command runs it once.
_LAST_SCAN: list = [None]


def _scanned(f: TargetFunction | VectorTargetFunction, a: float, b: float) -> tuple:
    """``_scan(f, a, b)``, read from the last scan where (f, a, b) is the
    last target scanned, or (its row alone) one of that target's
    components: a vector target's scan serves the L1 distances of its
    components.  Targets are immutable, and compared by identity."""
    last = _LAST_SCAN[0]
    if last is not None and last[1] == a and last[2] == b:
        if last[0] is f:
            return last[3]
        for row in last[3]:
            if row[0] is f:
                return (row,)
    rows = _scan(f, a, b)
    _LAST_SCAN[0] = (f, a, b, rows)
    return rows


def _split_integral(fun, zeros, lo, hi, seg, nseg, **quadrature):
    """Integrals of the components of fun(x) over panels (lo, hi, seg), cut
    at ``zeros``.

    Returns per-destination totals, one column per component, as
    ``integrate_segments`` does with ``panels=(lo, hi, seg, nseg)``.  A
    piece that ends at a zero r is integrated in t over the piece's own
    interval, with x = r +- L u^3, u = |t - r| / L and Jacobian 3 u^2 (L
    the piece's width): a kink c|x - r| becomes ~u^5 and a cusp
    |x - r|^(1/3) ~u^3, both smooth.  A piece with a zero at both ends is
    halved first.  Pieces keep their widths, so the engine's
    width-proportional budget is unchanged.

    It also returns the panels the quadrature accepted, one row per panel:
    their left ends in x and in t, their piece's map as (anchor, reach)
    (see ``_cubic_map``), their contributions, and the five samples of the
    integrand in t that each contribution weighs (see ``_accepted_panels``).
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
    reach = side * (p_hi - p_lo)

    def mapped(t, piece):
        on = side.take(piece).nonzero()[0]
        if on.size == 0:
            return fun(t)
        x = t.copy()
        p = piece.take(on)
        u, x_on = _cubic_map(t.take(on), anchor.take(p), reach.take(p))
        x[on] = np.minimum(np.maximum(x_on, p_lo.take(p)), p_hi.take(p))
        vals = np.asarray(fun(x), dtype=float)
        jac = 3.0 * u * u
        vals[on] *= jac if vals.ndim == 1 else jac[:, None]
        return vals

    with _accepted_panels() as accepted:
        pieces = integrate_segments(mapped, panels=(p_lo, p_hi, np.arange(p_lo.size), p_lo.size), **quadrature)
    totals = np.stack([np.bincount(dest, col, minlength=nseg) for col in pieces.T], axis=1)
    t, _hi, piece, values, samples = accepted
    # A piece's own left end is exact; every other panel end maps to x.
    x = np.minimum(np.maximum(_cubic_map(t, anchor[piece], reach[piece])[1], p_lo[piece]), p_hi[piece])
    x = np.where(t > p_lo[piece], x, t)
    return totals, (x, t, anchor[piece], reach[piece], values, samples)


def _cubic_map(t, anchor, reach):
    """u = (t - anchor) / reach and x = anchor + reach * u^3, the change of
    variable of a piece that ends on a zero of f''; u = 0 and x = t where
    reach is 0 (a piece with no zero at either end)."""
    flat = reach == 0.0
    u = np.where(flat, 0.0, (t - anchor) / np.where(flat, 1.0, reach))
    return u, np.where(flat, t, anchor + reach * u**3)


# The curvature pass integrates the summed |f''| and the knot density
# together over this many equal panels, refined adaptively inside each.
PASS_PANELS = 64

# Row j holds the coefficients of s, s^2, ..., s^5 in 90 times the
# integral from 0 to s of the quartic that is 1 at node j of
# (0, 1/4, 1/2, 3/4, 1) and 0 at the others.  The rows sum to Boole's
# weights (7, 32, 12, 32, 7).
QUARTIC_CUMULATIVE = np.array(
    [
        [90.0, -375.0, 700.0, -600.0, 192.0],
        [0.0, 720.0, -2080.0, 2160.0, -768.0],
        [0.0, -540.0, 2280.0, -2880.0, 1152.0],
        [0.0, 240.0, -1120.0, 1680.0, -768.0],
        [0.0, -45.0, 220.0, -360.0, 192.0],
    ]
)


def _curvature_pass(part, zeros, a: float, b: float) -> KnotDistribution:
    """One quadrature of the summed |f_j''| and of the knot density over
    [a, b], cut at ``zeros``, each to CUMULATIVE_REL_TOL of its own total
    however small that total is (the knots of c*f are those of f).

    Returns the knot table read from the panels the quadrature accepted,
    carrying the two integrals, each the sum of its PASS_PANELS panel
    totals, as ``_sums``.  Each accepted panel met its share of the
    budget, in proportion to its width, so the table holds the cumulative
    density to the pass's accuracy; the cells follow the refinement (at
    least 4 * PASS_PANELS of them, narrow where the density changes fast).

    A pass that fails where the summed |f''| grows without bound under
    bisection (an integrable singularity between grid points) raises
    ``ValueError`` as a non-finite f'' does; see ``_unbounded``.
    """
    edges = np.linspace(a, b, PASS_PANELS + 1)

    def pair(x):
        # cbrt on the contiguous sums: a strided output takes numpy's
        # scalar loop, which rounds differently from its vector one.
        total = _curvature_sum(part, x)
        out = np.empty((x.size, 2))
        out[:, 0] = total
        out[:, 1] = np.cbrt(total)
        return out

    try:
        parts, (x, t, anchor, reach, values, samples) = _split_integral(
            pair,
            zeros,
            edges[:-1],
            edges[1:],
            np.arange(PASS_PANELS),
            PASS_PANELS,
            abs_tol=1e-300,
            rel_tol=CUMULATIVE_REL_TOL,
        )
    except QuadratureError as exc:
        if _unbounded(part, a, b):
            raise ValueError("second derivative is not finite on the interval") from exc
        raise
    total, density = np.sum(parts, axis=0)
    # The pieces tile [a, b] in t as they do in x, and each map is
    # increasing, so sorting by t puts the cells in order.
    order = np.argsort(t)
    mass = values[order, 1]
    coeffs = samples[order, :, 1] @ QUARTIC_CUMULATIVE
    # Boole's rule is the panel's contribution up to the rounding of its
    # split: scale each cell's cumulative to the table's own cell mass.
    rule = np.sum(coeffs, axis=1)
    coeffs *= np.divide(mass, rule, out=np.zeros_like(mass), where=rule > 0.0)[:, None]
    cumulative = np.concatenate([[0.0], np.cumsum(mass)])
    return KnotDistribution(
        np.append(x[order], b),
        cumulative,
        float(cumulative[-1]),
        zeros,
        np.append(t[order], b),
        anchor[order],
        reach[order],
        coeffs,
        (float(total), float(density)),
    )


# Zoom levels of ``_unbounded``: each halves the window around the largest
# sample of the summed |f''|, from the scan grid's spacing down.
ZOOM_LEVELS = 32


def _unbounded(part, a: float, b: float) -> bool:
    """Whether the summed |f''| grows without bound toward some point.

    From every local maximum of its samples on the scan grid, a window of
    two grid cells is sampled at 17 points and halved around its largest
    sample, ZOOM_LEVELS times.  A bounded |f''| (smooth, or with a jump)
    settles to its supremum within a few halvings; one that grows like
    |x - r|^(-p) towards r gains a factor 2^p with every halving.  So the
    maximum more than doubling over the second half of the zoom marks an
    unbounded one.
    """
    x = np.linspace(a, b, GRID_PANELS + 1)
    v = _curvature_sum(part, x)
    peak = np.flatnonzero(
        (v >= np.concatenate([[-np.inf], v[:-1]])) & (v >= np.concatenate([v[1:], [-np.inf]]))
    )
    centre = x[peak]
    half = np.full(peak.size, (b - a) / GRID_PANELS)
    offsets = np.linspace(-1.0, 1.0, 17)
    tops = []
    for _ in range(ZOOM_LEVELS + 1):
        pts = np.clip(centre[:, None] + half[:, None] * offsets, a, b)
        vals = _curvature_sum(part, pts.ravel()).reshape(pts.shape)
        best = np.argmax(vals, axis=1)
        centre = pts[np.arange(peak.size), best]
        tops.append(vals[np.arange(peak.size), best])
        half = 0.5 * half
    return bool(np.any(tops[-1] > 2.0 * tops[ZOOM_LEVELS // 2]))


@dataclass(frozen=True)
class KnotDistribution:
    """Tabulated cumulative knot density, invertible to a knot placement.

    The table's cells are the panels that the curvature pass accepted, a
    mesh of [a, b] that is not uniform.  ``grid``/``cumulative`` hold the
    running integral of the density at the cell ends; ``normalizer`` is
    the full integral, so the normalized distribution is
    cumulative/normalizer with range [0, 1].  ``zeros`` are the zeros of
    f'' that the pass was cut at.  A run of cells next to a zero can
    start at one float, so ``grid`` is non-decreasing.

    Inside a cell the cumulative is a polynomial in the pass's own
    variable t, whose cell ends are ``tgrid``: x = t, or, in a piece that
    ends on a zero of f'', x = anchor + reach * u^3 with
    u = (t - anchor) / reach (``anchor``, ``reach``; reach 0 where x = t).
    Row i of ``coeffs`` holds the coefficients of s, ..., s^5 with
    s = (t - tgrid[i]) / (tgrid[i+1] - tgrid[i]): the integral of the
    quartic through the panel's five density samples, which is what the
    pass summed (Boole's rule), scaled so that it reaches the cell's mass
    at s = 1.  So the cumulative is known everywhere without integrating
    again.

    A prepared distribution stands in for its target in
    ``optimized_partition`` and ``polylin.analysis.curvature``, so one
    pass serves every N and the bounds.
    """

    grid: np.ndarray
    cumulative: np.ndarray
    normalizer: float
    zeros: np.ndarray
    tgrid: np.ndarray
    anchor: np.ndarray
    reach: np.ndarray
    coeffs: np.ndarray
    # The pass's two curvature integrals, (summed |f''|, density), as
    # ``polylin.analysis.curvature`` reports them.
    _sums: tuple[float, float] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("grid", "cumulative", "zeros", "tgrid", "anchor", "reach", "coeffs"):
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
        cell = np.clip(np.searchsorted(self.grid, x, side="right") - 1, 0, self.grid.size - 2)
        anchor, reach = self.anchor[cell], self.reach[cell]
        flat = reach == 0.0
        u = np.cbrt((x - anchor) / np.where(flat, 1.0, reach))
        t = np.where(flat, x, anchor + reach * u)
        lo, hi = self.tgrid[cell], self.tgrid[cell + 1]
        s = np.clip((t - lo) / (hi - lo), 0.0, 1.0)
        out = (self.cumulative[cell] + _cell_cumulative(self.coeffs[cell], s)) / self.normalizer
        out = np.clip(out, 0.0, 1.0)
        return float(out[0]) if scalar else out


def _cell_cumulative(c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Sum of c[:, k] * s^(k+1): a cell's cumulative at s (Horner)."""
    p = c[:, 4] * s
    for k in (3, 2, 1, 0):
        p = (p + c[:, k]) * s
    return p


def _cell_density(c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Derivative in s of ``_cell_cumulative``."""
    p = 5.0 * c[:, 4]
    for k in (3, 2, 1, 0):
        p = p * s + (k + 1) * c[:, k]
    return p


def build_distribution(
    f: TargetFunction | VectorTargetFunction, a: float, b: float
) -> KnotDistribution:
    """Tabulated cumulative integral of the knot density over [a, b], read
    from the curvature pass (see ``_curvature_pass``)."""
    _check_interval(f, a, b)
    rows = _scanned(f, a, b)
    if any(cells.size for _comp, _zeros, cells in rows):
        raise ValueError("second derivative is not finite on the interval")
    curved = [comp for comp, zeros, _cells in rows if zeros is not None]
    if not curved:
        raise LinearTargetError(LINEAR_MESSAGE)
    part = f if len(curved) == len(rows) else VectorTargetFunction(tuple(curved))
    zeros = np.unique(np.concatenate([z for _comp, z, _cells in rows if z is not None]))
    dist = _curvature_pass(part, zeros, a, b)
    if dist.normalizer <= 0.0:
        raise LinearTargetError(LINEAR_MESSAGE)
    return dist


def invert_distribution(dist: KnotDistribution, targets: np.ndarray) -> np.ndarray:
    """Abscissae where the normalized cumulative density crosses each target.

    Each target's cell is the first whose end reaches target -
    PLATEAU_SLACK, and a target within PLATEAU_SLACK of that end lands on
    it: a flat stretch resolves to its left edge, and a knot on a zero of
    f'' lands on the zero, where the cumulative is too flat for its
    rounding to place the knot.  Otherwise the cell's own polynomial is
    solved for the target itself, clipped to the cell's mass, and t is
    mapped back to x; nothing is integrated.
    """
    targets = np.asarray(targets, dtype=float)
    values = dist.cumulative / dist.normalizer
    cells = dist.coeffs.shape[0]
    cell = np.clip(np.searchsorted(values, targets - PLATEAU_SLACK, side="left"), 1, cells) - 1
    c = dist.coeffs[cell]
    top = _cell_cumulative(c, np.ones(cell.size))
    want = np.clip(targets * dist.normalizer - dist.cumulative[cell], 0.0, top)
    want = np.where(values[cell + 1] <= targets + PLATEAU_SLACK, top, want)
    s = _solve_cells(c, want, top)
    lo, hi = dist.tgrid[cell], dist.tgrid[cell + 1]
    t = np.where(s <= 0.5, lo + s * (hi - lo), hi - (1.0 - s) * (hi - lo))
    x = np.clip(_cubic_map(t, dist.anchor[cell], dist.reach[cell])[1], dist.grid[cell], dist.grid[cell + 1])
    # A cell's ends are exact in the table; their maps need not be.
    return np.where(s == 0.0, dist.grid[cell], np.where(s == 1.0, dist.grid[cell + 1], x))


def _solve_cells(c: np.ndarray, want: np.ndarray, top: np.ndarray) -> np.ndarray:
    """s in [0, 1] where each cell's cumulative reaches ``want``, top its
    value at s = 1 (0 for want <= 0, 1 for want >= top).

    Newton steps inside the bracket [lo, hi] that the cumulative's sign
    keeps, with a bisection wherever a step would leave it or would not
    halve the step before (so the steps shrink at least geometrically);
    a step below the resolution of s ends the target's search.
    """
    out = np.where(want >= top, 1.0, 0.0)
    pos = np.flatnonzero((want > 0.0) & (want < top))
    c, want = c[pos], want[pos]
    s = want / top[pos]
    lo, hi = np.zeros(pos.size), np.ones(pos.size)
    before = np.ones(pos.size)
    while pos.size:
        g = _cell_cumulative(c, s) - want
        lo, hi = np.where(g < 0.0, s, lo), np.where(g > 0.0, s, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = g / _cell_density(c, s)
        nxt = s - step
        newton = (nxt > lo) & (nxt < hi) & (np.abs(step) <= 0.5 * np.abs(before))
        nxt = np.where(newton, nxt, 0.5 * (lo + hi))
        before = nxt - s
        done = (g == 0.0) | (np.abs(before) <= 2.0 * EPS)
        out[pos[done]] = np.where(g[done] == 0.0, s[done], nxt[done])
        keep = ~done
        pos, c, want, s, lo, hi, before = (v[keep] for v in (pos, c, want, nxt, lo, hi, before))
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
