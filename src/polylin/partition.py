"""Knot placement: uniform grids and curvature-equalized grids.

The equalizing rule spaces knots by the local density |f''(x)|^(1/3),
normalized over [a, b]: knot i sits where the cumulative normalized density
reaches i/N.  Regions of high curvature then receive proportionally more
knots, which (asymptotically) equalizes the approximation error that each
segment contributes.

The cumulative density is tabulated once on a dense grid; a knot is found
inside its table cell by Newton steps on the cumulative, whose derivative
is the density itself, with an Illinois false-position step wherever
Newton would leave the cell's shrinking bracket (at the cube-root cusp of
a zero of f'', or on a flat stretch).  Each step costs one adaptive tail
integral for all open targets at once.

A vector target places one partition for all its components by summing
the component curvatures before the cube root.  A scalar target is the
one-component case, so every function here takes either kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import FD_REL_STEP, Partition, TargetFunction, VectorTargetFunction
from .quadrature import NOISE_EPS, QuadratureError, integrate_segments

__all__ = [
    "LinearTargetError",
    "KnotDistribution",
    "uniform_partition",
    "knot_density",
    "build_distribution",
    "optimized_partition",
]

# Dense tabulation of the cumulative density; refinement inside each cell
# is adaptive, so the cell count only needs to localize features.
GRID_PANELS = 4096
# Relative accuracy of the tabulated cumulative density.
CUMULATIVE_REL_TOL = 1e-10
# The inversion accepts a point whose normalized cumulative value is within
# this of its target, where the density is positive ...
ROOT_RESIDUAL_TOL = 1e-12
# ... and otherwise stops when the bracket is this narrow, relative to
# b - a, returning its upper end (flat stretches, noisy numeric f'').
ROOT_ABSCISSA_TOL = 1e-12
# Plateau slack: the inversion picks the leftmost point whose cumulative
# value reaches the target minus this, which lands on the left edge of any
# flat stretch while staying far below meaningful density differences.
PLATEAU_SLACK = 1e-12
# Floor between consecutive knots, relative to b - a.
MIN_SPACING = 1e-12


class LinearTargetError(ValueError):
    """The second derivative vanishes identically: every partition is exact."""


def _components(f: TargetFunction | VectorTargetFunction) -> tuple[TargetFunction, ...]:
    """The component targets; a scalar target is a one-component vector target."""
    return f.components if isinstance(f, VectorTargetFunction) else (f,)


def _density_accuracy(f: TargetFunction | VectorTargetFunction, a: float, b: float):
    """(rel_tol, resolve_floor) for integrals of a second-derivative-based
    density.  A difference-quotient second derivative carries rounding
    jitter around 1e-16/step^2 and resolves no structure narrower than its
    stencil, so integrals over it are held to a matching relative accuracy
    instead of the absolute default; one such component sets the rule."""
    if not any(c.second_derivative_kind == "numeric" for c in _components(f)):
        return CUMULATIVE_REL_TOL, None
    floor = min(FD_REL_STEP * max(1.0, abs(a), abs(b)), (b - a) / 256.0)
    return 1e-6, floor


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


def knot_density(f: TargetFunction | VectorTargetFunction, x):
    """Local knot density (sum over components of |f_j''(x)|)^(1/3)."""
    first, *rest = _second_derivatives(f, x)
    total = np.abs(first)
    for row in rest:
        total = total + np.abs(row)
    return np.cbrt(total)


@dataclass(frozen=True)
class KnotDistribution:
    """Tabulated cumulative knot density, invertible to a knot placement.

    ``grid``/``cumulative`` hold the running integral of the density over a
    dense mesh of [a, b]; ``normalizer`` is the full integral, so the
    normalized distribution is cumulative/normalizer with range [0, 1].
    """

    grid: np.ndarray
    cumulative: np.ndarray
    normalizer: float
    density: Callable
    rel_tol: float = CUMULATIVE_REL_TOL
    resolve_floor: float | None = None

    def __post_init__(self) -> None:
        for name in ("grid", "cumulative"):
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
        if np.any(x < a) or np.any(x > b):
            raise ValueError("x outside the tabulated interval")
        idx = np.clip(np.searchsorted(self.grid, x, side="right") - 1, 0, self.grid.size - 2)
        out = np.clip(self._value_from(idx, x), 0.0, 1.0)
        return float(out[0]) if scalar else out

    def _value_from(self, idx: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Normalized cumulative at x: the tabulated value at grid[idx] plus
        the adaptive integral of the density from grid[idx] to x."""
        tail = integrate_segments(
            lambda t, _s: self.density(t),
            panels=(self.grid[idx], x, np.arange(x.size), x.size),
            abs_tol=self.rel_tol * max(self.normalizer, np.finfo(float).tiny),
            resolve_floor=self.resolve_floor,
        )
        return (self.cumulative[idx] + tail) / self.normalizer


def build_distribution(
    f: TargetFunction | VectorTargetFunction, a: float, b: float
) -> KnotDistribution:
    """Tabulated cumulative integral of the knot density over [a, b]."""
    _check_interval(f, a, b)
    rel_tol, resolve_floor = _density_accuracy(f, a, b)

    def density(x):
        return knot_density(f, x)

    grid = np.linspace(a, b, GRID_PANELS + 1)
    try:
        pieces = integrate_segments(
            lambda x, _s: density(x),
            grid,
            abs_tol=1e-300,
            rel_tol=rel_tol,
            resolve_floor=resolve_floor,
        )
    except QuadratureError:
        # The difference-quotient f'' of a line is stencil rounding that no
        # tolerance resolves; a line falls through to the error below.
        if not _is_linear(f, a, b):
            raise
        pieces = np.zeros(GRID_PANELS)
    cumulative = np.concatenate([[0.0], np.cumsum(pieces)])
    normalizer = float(cumulative[-1])
    if normalizer <= 0.0:
        raise LinearTargetError(
            "knot density integrates to zero (target is linear); any partition is exact"
        )
    return KnotDistribution(grid, cumulative, normalizer, density, rel_tol, resolve_floor)


def _is_linear(f: TargetFunction | VectorTargetFunction, a: float, b: float) -> bool:
    """Whether every component of f equals its chord over [a, b] to within
    NOISE_EPS of its largest magnitude, on the knot distribution's grid."""
    x = np.linspace(a, b, GRID_PANELS + 1)
    t = (x - a) / (b - a)
    for comp in _components(f):
        y = np.asarray(comp.eval(x), dtype=float)
        chord = (1.0 - t) * y[0] + t * y[-1]
        if not np.max(np.abs(y - chord)) <= NOISE_EPS * np.max(np.abs(y)):
            return False
    return True


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
    f: TargetFunction | VectorTargetFunction, a: float, b: float, n: int
) -> Partition:
    """Curvature-equalized partition: knot i sits at the i/N density quantile."""
    _check_segments(n)
    dist = build_distribution(f, a, b)
    if n == 1:
        return Partition(np.array([a, b]))
    targets = np.arange(1, n) / n
    interior = invert_distribution(dist, targets)
    knots = np.concatenate([[a], interior, [b]])
    return Partition(_enforce_spacing(knots))


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
    if n < 1:
        raise ValueError(f"need at least one segment, got {n}")
