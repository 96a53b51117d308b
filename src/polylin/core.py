"""Domain types: partitions, polygonal functions, and approximation targets.

A polygonal function is continuous and piecewise linear over a partition
``a = x_0 < x_1 < ... < x_N = b``; it is determined by its ordinates at the
knots and can be written in the nodal ("hat") basis, where basis function i
peaks at knot i and vanishes at every other knot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Partition",
    "PolygonalFunction",
    "TargetFunction",
    "VectorTargetFunction",
    "from_samples",
]

# Relative slack when classifying a partition as uniform.
UNIFORM_REL_TOL = 1e-12


@dataclass(frozen=True)
class Partition:
    """Strictly increasing knots spanning a closed interval.

    ``is_uniform`` is decided once at construction: all widths must agree
    with (b - a)/N to within ``UNIFORM_REL_TOL`` relative to the span.
    Instances are immutable; the knot array is marked read-only.
    """

    knots: np.ndarray
    is_uniform: bool = field(init=False)

    def __post_init__(self) -> None:
        knots = np.array(self.knots, dtype=float)
        if knots.ndim != 1 or knots.size < 2:
            raise ValueError("a partition needs at least two knots")
        if not np.all(np.isfinite(knots)):
            raise ValueError("knots must be finite")
        # Python floats: the span overflows to inf without a warning.
        span = float(knots[-1]) - float(knots[0])
        if not math.isfinite(span):
            raise ValueError("knot span must be finite")
        widths = np.diff(knots)
        if np.any(widths <= 0.0):
            raise ValueError("knots must be strictly increasing")
        knots.setflags(write=False)
        object.__setattr__(self, "knots", knots)
        target = span / widths.size
        uniform = bool(np.max(np.abs(widths - target)) <= UNIFORM_REL_TOL * span)
        object.__setattr__(self, "is_uniform", uniform)

    @property
    def n_segments(self) -> int:
        return self.knots.size - 1

    @property
    def a(self) -> float:
        return float(self.knots[0])

    @property
    def b(self) -> float:
        return float(self.knots[-1])

    @property
    def interval(self) -> tuple[float, float]:
        return self.a, self.b

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.knots)

    def __len__(self) -> int:
        return self.knots.size


@dataclass(frozen=True)
class PolygonalFunction:
    """Continuous piecewise-linear function: a partition plus knot ordinates."""

    partition: Partition
    ordinates: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.ordinates, dtype=float)
        if v.shape != (self.partition.knots.size,):
            raise ValueError(
                f"expected {self.partition.knots.size} ordinates, got {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("ordinates must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "ordinates", v)


@dataclass(frozen=True)
class TargetFunction:
    """Function to approximate on a closed interval, with its f' and f''.

    ``eval``, ``second_derivative`` and ``first_derivative`` must accept
    numpy arrays (and scalars) and evaluate elementwise.  Both derivatives
    are required and should be exact to rounding: the built-in targets
    give them in closed form, and expression targets by second-order jets
    (``polylin.functions``).  Knot placement and every error estimate are
    only as good as f''.  The curvature integrals check that f' changes
    across each cell of their grid by the integral of f'' (a kink between
    grid points breaks that), and take a target whose f' is constant to
    rounding for a line, whose f'' is rounding residue
    (``polylin.partition``).  The best-L1 fit weighs each crossing of
    f - g by the slope f' - g' there (``polylin.fit``).
    """

    eval: Callable
    second_derivative: Callable
    domain: tuple[float, float]
    first_derivative: Callable

    def __post_init__(self) -> None:
        a, b = self.domain
        if not (np.isfinite(a) and np.isfinite(b) and a < b):
            raise ValueError(f"degenerate domain [{a}, {b}]")

    def __call__(self, x):
        return self.eval(x)

    def d2(self, x):
        return self.second_derivative(x)


@dataclass(frozen=True)
class VectorTargetFunction:
    """Several scalar targets sharing one domain, approximated on one partition."""

    components: tuple[TargetFunction, ...]

    def __post_init__(self) -> None:
        comps = tuple(self.components)
        if not comps:
            raise ValueError("need at least one component")
        dom = comps[0].domain
        for c in comps[1:]:
            if c.domain != dom:
                raise ValueError(f"component domains differ: {c.domain} vs {dom}")
        object.__setattr__(self, "components", comps)

    @property
    def domain(self) -> tuple[float, float]:
        return self.components[0].domain

    def __len__(self) -> int:
        return len(self.components)


def from_samples(p: Partition, f: TargetFunction) -> PolygonalFunction:
    """Interpolating polygonal function: ordinates are f at the knots."""
    vals = np.asarray(f.eval(p.knots), dtype=float)
    if vals.shape != p.knots.shape:
        raise ValueError("target did not evaluate elementwise over the knots")
    if not np.all(np.isfinite(vals)):
        bad = int(np.flatnonzero(~np.isfinite(vals))[0])
        raise ValueError(f"non-finite sample at knot {bad} (x={p.knots[bad]})")
    return PolygonalFunction(p, vals)
