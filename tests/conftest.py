"""Shared fixtures: target factories, test oracles for polygonal
functions, and the Gaussian benchmark sweep.

The sweep fixture is session scoped because the best-L1 fits at N=511 are
the expensive part of the whole suite; acceptance and fit tests share one
run of it.
"""

import time

import numpy as np
import pytest

from polylin import quadrature
from polylin.analysis import error_bound, l1_distance
from polylin.core import Partition, PolygonalFunction, TargetFunction
from polylin.fit import best_l1_fit, interpolant
from polylin.functions import gaussian
from polylin.partition import optimized_partition, uniform_partition

SWEEP_N = (31, 63, 127, 255, 511)
LAYOUTS = ("uniform", "optimized")


def quadratic(domain=(0.0, 1.0)):
    return TargetFunction(
        eval=lambda x: np.asarray(x, dtype=float) ** 2,
        second_derivative=lambda x: np.full_like(np.asarray(x, dtype=float), 2.0),
        domain=domain,
        first_derivative=lambda x: 2.0 * np.asarray(x, dtype=float),
    )


def cubic(domain=(0.0, 1.0)):
    return TargetFunction(
        eval=lambda x: np.asarray(x, dtype=float) ** 3,
        second_derivative=lambda x: 6.0 * np.asarray(x, dtype=float),
        domain=domain,
        first_derivative=lambda x: 3.0 * np.asarray(x, dtype=float) ** 2,
    )


def linear(domain=(0.0, 1.0), slope=2.0, intercept=-0.5):
    return TargetFunction(
        eval=lambda x: slope * np.asarray(x, dtype=float) + intercept,
        second_derivative=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        domain=domain,
        first_derivative=lambda x: np.full_like(np.asarray(x, dtype=float), slope),
    )


def shifted_gaussian(center, domain=(0.0, 4.0)):
    c = float(center)

    def val(x):
        x = np.asarray(x, dtype=float)
        return np.exp(-0.5 * (x - c) ** 2) / np.sqrt(2.0 * np.pi)

    def d1(x):
        return -(np.asarray(x, dtype=float) - c) * val(x)

    def d2(x):
        x = np.asarray(x, dtype=float)
        return ((x - c) ** 2 - 1.0) * val(x)

    return TargetFunction(eval=val, second_derivative=d2, domain=domain, first_derivative=d1)


def searched_values(knots, ordinates, xs):
    """Polygonal values by binary search: the bit-for-bit reference for the
    table search, with the kernel's arithmetic.

    Segment k (0-based) is the right-open [x_k, x_{k+1}), and x = x_N has
    a segment of its own with slope 0.  The value is v[k] + (x - x_k)*s,
    s = (v[k+1] - v[k])/(x_{k+1} - x_k), or d*v[k+1] + (1 - d)*v[k],
    d = (x - x_k)/(x_{k+1} - x_k), where s overflows.
    """
    k = np.searchsorted(knots, xs, side="right") - 1
    k1 = np.minimum(k + 1, knots.size - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        dx, dv = knots[k1] - knots[k], ordinates[k1] - ordinates[k]
        s = np.where(k1 > k, dv / dx, 0.0)
        d = (xs - knots[k]) / dx
        convex = d * ordinates[k1] + (1.0 - d) * ordinates[k]
        return np.where(np.isfinite(s), ordinates[k] + (xs - knots[k]) * s, convex)


def hat_basis(p: Partition, i: int, x):
    """Evaluate nodal basis function i of the partition at x.

    Rises linearly from knot i-1 to knot i, falls to knot i+1, zero elsewhere;
    the first and last basis functions are one-sided. Accepts scalars or arrays
    within [a, b].
    """
    n = p.n_segments
    if not 0 <= i <= n:
        raise IndexError(f"basis index {i} outside 0..{n}")
    k = p.knots
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if np.any(x < k[0]) or np.any(x > k[-1]):
        raise ValueError("x outside the partition interval")
    out = np.zeros_like(x)
    if i > 0:
        mask = (x >= k[i - 1]) & (x <= k[i])
        out[mask] = (x[mask] - k[i - 1]) / (k[i] - k[i - 1])
    if i < n:
        mask = (x > k[i]) & (x <= k[i + 1]) if i > 0 else (x >= k[i]) & (x <= k[i + 1])
        out[mask] = (k[i + 1] - x[mask]) / (k[i + 1] - k[i])
    return float(out[0]) if scalar else out


def as_target(g: PolygonalFunction) -> TargetFunction:
    """View a polygonal function as a target: its f' is each segment's
    slope (the right one at a knot), and its f'' is 0 a.e."""
    knots = g.partition.knots
    v = g.ordinates
    slopes = np.diff(v) / np.diff(knots)

    def eval(x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        i = np.clip(np.searchsorted(knots, x, side="right"), 1, knots.size - 1)
        d = (x - knots[i - 1]) / (knots[i] - knots[i - 1])
        out = (1.0 - d) * v[i - 1] + d * v[i]
        return float(out[0]) if scalar else out

    def d1(x):
        x = np.asarray(x, dtype=float)
        i = np.clip(np.searchsorted(knots, x, side="right") - 1, 0, slopes.size - 1)
        return slopes[i]

    def d2(x):
        x = np.asarray(x, dtype=float)
        return 0.0 if x.ndim == 0 else np.zeros_like(x)

    return TargetFunction(eval, d2, (float(knots[0]), float(knots[-1])), d1)


@pytest.fixture(scope="session")
def gaussian_sweep():
    """Interpolant and best-L1 errors for the standard normal density on
    [0, 4] at the benchmark segment counts, both knot layouts, plus the
    matching a-priori bounds and the wall time of the fit sweep."""
    f = gaussian()
    rows = {}
    t0 = time.perf_counter()
    for n in SWEEP_N:
        layouts = {
            "uniform": uniform_partition(0.0, 4.0, n),
            "optimized": optimized_partition(f, 0.0, 4.0, n),
        }
        for layout, p in layouts.items():
            g = interpolant(f, p)
            best, report = best_l1_fit(f, p)
            rows[n, layout] = {
                "interp": l1_distance(f, g),
                "best": l1_distance(f, best),
                "report": report,
                "partition": p,
            }
    elapsed = time.perf_counter() - t0
    bounds = {
        (n, layout): error_bound(f, 0.0, 4.0, n, f"{layout}_interpolant")
        for n in SWEEP_N
        for layout in LAYOUTS
    }
    return {"rows": rows, "bounds": bounds, "elapsed": elapsed}


@pytest.fixture
def batches(monkeypatch):
    """batches(fn, *args): how many integrand batches fn(*args) evaluates.

    A batch is one call of ``quadrature._call``: one for every sample of
    the forced bisections, the panels' ends included, then one per later
    refinement level, whatever the number of panels.
    Per-level overhead dominates the small integrals, so the count is the
    host-independent measure of their cost.
    """
    seen = []
    original = quadrature._call

    def counted(*args, **kwargs):
        seen.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(quadrature, "_call", counted)

    def count(fn, *args):
        seen.clear()
        fn(*args)
        return len(seen)

    return count
