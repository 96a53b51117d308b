"""Shared fixtures: target factories and the Gaussian benchmark sweep.

The sweep fixture is session scoped because the best-L1 fits at N=511 are
the expensive part of the whole suite; acceptance and fit tests share one
run of it.
"""

import time

import numpy as np
import pytest

from polylin.analysis import error_bound, l1_distance
from polylin.core import TargetFunction
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
    )


def cubic(domain=(0.0, 1.0)):
    return TargetFunction(
        eval=lambda x: np.asarray(x, dtype=float) ** 3,
        second_derivative=lambda x: 6.0 * np.asarray(x, dtype=float),
        domain=domain,
    )


def linear(domain=(0.0, 1.0), slope=2.0, intercept=-0.5):
    return TargetFunction(
        eval=lambda x: slope * np.asarray(x, dtype=float) + intercept,
        second_derivative=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        domain=domain,
    )


def shifted_gaussian(center, domain=(0.0, 4.0)):
    c = float(center)

    def val(x):
        x = np.asarray(x, dtype=float)
        return np.exp(-0.5 * (x - c) ** 2) / np.sqrt(2.0 * np.pi)

    def d2(x):
        x = np.asarray(x, dtype=float)
        return ((x - c) ** 2 - 1.0) * val(x)

    return TargetFunction(eval=val, second_derivative=d2, domain=domain)


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
