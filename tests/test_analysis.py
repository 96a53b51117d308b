"""Error measurement, a-priori bounds, segment planning, layout gain."""

import numpy as np
import pytest

from conftest import cubic, linear, quadratic
from polylin.analysis import (
    BEST_L1_FACTOR,
    BOUND_KINDS,
    Curvature,
    curvature,
    error_bound,
    l1_distance,
    min_segments_for_tolerance,
    partition_gain,
    per_interval_errors,
)
from polylin.core import Partition, PolygonalFunction, VectorTargetFunction
from polylin.fit import interpolant
from polylin.functions import expression, gaussian
from polylin.partition import uniform_partition
from polylin.quadrature import QuadratureError, integrate_segments

KINDS = ("uniform_interpolant", "optimized_interpolant", "uniform_best_l1", "optimized_best_l1")


def _line(a, b, y_a, y_b):
    return PolygonalFunction(Partition(np.array([a, b])), np.array([y_a, y_b]))


def test_l1_distance_closed_forms():
    f = quadratic()
    assert abs(l1_distance(f, _line(0.0, 1.0, 0.0, 1.0)) - 1.0 / 6.0) <= 1e-12
    assert abs(l1_distance(f, _line(0.0, 1.0, -3.0 / 16.0, 13.0 / 16.0)) - 1.0 / 16.0) <= 1e-12
    g = cubic()
    assert abs(l1_distance(g, _line(0.0, 1.0, 0.0, 1.0)) - 1.0 / 4.0) <= 1e-12


def test_l1_distance_of_exact_polygonal_is_zero():
    f = linear()
    g = _line(0.0, 1.0, f.eval(0.0), f.eval(1.0))
    assert l1_distance(f, g) <= 1e-12


def test_per_interval_errors_sum_and_equalize():
    f = quadratic()
    p = uniform_partition(0.0, 1.0, 4)
    errs = per_interval_errors(f, interpolant(f, p))
    # Constant curvature: every segment contributes h^3 |f''| / 12 = 1/384.
    assert errs.shape == (4,)
    assert np.max(np.abs(errs - 1.0 / 384.0)) <= 1e-13
    assert abs(np.sum(errs) - l1_distance(f, interpolant(f, p))) <= 1e-12


def test_bounds_on_constant_curvature_are_exact():
    f = quadratic()
    assert abs(error_bound(f, 0.0, 1.0, 1, "uniform_interpolant") - 1.0 / 6.0) <= 1e-12
    assert abs(error_bound(f, 0.0, 1.0, 1, "optimized_interpolant") - 1.0 / 6.0) <= 1e-12
    assert abs(error_bound(f, 0.0, 1.0, 1, "uniform_best_l1") - 1.0 / 16.0) <= 1e-12
    assert abs(error_bound(f, 0.0, 1.0, 1, "optimized_best_l1") - 1.0 / 16.0) <= 1e-12
    assert type(error_bound(f, 0.0, 1.0, 8, "uniform_interpolant")) is float


def test_bound_formulas_from_curvature_integrals():
    # Uniform layout: (b-a)^2 / (12 N^2) times the total curvature mass.
    # Equalized layout: the cubed 1/3-norm of f'' over 12 N^2.
    f = gaussian()
    n = 31
    edges = np.linspace(0.0, 4.0, 9)
    mass = np.sum(integrate_segments(lambda x, _s: f.d2(x), edges, absolute=True))
    third = np.sum(integrate_segments(lambda x, _s: np.abs(f.d2(x)) ** (1.0 / 3.0), edges))
    uniform = error_bound(f, 0.0, 4.0, n, "uniform_interpolant")
    optimized = error_bound(f, 0.0, 4.0, n, "optimized_interpolant")
    assert abs(uniform - 16.0 * mass / (12.0 * n**2)) <= 1e-12
    assert abs(optimized - third**3 / (12.0 * n**2)) <= 1e-12


def test_best_l1_bounds_are_three_eighths_of_interpolant_bounds():
    assert BEST_L1_FACTOR == 0.375
    f = gaussian()
    for layout in ("uniform", "optimized"):
        interp = error_bound(f, 0.0, 4.0, 63, f"{layout}_interpolant")
        best = error_bound(f, 0.0, 4.0, 63, f"{layout}_best_l1")
        assert abs(best - 0.375 * interp) <= 1e-14 * interp


def test_planner_on_gaussian_benchmark():
    f = gaussian()
    tol = 1e-5
    expected = {
        "uniform_interpolant": 254,
        "optimized_interpolant": 213,
        "uniform_best_l1": 156,
        "optimized_best_l1": 130,
    }
    for kind, n in expected.items():
        assert min_segments_for_tolerance(f, 0.0, 4.0, tol, kind) == n
    # Minimality: the returned count meets the tolerance, one fewer does not.
    assert error_bound(f, 0.0, 4.0, 254, "uniform_interpolant") <= tol
    assert error_bound(f, 0.0, 4.0, 253, "uniform_interpolant") > tol
    assert error_bound(f, 0.0, 4.0, 130, "optimized_best_l1") <= tol
    assert error_bound(f, 0.0, 4.0, 129, "optimized_best_l1") > tol


def test_all_kinds_entry_points_match_per_kind_functions():
    f = gaussian()
    curv = curvature(f, 0.0, 4.0)
    assert curv.interval == (0.0, 4.0)
    bounds = curv.bounds(63)
    counts = curv.counts(1e-5)
    assert list(bounds) == list(counts) == list(BOUND_KINDS)
    for kind in BOUND_KINDS:
        assert bounds[kind] == error_bound(f, 0.0, 4.0, 63, kind)
        assert counts[kind] == min_segments_for_tolerance(f, 0.0, 4.0, 1e-5, kind)
    with pytest.raises(ValueError):
        curv.bounds(0)
    with pytest.raises(ValueError):
        curv.counts(-1.0)


def test_numeric_line_has_zero_curvature():
    # The difference-quotient f'' of a line is stencil rounding that no
    # tolerance resolves; the estimate is the analytic line's.
    for text, (a, b) in (("x", (0.0, 1.0)), ("2*x+1", (0.0, 4.0))):
        f = expression(text, (a, b))
        assert f.second_derivative_kind == "numeric"
        assert curvature(f, a, b) == Curvature(0.0, 0.0, (a, b))
        assert set(curvature(f, a, b).counts(1e-9).values()) == {1}
        F = VectorTargetFunction(components=(f, linear(domain=(a, b))))
        assert curvature(F, a, b).bounds(4)["uniform_interpolant"] == 0.0


def test_failed_curvature_of_a_curved_target_still_raises():
    # A kink, and a ripple that vanishes on the 65 quadrature edges but not
    # between them, are not lines.
    for text in ("sqrt((x-0.5)^2)", "x+1e-9*sin(64*pi*x)"):
        with pytest.raises(QuadratureError, match="residual"):
            curvature(expression(text, (0.0, 1.0)), 0.0, 1.0)


def test_planner_edges():
    f = quadratic()
    assert min_segments_for_tolerance(f, 0.0, 1.0, 1.0 / 6.0, "uniform_interpolant") == 1
    assert min_segments_for_tolerance(f, 0.0, 1.0, 0.16, "uniform_interpolant") == 2
    assert min_segments_for_tolerance(f, 0.0, 1.0, 100.0, "uniform_interpolant") == 1
    assert min_segments_for_tolerance(linear(), 0.0, 1.0, 1e-9, "uniform_interpolant") == 1


def test_analysis_validation():
    f = quadratic()
    with pytest.raises(ValueError):
        error_bound(f, 0.0, 1.0, 4, "spline")
    with pytest.raises(ValueError):
        error_bound(f, 0.0, 1.0, 0, "uniform_interpolant")
    with pytest.raises(ValueError):
        min_segments_for_tolerance(f, 0.0, 1.0, 0.0, "uniform_interpolant")
    with pytest.raises(ValueError):
        min_segments_for_tolerance(f, 1.0, 0.0, 1e-3, "uniform_interpolant")


def test_partition_gain_closed_forms():
    # For f = x^3 on [0, 1]: mass = 3, third-norm integral = 6^{1/3} * 3/4,
    # gain = mass / third^3 = 3 / (6 * 27/64) = 32/27.
    assert abs(partition_gain(cubic(), 0.0, 1.0) - 32.0 / 27.0) <= 1e-12
    assert abs(partition_gain(quadratic(), 0.0, 1.0) - 1.0) <= 1e-13
    assert partition_gain(gaussian(), 0.0, 4.0) > 1.0
