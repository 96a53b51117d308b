"""Interpolation, least-squares projection, least-absolute-deviation fit."""

import warnings

import numpy as np
import pytest

from conftest import linear, quadratic
from polylin import fit
from polylin._kernels import thomas
from polylin.analysis import l1_distance
from polylin.core import Partition, PolygonalFunction, as_target, from_samples, hat_basis
from polylin.fit import best_l1_fit, interpolant, l2_projection
from polylin.functions import chirp, gaussian
from polylin.partition import optimized_partition, uniform_partition
from polylin.quadrature import integrate_segments


def test_interpolant_is_knot_sampling():
    f = gaussian()
    p = uniform_partition(0.0, 4.0, 8)
    g = interpolant(f, p)
    assert np.array_equal(g.ordinates, from_samples(p, f).ordinates)
    assert abs(l1_distance(quadratic(), interpolant(quadratic(), uniform_partition(0.0, 1.0, 1))) - 1.0 / 6.0) <= 1e-12


def test_l2_projection_single_segment_oracle():
    # Gram [[1/3, 1/6], [1/6, 1/3]], load (1/12, 1/4) for f = x^2 on one
    # segment; the 2x2 solve puts the projection at (-1/6, 5/6).
    M = np.array([[1.0 / 3.0, 1.0 / 6.0], [1.0 / 6.0, 1.0 / 3.0]])
    b = np.array([1.0 / 12.0, 1.0 / 4.0])
    expected = np.linalg.solve(M, b)
    assert np.allclose(expected, [-1.0 / 6.0, 5.0 / 6.0], atol=1e-15)
    g = l2_projection(quadratic(), uniform_partition(0.0, 1.0, 1))
    assert np.max(np.abs(g.ordinates - expected)) <= 1e-10


def test_l2_projection_solves_the_normal_equations():
    f = gaussian()
    p = uniform_partition(0.0, 4.0, 16)
    c = l2_projection(f, p).ordinates
    n = p.n_segments
    h = p.widths
    diag = np.zeros(n + 1)
    diag[:-1] += h / 3.0
    diag[1:] += h / 3.0
    off = h / 6.0
    b = np.array(
        [
            np.sum(
                integrate_segments(
                    lambda x, _s, i=i: np.asarray(f.eval(x), dtype=float) * hat_basis(p, i, x),
                    np.linspace(p.knots[max(i - 1, 0)], p.knots[min(i + 1, n)], 9),
                )
            )
            for i in range(n + 1)
        ]
    )
    resid = diag * c
    resid[:-1] += off * c[1:]
    resid[1:] += off * c[:-1]
    resid -= b
    # My load vector and the module's each carry the default quadrature
    # budget, so the comparison resolves to twice that, not machine zero.
    assert np.max(np.abs(resid)) <= 5e-12


def test_l2_projection_is_identity_on_polygonal_targets():
    rng = np.random.default_rng(7)
    knots = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 0.9, 4)), [1.0]])
    g = PolygonalFunction(Partition(knots), rng.standard_normal(6))
    proj = l2_projection(as_target(g), g.partition)
    assert np.max(np.abs(proj.ordinates - g.ordinates)) <= 1e-10


def test_l2_projection_preserves_constants():
    f = linear(slope=0.0, intercept=0.7)
    proj = l2_projection(f, uniform_partition(0.0, 1.0, 5))
    assert np.max(np.abs(proj.ordinates - 0.7)) <= 1e-10


def test_best_line_on_linear_segment_is_exact():
    f = linear()
    g, report = best_l1_fit(f, Partition([0.2, 0.9]))
    assert report.converged
    assert np.max(np.abs(g.ordinates - f.eval(g.partition.knots))) <= 1e-15
    assert report.final_cost <= 1e-13


def test_best_line_displacement_sum_scales_with_width():
    # For f = x^2 the endpoint displacements add to -3 h^2 / 8 on any segment.
    f = quadratic(domain=(0.0, 2.0))
    for x_lo, x_hi in ((0.0, 1.0), (0.5, 1.0), (0.25, 2.0)):
        h = x_hi - x_lo
        g, report = best_l1_fit(f, Partition([x_lo, x_hi]))
        dy_lo, dy_hi = g.ordinates - f.eval(g.partition.knots)
        assert report.converged
        assert abs(dy_lo + dy_hi + 3.0 * h**2 / 8.0) <= 1e-12
        assert abs(report.final_cost - h**3 / 16.0) <= 1e-10


def test_fit_of_a_line_is_the_line():
    # Rounding noise where a line crosses zero is no crossing of f - g.
    for slope, intercept, n, (a, b) in (
        (501.0, 0.0, 8, (0.0, 1.0)),
        (3.0, 0.0, 2, (0.0, 1.0)),
        (10.0, 0.0, 8, (0.0, 1.0)),
        (-7.0, 2.0, 31, (-1.0, 1.0)),
        (0.3, -0.5, 3, (-1.0, 1.0)),
    ):
        f = linear(domain=(a, b), slope=slope, intercept=intercept)
        g, report = best_l1_fit(f, uniform_partition(a, b, n))
        y = f.eval(g.partition.knots)
        assert report.converged, (slope, intercept, n)
        assert np.max(np.abs(g.ordinates - y)) <= 1e-15 * np.max(np.abs(y))


def test_best_line_segment_validation():
    with pytest.raises(ValueError):
        best_l1_fit(quadratic(), Partition([0.5, 0.5]))
    with pytest.raises(ValueError):
        best_l1_fit(quadratic(), Partition([0.0, 1.5]))


def test_single_segment_fit_matches_closed_form():
    g, report = best_l1_fit(quadratic(), uniform_partition(0.0, 1.0, 1))
    assert report.converged
    assert np.max(np.abs(g.ordinates - [-3.0 / 16.0, 13.0 / 16.0])) <= 1e-8
    assert abs(report.final_cost - 1.0 / 16.0) <= 1e-9
    assert report.function_evals <= 50


def test_fit_recovers_polygonal_target():
    rng = np.random.default_rng(19)
    knots = np.concatenate([[0.0], np.sort(rng.uniform(0.2, 1.8, 4)), [2.0]])
    target = PolygonalFunction(Partition(knots), rng.standard_normal(6))
    g, report = best_l1_fit(as_target(target), target.partition)
    assert report.converged
    assert report.final_cost <= 1e-9
    assert np.max(np.abs(g.ordinates - target.ordinates)) <= 1e-6


def test_polygonal_target_converges_without_warnings():
    cases = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        knots = np.concatenate([[0.0], np.sort(rng.uniform(0.2, 1.8, 4)), [2.0]])
        target = PolygonalFunction(Partition(knots), rng.standard_normal(6))
        cases.append((as_target(target), target.partition, target.ordinates))
    line = linear(slope=-3.0, intercept=0.4)
    p = uniform_partition(0.0, 1.0, 7)
    cases.append((line, p, line.eval(p.knots)))
    for f, p, expected in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g, report = best_l1_fit(f, p)
        assert report.converged
        assert report.optimality_residual == 0.0
        assert np.max(np.abs(g.ordinates - expected)) <= 1e-12


def _midpoint_optimality(f, g, cells):
    """max_i |sum of sign(f - g) phi_i dx| / integral of phi_i on a uniform
    midpoint grid of ``cells`` cells per segment, and the grid's own error
    bound.  The rule is exact for phi_i on cells where the sign holds; a
    cell holding a sign change is off by at most twice its width.  Each
    segment counts the changes between its midpoints plus one, for a change
    in an end cell that no midpoint pair sees."""
    p = g.partition
    knots, v, h = p.knots, g.ordinates, p.widths
    t = (np.arange(cells) + 0.5) / cells
    x = knots[:-1, None] + h[:, None] * t
    s = np.sign(np.asarray(f.eval(x), dtype=float) - ((1.0 - t) * v[:-1, None] + t * v[1:, None]))
    dx = (h / cells)[:, None]
    moments = np.zeros(knots.size)
    moments[:-1] += np.sum(s * (1.0 - t) * dx, axis=1)
    moments[1:] += np.sum(s * t * dx, axis=1)
    flips = np.count_nonzero(s[:, 1:] != s[:, :-1], axis=1) + 1
    slack = np.zeros(knots.size)
    slack[:-1] += 2.0 * flips * dx[:, 0]
    slack[1:] += 2.0 * flips * dx[:, 0]
    mass = np.zeros(knots.size)
    mass[:-1] += 0.5 * h
    mass[1:] += 0.5 * h
    return np.abs(moments) / mass, slack / mass


@pytest.mark.parametrize(
    "name, n, layout",
    [
        ("gaussian", 63, "uniform"),
        ("gaussian", 63, "optimized"),
        ("chirp", 8, "uniform"),
        ("chirp", 8, "optimized"),
    ],
)
def test_fit_meets_optimality_on_an_independent_grid(name, n, layout):
    f = gaussian() if name == "gaussian" else chirp()
    a, b = f.domain
    p = uniform_partition(a, b, n) if layout == "uniform" else optimized_partition(f, a, b, n)
    g, report = best_l1_fit(f, p)
    assert report.converged
    assert report.optimality_residual <= 1e-6
    residual, bound = _midpoint_optimality(f, g, 1 << 14)
    assert np.all(residual <= bound + 1e-6), np.max(residual - bound)
    # The interpolant's sign pattern is far from balanced on the same grid.
    off, off_bound = _midpoint_optimality(f, interpolant(f, p), 1 << 14)
    assert np.max(off - off_bound) > 0.1


@pytest.mark.parametrize(
    "name, interval, n",
    [
        ("gaussian", (0.0, 4.0), 63),
        ("chirp", (0.0, 1.0), 31),
        ("gaussian", (0.0, 8.0), 63),
        ("chirp", (0.0, 1.0), 511),
    ],
)
def test_experiment_fits_reach_optimality(name, interval, n):
    f = gaussian(interval) if name == "gaussian" else chirp(interval)
    a, b = interval
    for p in (uniform_partition(a, b, n), optimized_partition(f, a, b, n)):
        g, report = best_l1_fit(f, p)
        assert report.converged
        assert report.optimality_residual <= 1e-6


def test_sweep_fits_reach_optimality(gaussian_sweep):
    for key, row in gaussian_sweep["rows"].items():
        assert row["report"].optimality_residual <= 1e-6, key


def test_fit_improves_on_projection_and_interpolation():
    f = gaussian()
    p = uniform_partition(0.0, 4.0, 31)
    cost_interp = l1_distance(f, interpolant(f, p))
    cost_l2 = l1_distance(f, l2_projection(f, p))
    g, report = best_l1_fit(f, p)
    cost_l1 = l1_distance(f, g)
    assert report.converged
    assert cost_l1 <= cost_l2 + 1e-10
    assert cost_l2 <= cost_interp + 1e-10
    assert abs(report.final_cost - cost_l1) <= 1e-11


def test_unconverged_fit_reports_honestly(monkeypatch):
    f = gaussian()
    p = uniform_partition(0.0, 4.0, 9)
    monkeypatch.setattr(fit, "MAX_NEWTON_ITERS", 1)
    g, report = best_l1_fit(f, p)
    assert not report.converged
    assert report.iterations == 1
    assert np.all(np.isfinite(g.ordinates))
    assert np.isfinite(report.final_cost)
    assert 1e-6 < report.optimality_residual < 1.0


def test_exact_gradient_matches_finite_differences():
    f = gaussian()
    p = uniform_partition(0.0, 4.0, 8)
    base = from_samples(p, f).ordinates
    rng = np.random.default_rng(23)
    # The central difference of the exact cost is off by O(step^2) times its
    # third derivative: the fifth draw reads 1.3e-4 relative at step 1e-4 and
    # 1.3e-6 at 1e-5; at 1e-6 every draw stays at or below 1.3e-8.
    step = 1e-6

    def cost(w):
        return l1_distance(f, PolygonalFunction(p, w))

    for _ in range(10):
        v = base + 0.05 * rng.standard_normal(base.size)
        grad = fit._crossings(f, p, v, fit.SAMPLES).grad
        fd = np.empty_like(grad)
        for j in range(v.size):
            vp, vm = v.copy(), v.copy()
            vp[j] += step
            vm[j] -= step
            fd[j] = (cost(vp) - cost(vm)) / (2.0 * step)
        assert np.max(np.abs(fd - grad)) <= 1e-6 * np.max(np.abs(grad))


def test_gradient_locality_is_tridiagonal():
    # A hat whose segments hold no crossing of f - g has a gradient entry
    # that does not move with v, so start where every hat sees crossings:
    # the least-squares projection.
    f = gaussian()
    p = uniform_partition(0.0, 4.0, 8)
    v = l2_projection(f, p).ordinates
    nudge = 1e-2 * np.max(np.abs(np.asarray(f.eval(p.knots), dtype=float) - v))
    base = fit._crossings(f, p, v, fit.SAMPLES).grad
    for j in range(9):
        w = v.copy()
        w[j] += nudge
        moved = fit._crossings(f, p, w, fit.SAMPLES).grad
        touched = np.arange(9)[np.abs(moved - base) != 0.0]
        assert set(touched) <= {j - 1, j, j + 1}
        assert j in touched


def test_fit_balances_signed_measure():
    f = gaussian()
    p = uniform_partition(0.0, 4.0, 9)
    g, report = best_l1_fit(f, p)
    assert report.converged
    xs = np.linspace(0.0, 4.0, 400001)
    resid = np.asarray(f.eval(xs), dtype=float) - np.interp(xs, p.knots, g.ordinates)
    m_plus = 4.0 * np.count_nonzero(resid > 0.0) / xs.size
    m_minus = 4.0 * np.count_nonzero(resid < 0.0) / xs.size
    assert abs(m_plus - m_minus) <= 8e-3


def test_tridiagonal_solver_against_dense_solve():
    rng = np.random.default_rng(5)
    n = 40
    lower = rng.uniform(-1.0, 1.0, n - 1)
    upper = rng.uniform(-1.0, 1.0, n - 1)
    diag = np.abs(rng.uniform(2.5, 4.0, n))
    rhs = rng.standard_normal(n)
    x = thomas(lower, diag, upper, rhs)
    T = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
    assert np.max(np.abs(T @ x - rhs)) <= 1e-12 * np.max(np.abs(rhs))
    assert np.max(np.abs(x - np.linalg.solve(T, rhs))) <= 1e-12 * np.max(np.abs(x))


def test_tridiagonal_solver_reports_breakdown():
    with pytest.raises(np.linalg.LinAlgError):
        thomas(np.array([1.0]), np.array([0.0, 1.0]), np.array([1.0]), np.array([1.0, 1.0]))
