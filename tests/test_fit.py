"""Interpolation, least-squares projection, least-absolute-deviation fit."""

import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest

from conftest import as_target, hat_basis, linear, quadratic
from polylin import fit
from polylin._kernels import thomas
from polylin.analysis import l1_distance
from polylin.core import Partition, PolygonalFunction, TargetFunction, from_samples
from polylin.fit import best_l1_fit, interpolant, l2_projection
from polylin.functions import chirp, expression, gaussian
from polylin.partition import optimized_partition, uniform_partition
from polylin.quadrature import QuadratureError, integrate_segments


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


def test_near_line_settles_within_rounding():
    # x + 1e-12 x^2 on 31 segments: the best fit's |e| (about 1e-16) is at
    # the rounding of f, so rounding alone places the crossings and their
    # allowance covers the whole gradient.  The fit settles at its start,
    # within a few ulps of the optimal ordinates, while the residual from
    # those crossings stays far above OPTIMALITY_TOL (see FitReport).
    f = expression("x+1e-12*x^2", (0.0, 1.0))
    p = uniform_partition(0.0, 1.0, 31)
    g, report = best_l1_fit(f, p)
    assert report.converged and report.iterations == 0
    assert 0.1 <= report.optimality_residual <= 0.2
    # For f = x + c x^2 the optimal ordinates sit 3 c h^2 / 16 below f.
    shift = 3.0 * 1e-12 * p.widths[0] ** 2 / 16.0
    assert np.max(np.abs(g.ordinates - f.eval(p.knots) + shift)) <= 4.0 * fit.EPS
    assert report.final_cost <= 1e-16


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


EXPERIMENT_FITS = [
    ("gaussian", (0.0, 4.0), 63),
    ("chirp", (0.0, 1.0), 31),
    ("gaussian", (0.0, 8.0), 63),
    ("chirp", (0.0, 1.0), 511),
]


@functools.cache
def _experiment_fit(name, interval, n, layout):
    f = gaussian(interval) if name == "gaussian" else chirp(interval)
    a, b = interval
    p = uniform_partition(a, b, n) if layout == "uniform" else optimized_partition(f, a, b, n)
    return (f, *best_l1_fit(f, p))


@pytest.mark.parametrize("name, interval, n", EXPERIMENT_FITS)
def test_experiment_fits_reach_optimality(name, interval, n):
    for layout in ("uniform", "optimized"):
        _f, _g, report = _experiment_fit(name, interval, n, layout)
        assert report.converged
        assert report.optimality_residual <= 1e-6


def _residual_at(f, g, x, seg):
    """e = f - g as the crossing search forms it, on the given segments."""
    knots, h, v = g.partition.knots, g.partition.widths, g.ordinates
    d = (x - knots[seg]) / h[seg]
    return np.asarray(f.eval(x), dtype=float) - ((1.0 - d) * v[seg] + d * v[seg + 1])


@pytest.mark.parametrize("name, interval, n", EXPERIMENT_FITS)
def test_experiment_fit_roots_end_on_adjacent_floats(name, interval, n):
    for layout in ("uniform", "optimized"):
        f, g, _report = _experiment_fit(name, interval, n, layout)
        state = fit._crossings(f, g.partition, g.ordinates, fit.SAMPLES)
        root, seg = state.roots, state.segments
        assert root.size > 0
        pos = _residual_at(f, g, root, seg) >= 0.0
        up = _residual_at(f, g, np.nextafter(root, np.inf), seg) >= 0.0
        down = _residual_at(f, g, np.nextafter(root, -np.inf), seg) >= 0.0
        assert np.all((pos != up) | (pos != down)), (layout, root[(pos == up) & (pos == down)])


@pytest.mark.parametrize("name, interval, n", EXPERIMENT_FITS)
def test_experiment_fit_cost_matches_l1_distance(name, interval, n):
    # Both integrate e smoothly between crossings, with the one routine:
    # final_cost between the fit's, l1_distance between those of its
    # search on the pieces where f'' keeps its sign.  They agree to 1e-12
    # relative, down to the equalized gaussian over [0, 8] (cost 5.0e-5,
    # one segment over [4.75, 8]), which read 7e-11 apart while
    # l1_distance refined |e| on its own.
    for layout in ("uniform", "optimized"):
        f, g, report = _experiment_fit(name, interval, n, layout)
        cost = l1_distance(f, g)
        assert abs(report.final_cost - cost) <= 1e-12 * cost, layout


@pytest.mark.parametrize("name, interval, n", EXPERIMENT_FITS)
def test_experiment_fit_reports_come_from_an_exact_dense_pass(name, interval, n):
    # Line-search trials narrow their crossings only partway; the reported
    # residual and cost are those of a pass to EXACT_WIDTH on the fit's
    # piece ends.
    for layout in ("uniform", "optimized"):
        f, g, report = _experiment_fit(name, interval, n, layout)
        state = fit._crossings(f, g.partition, g.ordinates, fit.SAMPLES, fit.EXACT_WIDTH)
        assert state.settled, layout
        assert report.optimality_residual == float(np.max(state.residual)), layout
        assert report.final_cost == fit._cost(f, g.partition, g.ordinates, state), layout


def test_partial_narrowing_adds_no_newton_steps():
    # The six fits of the benchmark's reproduce ops took 77 crossing passes
    # in all when every line-search trial narrowed to adjacent floats, and
    # 71 once the first pass is inexact and the last trial is the exact
    # check.
    evals = 0
    for name, interval, n in EXPERIMENT_FITS[:3]:
        for layout in ("uniform", "optimized"):
            _f, _g, report = _experiment_fit(name, interval, n, layout)
            assert report.converged, (name, interval, layout)
            evals += report.function_evals
    assert evals <= 71


def test_coarse_trials_still_converge_on_the_exact_pass(monkeypatch):
    # With the first pass and every trial narrowed only to 1e-3 of a
    # segment, trials settle on their widened floor while the residual is
    # still near 1e-3; the exact pass must send the fit on until the
    # residual itself settles.
    crossings = fit._crossings
    coarse = []

    def wide(f, p, v, grid, width=0.0):
        state = crossings(f, p, v, grid, 1e-3 if width > fit.EXACT_WIDTH else width)
        if state.width == 1e-3 and state.settled:
            coarse.append(float(np.max(state.residual)))
        return state

    monkeypatch.setattr(fit, "_crossings", wide)
    for f, n in ((gaussian((0.0, 4.0)), 63), (chirp((0.0, 1.0)), 31)):
        a, b = f.domain
        coarse.clear()
        _g, report = best_l1_fit(f, uniform_partition(a, b, n))
        assert report.converged
        assert report.optimality_residual <= 1e-6
        assert coarse and max(coarse) > 1e-6


def _two_hidden_pairs(c_edge, c_mid, half):
    """A quartic on [0, 1], positive except for two pairs of crossings
    2 half apart, centered at c_edge and c_mid."""

    def val(x):
        x = np.asarray(x, dtype=float)
        return ((x - c_edge) ** 2 - half**2) * ((x - c_mid) ** 2 - half**2)

    def d1(x):
        x = np.asarray(x, dtype=float)
        p, q = (x - c_edge) ** 2 - half**2, (x - c_mid) ** 2 - half**2
        return 2.0 * (x - c_edge) * q + 2.0 * (x - c_mid) * p

    def d2(x):
        x = np.asarray(x, dtype=float)
        p, q = (x - c_edge) ** 2 - half**2, (x - c_mid) ** 2 - half**2
        return 2.0 * p + 2.0 * q + 8.0 * (x - c_edge) * (x - c_mid)

    return TargetFunction(eval=val, second_derivative=d2, domain=(0.0, 1.0), first_derivative=d1)


def _gaussian_well(centre, width):
    """1 - 2 exp(-((x - centre) / width)^2) on [0, 1]: one pair of crossings
    about 1.67 width apart, with e' far from monotone around them."""

    def val(x):
        return 1.0 - 2.0 * np.exp(-(((np.asarray(x, dtype=float) - centre) / width) ** 2))

    def d1(x):
        u = (np.asarray(x, dtype=float) - centre) / width
        return 4.0 * u / width * np.exp(-u * u)

    def d2(x):
        u = (np.asarray(x, dtype=float) - centre) / width
        return 4.0 / width**2 * (1.0 - 2.0 * u * u) * np.exp(-u * u)

    return TargetFunction(eval=val, second_derivative=d2, domain=(0.0, 1.0), first_derivative=d1)


def test_crossings_find_pairs_hidden_between_samples():
    # Each quartic case hides two pairs 2 half wide, at most a quarter of
    # the sample spacing 1/32.  One sits between the knot sample x = 0 and
    # its neighbour (an edge dip); the other inside a run of positive
    # samples, off the middle of [15/32, 17/32], or near the end of that
    # bracket.  Against g = 0 every sample of e = f is positive.  Each pair
    # lies on a piece where e is convex, which the tangents at its ends do
    # not clear, so the piece is split where e < 0: where they meet, or at
    # the zero of e' between the crossings, however narrow the pair (down
    # to half-widths of 1e-14, e there is still far above its rounding).
    # The Gaussian well's pair, 0.005 wide, lies 3.1 widths right of the
    # sample 1/2, where e = 0.9999 but |e'| times the sample spacing is
    # only 0.0075; e < 0 at the zeros of f'' between its crossings, so each
    # crossing has a bracket of its own.
    middle, near_end = (0.012, 0.5 + 0.4 / fit.SAMPLES), (0.0011, 0.5 + 0.97 / fit.SAMPLES)
    halves = (1e-6, 1e-9, 1e-12, 1e-13, 1e-14)
    cases = [(_two_hidden_pairs(*middle, 0.004), 4)]
    cases += [(_two_hidden_pairs(*c, half), 4) for c in (middle, near_end) for half in halves]
    cases += [(_gaussian_well(0.5 + 0.3 / fit.SAMPLES, 0.003), 2)]
    p = Partition([0.0, 1.0])
    v = np.zeros(2)
    cells = 1 << 16
    t = (np.arange(cells) + 0.5) / cells
    for case, (f, n_roots) in enumerate(cases):
        assert np.all(f.eval(np.arange(fit.SAMPLES + 1) / fit.SAMPLES) > 0.0)
        state = fit._crossings(f, p, v, fit.SAMPLES)
        assert state.roots.size == n_roots, case

        # -integral of sign(e) phi_i by a midpoint sum over 2^16 cells:
        # exact on cells of one sign, off by at most twice the width on each
        # of the cells that hold a crossing.
        s = np.sign(f.eval(t))
        oracle = -np.array([np.sum(s * (1.0 - t)), np.sum(s * t)]) / cells
        # A pair the search missed would move the gradient by about twice
        # its width.
        assert np.max(np.abs(state.grad - oracle)) <= 8.0 / cells, case


def _count_crossing_batches(monkeypatch):
    """Record the crossing passes (the state each returned), and the f and
    f' batches sent to a target wrapped by the returned ``counting``: its
    kind ("f" or "d1"), its size, and whether a pass sent it."""
    passes, batches, inside = [], [], [False]
    search = fit._crossings

    def counted(f, p, v, grid, width=0.0):
        inside[0] = True
        try:
            state = search(f, p, v, grid, width)
        finally:
            inside[0] = False
        passes.append(state)
        return state

    def counting(f):
        def eval_counted(x, real=f.eval):
            batches.append(("f", np.size(x), inside[0]))
            return real(x)

        def d1_counted(x, real=f.first_derivative):
            batches.append(("d1", np.size(x), inside[0]))
            return real(x)

        return dataclasses.replace(f, eval=eval_counted, first_derivative=d1_counted)

    monkeypatch.setattr(fit, "_crossings", counted)
    return passes, batches, counting


def _counted_reproduce_fits(monkeypatch):
    """The six fits of the benchmark's reproduce ops, each with the passes
    and target batches it made (see _count_crossing_batches)."""
    passes, batches, counting = _count_crossing_batches(monkeypatch)
    fits = []
    for name, (a, b), n in EXPERIMENT_FITS[:3]:
        f = gaussian((a, b)) if name == "gaussian" else chirp((a, b))
        for p in (uniform_partition(a, b, n), optimized_partition(f, a, b, n)):
            first_pass, first_batch = len(passes), len(batches)
            _g, report = best_l1_fit(counting(f), p)
            assert report.converged
            fits.append((p, report, passes[first_pass:], batches[first_batch:]))
    return fits


def test_crossing_search_takes_few_target_batches(monkeypatch):
    # The six fits of the benchmark's reproduce ops, counting the batches of
    # f and f' the crossing passes send to the target (host-independent).
    # The bisection and 45-step golden search it replaced sent 87 per pass.
    # When every exact pass narrowed to adjacent floats and each pass
    # sampled f itself, the six sent 980 in all; with two sample grids and
    # a search for pairs between samples, 613; on the pieces, 459.
    fits = _counted_reproduce_fits(monkeypatch)
    n_passes = sum(len(passes) for _p, _r, passes, _b in fits)
    inside = sum(inner for *_fit, batches in fits for _kind, _size, inner in batches)
    assert inside <= 613, inside
    assert inside / n_passes <= 13.0, (inside, n_passes)


def test_each_fit_samples_each_grid_once(monkeypatch):
    # f and f' are taken once per fit at its piece ends, SAMPLES steps per
    # segment cut at the zeros of f'', and every pass reads e there.
    for p, _report, passes, batches in _counted_reproduce_fits(monkeypatch):
        size = passes[0].ends.x.size
        assert size > p.n_segments * fit.SAMPLES
        assert all(state.ends is passes[0].ends for state in passes)
        for kind in ("f", "d1"):
            assert [inner for k, n, inner in batches if (k, n) == (kind, size)] == [False], kind


def test_converged_fit_ends_on_an_exact_dense_pass(monkeypatch):
    # The pass that judges convergence is the last one, narrowed to
    # EXACT_WIDTH, and the report comes from it.  On these fits it is the
    # last line-search trial: the pass before it did not settle, so no
    # second pass checked it.
    for _p, report, passes, _batches in _counted_reproduce_fits(monkeypatch):
        last = passes[-1]
        assert last.width == fit.EXACT_WIDTH
        assert last.settled and not passes[-2].settled
        assert report.optimality_residual == float(np.max(last.residual))
        assert report.function_evals == len(passes)


def test_exact_pass_finds_the_narrowest_hidden_pairs():
    # A pair 2e-14 wide is far narrower than EXACT_WIDTH; the exact pass
    # still finds it, as it narrows the zeros of e' to adjacent floats,
    # even on pieces 128 steps to a segment that all miss it.
    p = Partition([0.0, 1.0])
    for centres in ((0.012, 0.5 + 0.4 / fit.SAMPLES), (0.0011, 0.5 + 0.97 / fit.SAMPLES)):
        f = _two_hidden_pairs(*centres, 1e-14)
        assert np.all(f.eval(np.arange(129) / 128) > 0.0)
        state = fit._crossings(f, p, np.zeros(2), 128, fit.EXACT_WIDTH)
        assert state.roots.size == 4, centres


def test_exact_pass_finds_two_pairs_between_neighbouring_steps():
    # Both pairs lie between x = 1/2 and the next step of a 128-step grid.
    # A search that looked for one extremum of e between two samples of one
    # sign found only one of them; a zero of f'' lies between the pairs,
    # so each has a convex piece of its own.
    p = Partition([0.0, 1.0])
    for half in (1e-5, 1e-9, 1e-13):
        f = _two_hidden_pairs(0.5 + 0.2 / 128, 0.5 + 0.7 / 128, half)
        assert np.all(f.eval(np.arange(129) / 128) > 0.0)
        state = fit._crossings(f, p, np.zeros(2), fit.SAMPLES, fit.EXACT_WIDTH)
        assert state.roots.size == 4, half


def test_dips_far_from_the_origin_close(monkeypatch):
    # On [1e6, 1e6 + 4] the float spacing is about 1e-10, so crossings, and
    # any zero of e' that splits a piece, are narrowed where few floats are
    # left.
    # Both fits converge in the same Newton steps as before (each one's last
    # trial is now its exact check, so each takes one pass fewer than it
    # did), and the search costs fewer target batches per pass than on
    # the reproduce fits.  (The name dates from the dip search this once
    # checked, whose brackets had to close there.)
    passes, batches, counting = _count_crossing_batches(monkeypatch)
    a, b = 1e6, 1e6 + 4.0
    f = expression("exp(-(x-1000000)^2/2)", (a, b))
    steps = []
    for p in (uniform_partition(a, b, 31), optimized_partition(f, a, b, 31)):
        _g, report = best_l1_fit(counting(f), p)
        assert report.converged
        steps.append((report.iterations, report.function_evals))
    assert steps == [(4, 5), (5, 9)]
    inside = sum(inner for _kind, _size, inner in batches)
    assert inside / len(passes) <= 11.0, (inside, len(passes))


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


def test_diverged_fit_reports_nan_cost(monkeypatch):
    # Where the last iterate of a fit that did not converge is too rough for
    # the cost quadrature (here the fit is stopped before its first Newton
    # step, and the quadrature is made to fail), the report says so with a
    # NaN cost; it does not raise.
    def failing_cost(*args):
        raise QuadratureError("cost quadrature failed")

    monkeypatch.setattr(fit, "MAX_NEWTON_ITERS", 0)
    monkeypatch.setattr(fit, "_cost", failing_cost)
    f = expression("exp(-x^2/2)/sqrt(2*pi)", (0.0, 8.0))
    g, report = best_l1_fit(f, uniform_partition(0.0, 8.0, 8))
    assert not report.converged
    assert math.isnan(report.final_cost)
    assert g.ordinates.size == 9


def test_converged_fit_still_raises_when_its_cost_fails(monkeypatch):
    def failing_cost(*args):
        raise QuadratureError("cost quadrature failed")

    monkeypatch.setattr(fit, "_cost", failing_cost)
    with pytest.raises(QuadratureError, match="cost quadrature failed"):
        best_l1_fit(gaussian(), uniform_partition(0.0, 4.0, 8))


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


def _thomas_on_numpy_scalars(lower, diag, upper, rhs):
    """The elimination loops on numpy float64 scalars and arrays."""
    n = diag.size
    c, d, x = np.empty(n), np.empty(n), np.empty(n)
    c[0] = upper[0] / diag[0] if n > 1 else 0.0
    d[0] = rhs[0] / diag[0]
    for k in range(1, n):
        piv = diag[k] - lower[k - 1] * c[k - 1]
        c[k] = upper[k] / piv if k < n - 1 else 0.0
        d[k] = (rhs[k] - lower[k - 1] * d[k - 1]) / piv
    x[n - 1] = d[n - 1]
    for k in range(n - 2, -1, -1):
        x[k] = d[k] - c[k] * x[k + 1]
    return x


@pytest.mark.parametrize("n", [1, 2, 3, 17, 64, 513])
def test_tridiagonal_solver_rounds_as_the_numpy_scalar_loop(n):
    # Python floats are IEEE doubles, so the loops round bit for bit as
    # they do on numpy scalars.
    rng = np.random.default_rng(n)
    for _ in range(20):
        lower = rng.uniform(-1.0, 1.0, n - 1)
        upper = rng.uniform(-1.0, 1.0, n - 1)
        diag = rng.choice((-1.0, 1.0), n) * rng.uniform(2.0, 5.0, n)
        rhs = rng.standard_normal(n) * 10.0 ** rng.uniform(-8.0, 8.0, n)
        x = thomas(lower, diag, upper, rhs)
        assert x.dtype == np.float64 and x.shape == (n,)
        assert np.array_equal(x, _thomas_on_numpy_scalars(lower, diag, upper, rhs))


def test_tridiagonal_solver_reports_a_later_zero_pivot():
    # Row 1's pivot is 1 - 1 * (1 / 1) = 0 exactly.
    with pytest.raises(np.linalg.LinAlgError):
        thomas(np.array([1.0]), np.array([1.0, 1.0]), np.array([1.0]), np.array([1.0, 2.0]))
