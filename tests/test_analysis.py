"""Error measurement, a-priori bounds, segment planning, layout gain."""

import importlib
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import cubic, linear, quadratic
from test_fit import _gaussian_well, _two_hidden_pairs
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
from polylin import analysis, cli, fit, functions, partition, vector
from polylin.core import Partition, PolygonalFunction, TargetFunction, VectorTargetFunction
from polylin.fit import interpolant
from polylin.functions import chirp, expression, gaussian, poly7
from polylin.partition import (
    KnotDistribution,
    LinearTargetError,
    build_distribution,
    optimized_partition,
    uniform_partition,
)
from polylin.quadrature import QuadratureError, integrate_segments

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

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


def _zero(p):
    return PolygonalFunction(p, np.zeros(p.knots.size))


def _search(f, g):
    """The L1 distance's crossing search on f - g: one step per segment."""
    p = g.partition
    return analysis._crossings(f, p, g.ordinates, analysis._ends(f, p.knots, 1))


def _sine(domain):
    return TargetFunction(eval=np.sin, second_derivative=lambda x: -np.sin(x), domain=domain, first_derivative=np.cos)


def test_per_interval_errors_of_absolute_values():
    # |x - c| over [0, 1] is (c^2 + (1-c)^2) / 2, and |sin| over [0, 2 pi]
    # is 4: the L1 distances of x - c and sin from g = 0, on 8 segments.
    p = uniform_partition(0.0, 1.0, 8)
    for c, exact in ((0.3, 0.29), (1.0 / 3.0, 5.0 / 18.0)):
        f = linear(slope=1.0, intercept=-c)
        assert abs(np.sum(per_interval_errors(f, _zero(p))) - exact) <= 1e-12
    p = uniform_partition(0.0, 2.0 * np.pi, 8)
    assert abs(np.sum(per_interval_errors(_sine((0.0, 2.0 * np.pi)), _zero(p))) - 4.0) <= 1e-11


def test_per_interval_errors_integrate_a_line_on_both_sides_of_its_crossing(batches):
    # |x - 1/3| on one segment: the crossing, narrowed to CROSSING_WIDTH of
    # the segment, cuts it into two lines, which one integrand call
    # settles.  Off by delta, the crossing moves the integral by delta^2.
    f, p = linear(slope=1.0, intercept=-1.0 / 3.0), uniform_partition(0.0, 1.0, 1)
    assert batches(per_interval_errors, f, _zero(p)) == 1
    assert abs(per_interval_errors(f, _zero(p))[0] - 5.0 / 18.0) <= 1e-16
    (r,) = _search(f, _zero(p)).roots
    assert abs(r - 1.0 / 3.0) <= 0.5 * analysis.CROSSING_WIDTH


def test_per_interval_errors_find_a_crossing_beside_a_segment_end(batches):
    # sin changes sign between the knot at pi, where it reads 1.2e-16, and
    # the next float: the segment to its right holds that crossing.
    f, p = _sine((0.0, 2.0 * np.pi)), uniform_partition(0.0, 2.0 * np.pi, 8)
    assert f.eval(p.knots[4]) > 0.0
    assert batches(per_interval_errors, f, _zero(p)) <= 8
    assert abs(np.sum(per_interval_errors(f, _zero(p))) - 4.0) <= 1e-15


def test_piece_search_finds_pairs_hidden_between_any_samples():
    # Against g = 0, each quartic has two pairs of crossings 2 half apart
    # (one next to the knot x = 0) and the Gaussian well one pair; no
    # sample of a grid need see them.  The tangent lines at a piece's ends
    # bound e from below; a piece they do not clear is probed where they
    # meet, and split at the minimum of e (the zero of e') where the probe
    # does not show e < 0.  Each crossing is then narrowed to
    # CROSSING_WIDTH of its bracket, which lies in a segment no wider than 1.
    middle, near_end = (0.012, 0.5 + 0.4 / fit.SAMPLES), (0.0011, 0.5 + 0.97 / fit.SAMPLES)
    cases = [(_two_hidden_pairs(*middle, 0.004), np.add.outer(middle, [-0.004, 0.004]))]
    for c in (middle, near_end):
        for half in (1e-6, 1e-9, 1e-12, 1e-13, 1e-14):
            cases.append((_two_hidden_pairs(*c, half), np.add.outer(c, [-half, half])))
    well = 0.5 + 0.3 / fit.SAMPLES
    cases.append((_gaussian_well(well, 0.003), well + 0.003 * math.sqrt(math.log(2.0)) * np.array([-1.0, 1.0])))
    for p in (Partition([0.0, 1.0]), uniform_partition(0.0, 1.0, 4)):
        for case, (f, exact) in enumerate(cases):
            found = _search(f, _zero(p))
            assert found.roots.size == exact.size and np.all(found.start == 1.0), case
            assert np.max(np.abs(np.sort(found.roots) - exact.ravel())) <= 0.5 * analysis.CROSSING_WIDTH, case


def _lifted_pair(c, d, eps):
    """((x - c)^2 + eps^2) ((x - d)^2 + eps^2) on [0, 1]: two dips whose
    minima sit about eps^2 (c - d)^2 above zero."""

    def val(x):
        x = np.asarray(x, dtype=float)
        return ((x - c) ** 2 + eps**2) * ((x - d) ** 2 + eps**2)

    def d1(x):
        x = np.asarray(x, dtype=float)
        return 2.0 * (x - c) * ((x - d) ** 2 + eps**2) + 2.0 * (x - d) * ((x - c) ** 2 + eps**2)

    def d2(x):
        x = np.asarray(x, dtype=float)
        return 2.0 * ((x - d) ** 2 + eps**2) + 2.0 * ((x - c) ** 2 + eps**2) + 8.0 * (x - c) * (x - d)

    return TargetFunction(eval=val, second_derivative=d2, domain=(0.0, 1.0), first_derivative=d1)


def test_piece_search_proves_a_dip_just_above_zero_holds_no_crossing():
    for eps in (1e-4, 1e-7, 1e-9):
        f = _lifted_pair(0.3, 0.8, eps)
        for p in (Partition([0.0, 1.0]), uniform_partition(0.0, 1.0, 3)):
            found = _search(f, _zero(p))
            assert found.roots.size == 0 and np.all(found.start == 1.0), eps


def test_per_interval_errors_match_an_mpmath_reference():
    # Per segment of four, the integral of |f| for the quartic with
    # half-width 0.004 and for the Gaussian well (mpmath 1.3.0, 40 digits,
    # between the exact crossings c +- half and c +- width sqrt(ln 2)).
    p = uniform_partition(0.0, 1.0, 4)
    references = [
        (
            _two_hidden_pairs(0.012, 0.5 + 0.4 / fit.SAMPLES, 0.004),
            [0.00047497512327479987, 0.00057060793591666633, 0.0020645528107748011, 0.027245701248416673],
        ),
        (_gaussian_well(0.5 + 0.3 / fit.SAMPLES, 0.003), [0.25, 0.24999994737548381, 0.24556004443818992, 0.25]),
    ]
    for f, reference in references:
        assert np.max(np.abs(per_interval_errors(f, _zero(p)) - reference)) <= 1e-12


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
    # f'' keeps its sign on each segment: its one zero, x = 1, is an edge.
    edges = np.linspace(0.0, 4.0, 9)
    mass = np.sum(np.abs(integrate_segments(lambda x, _s: f.d2(x), edges)))
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


def test_curvature_of_a_distribution_is_read_from_its_pass(monkeypatch):
    # The knot table comes from the curvature pass, so the distribution
    # carries the same two integrals, and reading them integrates nothing.
    f = gaussian()
    expected = curvature(f, 0.0, 4.0)
    dist = build_distribution(f, 0.0, 4.0)
    monkeypatch.setattr(partition, "integrate_segments", None)
    assert curvature(dist, 0.0, 4.0) == expected
    with pytest.raises(ValueError, match="tabulated on"):
        curvature(dist, 0.0, 3.0)
    # One put together by hand carries no integrals to read.
    bare = KnotDistribution(
        dist.grid, dist.cumulative, dist.normalizer, dist.zeros, dist.tgrid, dist.anchor, dist.reach, dist.coeffs
    )
    with pytest.raises(ValueError, match="pass its target"):
        curvature(bare, 0.0, 4.0)


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
    with pytest.raises(ValueError, match="integer"):
        curv.bounds(2.5)
    with pytest.raises(ValueError):
        curv.counts(-1.0)


def test_numeric_line_has_zero_curvature():
    # An expression line's f'' is exactly 0, as an analytic line's is.
    for text, (a, b) in (("x", (0.0, 1.0)), ("2*x+1", (0.0, 4.0))):
        f = expression(text, (a, b))
        assert curvature(f, a, b) == Curvature(0.0, 0.0, (a, b))
        assert set(curvature(f, a, b).counts(1e-9).values()) == {1}
        F = VectorTargetFunction(components=(f, linear(domain=(a, b))))
        assert curvature(F, a, b).bounds(4)["uniform_interpolant"] == 0.0


def test_failed_curvature_of_a_curved_target_still_raises():
    # A kink has no finite f'' at its corner, which lies on the sample grid.
    with pytest.raises(ValueError, match="second derivative is not finite"):
        curvature(expression("sqrt((x-0.5)^2)", (0.0, 1.0)), 0.0, 1.0)
    # A ripple that vanishes on the 65 quadrature edges but not between
    # them: the integral of |f''| = 1e-9 (64 pi)^2 |sin(64 pi x)| is
    # 1e-9 (64 pi)^2 2/pi.
    c = curvature(expression("x+1e-9*sin(64*pi*x)", (0.0, 1.0)), 0.0, 1.0)
    exact = 1e-9 * (64.0 * math.pi) ** 2 * 2.0 / math.pi
    assert abs(c.total - exact) <= 1e-12 * exact


def test_kink_between_grid_points_raises():
    # sqrt(u^2) = |u|: f'' is exactly 0 on either side of the corner, which
    # lies on no grid or quadrature point, so only the jump of f' across
    # its cell shows it.
    for text, (a, b) in (
        ("sqrt((x-0.3)^2)", (0.0, 1.0)),
        ("sqrt(x^2)", (-1.0, 1.1)),
        ("sqrt((x-0.3)^2)+x^2", (0.0, 1.0)),
    ):
        f = expression(text, (a, b))
        with pytest.raises(ValueError, match="second derivative is not finite"):
            curvature(f, a, b)
        with pytest.raises(ValueError, match="second derivative is not finite"):
            optimized_partition(f, a, b, 4)


def test_rounding_residue_line_has_zero_curvature():
    # 1/(1/x) is x, but its jet f'' is rounding residue of either sign,
    # which no tolerance resolves; its f' is 1 to rounding, so it is a line.
    f = expression("1/(1/x)", (1.0, 2.0))
    assert np.max(np.abs(f.d2(np.linspace(1.0, 2.0, 101)))) > 0.0
    assert curvature(f, 1.0, 2.0) == Curvature(0.0, 0.0, (1.0, 2.0))
    with pytest.raises(LinearTargetError):
        optimized_partition(f, 1.0, 2.0, 4)
    # Beside a curved component it drops out of the sum.
    F = VectorTargetFunction(components=(f, quadratic((1.0, 2.0))))
    assert curvature(F, 1.0, 2.0) == curvature(quadratic((1.0, 2.0)), 1.0, 2.0)


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


def _phi(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _poly7_total():
    """Sum of |f'(q) - f'(p)| between neighbouring real roots of f'' (and
    the ends), on which f'' keeps one sign."""
    d1 = np.polynomial.Polynomial.fromroots((-4.0, -3.0, -2.5, 0.0, 1.5, 2.0, 3.0)).deriv()
    r = d1.deriv().roots()
    r = np.sort(r.real[(r.imag == 0.0) & (r.real > -4.0) & (r.real < 3.0)])
    return float(np.sum(np.abs(np.diff(d1(np.concatenate([[-4.0], r, [3.0]]))))))


@pytest.mark.parametrize(
    "f, a, b, total, density",
    [
        (quadratic(), 0.0, 1.0, 2.0, 2.0 ** (1.0 / 3.0)),
        (cubic(), 0.0, 1.0, 3.0, 0.75 * 6.0 ** (1.0 / 3.0)),
        (cubic((-1.0, 1.0)), -1.0, 1.0, 6.0, 1.5 * 6.0 ** (1.0 / 3.0)),
        (gaussian(), 0.0, 4.0, 2.0 * _phi(1.0) - 4.0 * _phi(4.0), None),
        (gaussian((0.0, 8.0)), 0.0, 8.0, 2.0 * _phi(1.0) - 8.0 * _phi(8.0), None),
        (poly7(), -4.0, 3.0, _poly7_total(), None),
    ],
    ids=["quadratic", "cubic01", "cubic-11", "gaussian04", "gaussian08", "poly7"],
)
def test_curvature_closed_forms(f, a, b, total, density):
    # The integrals are cut at the zeros of f'' (x = 1 for the gaussian, 0
    # for x^3, an interval end for x^3 on [0, 1]) and mapped there; these
    # pin the sign of each piece and the change of variable.
    c = curvature(f, a, b)
    assert abs(c.total - total) <= 1e-12 * total
    if density is not None:
        assert abs(c.density - density) <= 1e-12 * density


WORK_TARGETS = {
    "gaussian": (gaussian(), 0.0, 4.0),
    "chirp": (chirp(), 0.0, 1.0),
    "poly7": (poly7(), -4.0, 3.0),
    "gaussian14": (gaussian((1.0, 4.0)), 1.0, 4.0),
    "cubic-11": (cubic((-1.0, 1.0)), -1.0, 1.0),
    "cubic01": (cubic(), 0.0, 1.0),
}


@pytest.mark.parametrize("name", list(WORK_TARGETS))
def test_curvature_integrals_converge_in_few_levels(batches, name):
    # Cut at the zeros of f'', where |f''| has a kink and its cube root a
    # cusp, every piece is smooth: uncut, each integral bisected about 30
    # levels into them (44 to 76 batches per curvature call).
    f, a, b = WORK_TARGETS[name]
    assert batches(curvature, f, a, b) <= 20
    assert batches(optimized_partition, f, a, b, 255) <= 40


def _plan_verify_interpolants(monkeypatch, seed):
    """(target, interpolant) of every case of one plan_verify seed, built as
    the benchmark builds them; a vector case gives one per component."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    monkeypatch.setattr(workloads, "warm_up", lambda: None)
    for case in workloads.PlanVerify(seed).cases:
        a, b = case.interval
        if case.family == "vector":
            F = VectorTargetFunction(
                tuple(getattr(functions, name)(*args) for name, args in case.components)
            )
            unit = vector.vector_bound_optimized_interpolant(F, a, b, 1)
            p = vector.vector_optimized_partition(F, a, b, math.ceil(math.sqrt(unit / case.tau)))
            yield from zip(F.components, vector.vector_interpolant(F, p))
        else:
            interval = None if case.family == "poly7" else case.interval
            f = cli.FunctionSpec.parse(case.function, interval).resolve()
            n = curvature(f, a, b).counts(case.tau)["optimized_interpolant"]
            yield f, interpolant(f, optimized_partition(f, a, b, n))


def test_l1_distance_cuts_an_interior_crossing_at_its_root(batches):
    # f - g crosses zero once inside a segment, in segment 20 at 0.72 of
    # its width.  Bisected toward the kink floor that crossing took 26
    # batches, and 9 where the quadrature cut its panels there; integrated
    # between the located crossings, every piece is smooth and takes 3.
    f = gaussian()
    g = interpolant(f, optimized_partition(f, 0.0, 4.0, 61))
    assert batches(l1_distance, f, g) <= 4


def test_fit_crossings_find_the_lobe_beside_a_knot():
    # plan_verify seed 2's chirp.  On the equalized interpolant at N = 974,
    # e = 0 at every knot, and segment 563's crossing lies between its last
    # sample and its right knot.  A root search stepping from e = 0 there
    # landed in the rounding of e next to the knot and missed the lobe:
    # the cost read 3.9e-9 below the L1 distance.
    b = 0.892282428715
    f = chirp((0.0, b))
    g = interpolant(f, optimized_partition(f, 0.0, b, 974))
    p, v = g.partition, g.ordinates
    cost = fit._cost(f, p, v, fit._crossings(f, p, v, fit.SAMPLES))
    assert abs(cost - l1_distance(f, g)) <= 1e-12 * cost


def test_l1_distance_agrees_with_the_fit_cost_between_crossings(monkeypatch):
    # One integral of |f - g| from one crossing search on two sets of piece
    # ends: one step per segment (l1_distance) and the fit's SAMPLES.  On seed
    # 2 the cubic at N = 150 once read 3.6e-11 apart (a lobe beside a knot
    # where e = 0 exactly).
    gaps = []
    for f, g in _plan_verify_interpolants(monkeypatch, 2):
        p, v = g.partition, g.ordinates
        cost = fit._cost(f, p, v, fit._crossings(f, p, v, fit.SAMPLES))
        gaps.append(abs(l1_distance(f, g) - cost))
    assert len(gaps) == 28
    assert max(gaps) <= 1e-12

