"""Uniform and curvature-equalized knot placement."""

import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cubic, linear, quadratic
from polylin import partition
from polylin.analysis import per_interval_errors
from polylin.core import TargetFunction
from polylin.fit import interpolant
from polylin.functions import chirp, expression, gaussian, poly7, polynomial
from polylin.partition import (
    LinearTargetError,
    _enforce_spacing,
    build_distribution,
    invert_distribution,
    knot_density,
    optimized_partition,
    uniform_partition,
)


def test_uniform_partition_values():
    p = uniform_partition(0.0, 4.0, 4)
    assert np.array_equal(p.knots, [0.0, 1.0, 2.0, 3.0, 4.0])
    assert p.is_uniform
    q = uniform_partition(-2.0, 2.0, 8)
    assert len(q) == 9
    assert np.allclose(q.widths, 0.5, atol=0.0)
    assert uniform_partition(0.0, 1.0, 1).n_segments == 1


def test_uniform_partition_validation():
    with pytest.raises(ValueError):
        uniform_partition(1.0, 0.0, 4)
    with pytest.raises(ValueError):
        uniform_partition(0.0, 1.0, 0)
    for n in (2.5, 4.0, True):
        with pytest.raises(ValueError, match="integer"):
            uniform_partition(0.0, 1.0, n)
    assert uniform_partition(0.0, 4.0, np.int64(4)).n_segments == 4


def test_knot_density_closed_forms():
    f = quadratic()
    xs = np.linspace(0.0, 1.0, 11)
    assert np.max(np.abs(knot_density(f, xs) - 2.0 ** (1.0 / 3.0))) <= 1e-14
    g = cubic()
    assert abs(float(knot_density(g, 1.0)) - 6.0 ** (1.0 / 3.0)) <= 1e-14
    assert float(knot_density(g, 0.0)) == 0.0
    assert np.all(knot_density(linear(), xs) == 0.0)


def test_distribution_of_quadratic_is_identity():
    dist = build_distribution(quadratic(), 0.0, 1.0)
    assert abs(dist.value(0.0)) <= 1e-12
    assert abs(dist.value(1.0) - 1.0) <= 1e-12
    for x in (0.125, 0.3, 0.5, 0.9):
        assert abs(dist.value(x) - x) <= 1e-9


def test_distribution_of_cubic_is_four_thirds_power():
    dist = build_distribution(cubic(), 0.0, 1.0)
    for x in (0.2, 0.5, 0.75):
        assert abs(dist.value(x) - x ** (4.0 / 3.0)) <= 1e-9


def test_distribution_value_rejects_nan():
    dist = build_distribution(gaussian(), 0.0, 4.0)
    for x in (np.nan, [1.0, np.nan], -0.5):
        with pytest.raises(ValueError, match="outside the tabulated interval"):
            dist.value(x)


def test_distribution_invariants():
    dist = build_distribution(gaussian(), 0.0, 4.0)
    assert dist.grid[0] == 0.0 and dist.grid[-1] == 4.0
    assert dist.normalizer > 0.0
    assert np.all(np.diff(dist.cumulative) >= 0.0)
    xs = np.linspace(0.0, 4.0, 41)
    vals = np.array([dist.value(x) for x in xs])
    assert np.all(np.diff(vals) >= -1e-12)


def test_linear_target_is_rejected():
    with pytest.raises(LinearTargetError):
        build_distribution(linear(), 0.0, 1.0)
    with pytest.raises(LinearTargetError):
        optimized_partition(linear(), 0.0, 1.0, 8)


def test_constant_curvature_gives_uniform_knots():
    p = optimized_partition(quadratic(), 0.0, 1.0, 8)
    assert np.max(np.abs(p.knots - np.linspace(0.0, 1.0, 9))) <= 1e-9


def test_cubic_knots_follow_inverse_power_law():
    # F(x) = x^{4/3} on [0, 1], so the equalized knots are (i/N)^{3/4}.
    p = optimized_partition(cubic(), 0.0, 1.0, 4)
    expected = (np.arange(5) / 4.0) ** 0.75
    assert np.max(np.abs(p.knots - expected)) <= 1e-9


def test_knots_invert_the_distribution():
    f = gaussian()
    dist = build_distribution(f, 0.0, 4.0)
    for n, bound in ((31, 1e-10), (4096, 1e-11)):
        p = optimized_partition(f, 0.0, 4.0, n)
        worst = np.max(np.abs(dist.value(p.knots) - np.arange(n + 1) / n))
        assert worst <= bound, (n, worst)
        assert p.a == 0.0 and p.b == 4.0


# Interior equalized knots to 30 digits, computed with mpmath 1.3.0 at 40
# digits: the cumulative of |f''|^(1/3) integrated by tanh-sinh between
# the zeros of f'', and each knot a bracketed root (Anderson-Bjorck) of
# cumulative = i/N * total inside the piece that holds it.  A run at 50
# digits gives the same 30 digits.
REFERENCE_KNOTS = {
    ("gaussian", 0.0, 4.0, 31): (
        "0.0769593244648777922386984555553", "0.154380648110446793876359359162", "0.232757608076285926973070173367",
        "0.312654161413863237454955809012", "0.394760852022205763744026089623", "0.479989501794758495594304055303",
        "0.569656443753736236682809914012", "0.665901618437177970920798126082", "0.772922997117446811030690898101",
        "0.903180530966990917978423774494", "1.10868583021123252734635536765", "1.24292093201767480645425834045",
        "1.35839131603654605683375077008", "1.46590606560564696133130955141", "1.56930378958259036676562994475",
        "1.67064648612077979168240817564", "1.77130487658833930979349278404", "1.87233761248250623634784468941",
        "1.97466597165088101032534202638", "2.07917491028426259954804516499", "2.18678713005169153680871827276",
        "2.29853243140883521596101504141", "2.41562808354449493363791501147", "2.53958766470918692600056662607",
        "2.6723853483941113924539347158", "2.81672577437681651175137832902", "2.97652459156300260285982457429",
        "3.15784648579572870714667655621", "3.37096679896418217783390646084", "3.63573924981914322656599477478",
    ),
    ("gaussian", 0.0, 8.0, 16): (
        "0.157308489900765426586830541356", "0.318744952758317779757283384519", "0.489856442194045395935150867748",
        "0.681164814929148821729375301236", "0.934137573319397404557702199056", "1.27001597883829322289181902902",
        "1.49343032246097773753880276439", "1.70095882827258542386366511512", "1.90679302197124146981768316009",
        "2.11924021794882992593186267645", "2.34625936193070510886071860039", "2.59829963059738889628447041306",
        "2.89263201837400988009218843959", "3.26519540047798720843071501777", "3.82340340852912434024984261666",
    ),
    ("chirp", 0.0, 1.0, 16): (
        "0.135465683318030942059541735252", "0.249009732922782868939104835891", "0.343519922493911404204554661939",
        "0.408404708744638325052352056658", "0.481809052735089910744816911902", "0.534388115334352997324473748955",
        "0.59460604151220379731731719129", "0.651386701708148716228110029762", "0.695037482165475695279635854632",
        "0.745587085809732165306906821093", "0.794606868030730428360872697511", "0.835746282925793798267954410559",
        "0.877331210847957729187356696909", "0.921087575450573189840720408431", "0.963179080564668878523797930359",
    ),
}


@pytest.mark.parametrize("name, a, b, n", sorted(REFERENCE_KNOTS))
def test_equalized_knots_match_high_precision_references(name, a, b, n):
    f = {"gaussian": gaussian, "chirp": chirp}[name]((a, b))
    knots = optimized_partition(f, a, b, n).knots
    exact = np.array([a, *map(float, REFERENCE_KNOTS[name, a, b, n]), b])
    assert np.max(np.abs(knots - exact)) <= 1e-13 * (b - a)


def test_prepared_distribution_serves_every_n():
    # A distribution built once gives the knots that the target gives, and
    # is refused on another interval.
    f = gaussian()
    dist = build_distribution(f, 0.0, 4.0)
    for n in (1, 8, 31):
        assert np.array_equal(optimized_partition(dist, 0.0, 4.0, n).knots, optimized_partition(f, 0.0, 4.0, n).knots)
    with pytest.raises(ValueError, match="tabulated on"):
        optimized_partition(dist, 0.0, 3.0, 8)


def test_table_grid_is_the_pass_panels():
    # The table's cells are the panels the curvature pass accepted: at
    # least four per pass panel (two forced bisections), strictly
    # increasing, and every zero of f'' is a cell end.
    f = chirp()
    dist = build_distribution(f, 0.0, 1.0)
    assert dist.grid.size - 1 >= 4 * partition.PASS_PANELS
    assert np.all(np.diff(dist.grid) > 0.0)
    assert dist.grid[0] == 0.0 and dist.grid[-1] == 1.0
    assert np.all(np.isin(dist.zeros, dist.grid))
    assert np.all(np.diff(dist.cumulative) >= 0.0)


@pytest.mark.parametrize(
    "f, a, b",
    [
        (gaussian(), 0.0, 4.0),
        (chirp(), 0.0, 1.0),
        (poly7(), -4.0, 3.0),
        (expression("exp(-0.9*x)*sin(2.5*x)", (0.0, 3.0)), 0.0, 3.0),
        (expression("1/(1+3.0*x^2)", (-2.0, 2.0)), -2.0, 2.0),
        (expression("sqrt(x+0.6)", (0.0, 2.0)), 0.0, 2.0),
    ],
)
@pytest.mark.parametrize("n", [31, 4096])
def test_inversion_round_budget(monkeypatch, f, a, b, n):
    # The inversion integrates nothing: each knot is the root of its table
    # cell's own polynomial, which the curvature pass already paid for.
    # Reading the distribution back at the knots gives the targets.
    dist = build_distribution(f, a, b)
    monkeypatch.setattr(partition, "integrate_segments", None)
    targets = np.arange(1, n) / n
    knots = invert_distribution(dist, targets)
    assert np.all(np.diff(knots) > 0.0)
    assert np.max(np.abs(dist.value(knots) - targets)) <= 1e-14


@pytest.mark.parametrize("n", [31, 511])
def test_expression_knots_equal_the_closed_form_knots(n):
    # The jets of exp(-x^2/2)/sqrt(2*pi) give the gaussian's f'' to the
    # last bit, so the equalized knots are the same floats.
    e = expression("exp(-x^2/2)/sqrt(2*pi)", (0.0, 4.0))
    knots = optimized_partition(e, 0.0, 4.0, n).knots
    assert np.array_equal(knots, optimized_partition(gaussian(), 0.0, 4.0, n).knots)


@pytest.mark.parametrize("n", [2, 3, 4, 7, 64])
def test_inversion_through_density_cusp(n):
    # f = x^3 on [-1, 1]: the density |6x|^(1/3) has a cube-root cusp at
    # 0, where the derivative of the cumulative vanishes.  F(x) is
    # (1 + sign(x)|x|^(4/3))/2, so knot i sits at sign(s)|s|^(3/4) with
    # s = 2i/N - 1; for even N one target lies on the cusp itself.
    p = optimized_partition(polynomial((0.0, 0.0, 0.0, 1.0), (-1.0, 1.0)), -1.0, 1.0, n)
    s = 2.0 * np.arange(n + 1) / n - 1.0
    assert np.max(np.abs(p.knots - np.sign(s) * np.abs(s) ** 0.75)) <= 1e-13


@pytest.mark.parametrize("n", [8, 16, 64])
def test_knots_on_zeros_of_the_second_derivative(n):
    # f'' = -1e-9 (64 pi)^2 sin(64 pi x): every density lobe carries the
    # same mass, so knot i sits at i/N, on a zero of f''.  The cumulative
    # is flat to fourth order in the pass's variable there, so a knot solved
    # from a cumulative that is only rounded would miss by ~1e-13; one
    # within PLATEAU_SLACK of a table point lands on it.
    e = expression("x+1e-9*sin(64*pi*x)", (0.0, 1.0))
    knots = optimized_partition(e, 0.0, 1.0, n).knots
    assert np.max(np.abs(knots - np.arange(n + 1) / n)) <= 1e-15


def test_failed_pass_on_an_unbounded_second_derivative_is_not_finite(monkeypatch):
    # |f''| growing without bound towards 0.3 (between grid points) makes a
    # failed curvature pass a non-finite f''; a bounded f'', smooth or with
    # a jump, leaves the quadrature's own failure standing.
    singular = expression("((x-0.3)^2)^0.75", (0.0, 1.0))
    assert partition._unbounded(singular, 0.0, 1.0)
    for bounded, a, b in ((gaussian(), 0.0, 4.0), (_plateau(1.0, 2.0, (0.0, 3.0)), 0.0, 3.0)):
        assert not partition._unbounded(bounded, a, b)

    def fails(*args, **kwargs):
        raise partition.QuadratureError("residual error above tolerance")

    monkeypatch.setattr(partition, "_split_integral", fails)
    with pytest.raises(partition.QuadratureError):
        build_distribution(gaussian(), 0.0, 4.0)
    with pytest.raises(ValueError, match="second derivative is not finite"):
        build_distribution(singular, 0.0, 1.0)


def _plateau(lo, hi, domain):
    """A C^1 target whose f'' is 2 off the band [lo, hi] and 0 on it: with
    t = x - a, f = t^2 up to lo, its tangent line across the band, then
    the same parabola moved right by hi - lo."""
    a = domain[0]
    edge, width = lo - a, hi - lo

    def val(x):
        t = np.asarray(x, dtype=float) - a
        line = 2.0 * edge * t - edge * edge
        return np.where(t < edge, t * t, np.where(t <= edge + width, line, (t - width) ** 2 + 2.0 * edge * width))

    def d1(x):
        t = np.asarray(x, dtype=float) - a
        return np.where(t < edge, 2.0 * t, np.where(t <= edge + width, 2.0 * edge, 2.0 * (t - width)))

    def d2(x):
        x = np.asarray(x, dtype=float)
        return np.where((x < lo) | (x > hi), 2.0, 0.0)

    return TargetFunction(eval=val, second_derivative=d2, domain=domain, first_derivative=d1)


def test_plateau_resolves_to_left_edge():
    # Curvature vanishes on the middle band, so the distribution is flat
    # there; the inverse must pick the leftmost point of the plateau.
    f = _plateau(1.0, 2.0, (0.0, 3.0))
    p = optimized_partition(f, 0.0, 3.0, 2)
    assert abs(p.knots[1] - 1.0) <= 1e-6


def test_plateau_far_from_origin_terminates():
    # At 1e6, 1e-12 (b - a) is below the float spacing, so the bracket on
    # the flat stretch closes on adjacent floats rather than by width.
    a = 1e6
    f = _plateau(a + 0.25, a + 0.75, (a, a + 1.0))

    def stuck(signum, frame):
        raise TimeoutError("the inversion did not terminate")

    # A bracket that waits to shrink below the float spacing never stops;
    # the alarm turns that into a failure instead of a hung suite.
    previous = signal.signal(signal.SIGALRM, stuck)
    signal.alarm(30)
    try:
        p = optimized_partition(f, a, a + 1.0, 2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert abs(p.knots[1] - (a + 0.25)) <= 1e-6


def test_interpolation_errors_are_equalized():
    f = TargetFunction(
        eval=lambda x: np.exp(np.asarray(x, dtype=float)),
        second_derivative=lambda x: np.exp(np.asarray(x, dtype=float)),
        domain=(0.0, 2.0),
        first_derivative=lambda x: np.exp(np.asarray(x, dtype=float)),
    )
    p = optimized_partition(f, 0.0, 2.0, 127)
    errs = per_interval_errors(f, interpolant(f, p))
    assert errs.min() > 0.0
    assert errs.max() / errs.min() <= 2.0


def test_invert_distribution_midpoint_targets():
    dist = build_distribution(quadratic(), 0.0, 1.0)
    xs = invert_distribution(dist, np.array([0.25, 0.5, 0.75]))
    assert np.max(np.abs(xs - [0.25, 0.5, 0.75])) <= 1e-9


def test_spacing_guard_preserves_order_and_ends():
    knots = np.array([0.0, 1e-15, 2e-15, 1.0])
    fixed = _enforce_spacing(knots)
    assert fixed[0] == 0.0 and fixed[-1] == 1.0
    assert np.all(np.diff(fixed) > 0.0)


def _enforce_spacing_loops(knots):
    """The spacing guard as two plain loops: the reference for its fast path."""
    eps = partition.MIN_SPACING * (knots[-1] - knots[0])
    out = knots.copy()
    for i in range(1, out.size):
        if out[i] < out[i - 1] + eps:
            out[i] = out[i - 1] + eps
    for i in range(out.size - 2, 0, -1):
        if out[i] > out[i + 1] - eps:
            out[i] = out[i + 1] - eps
    out[0] = knots[0]
    out[-1] = knots[-1]
    return out


@settings(deadline=None, max_examples=60)
@given(
    st.lists(
        st.one_of(
            st.floats(0.0, 1.0),
            # Offsets of a few MIN_SPACING put neighbours inside the guard.
            st.integers(0, 4).map(lambda k: 0.5 + k * 0.7e-12),
        ),
        min_size=2,
        max_size=40,
    ),
    st.floats(-1e3, 1e3),
    st.floats(1e-3, 1e3),
)
def test_spacing_guard_matches_loops(points, shift, scale):
    knots = shift + scale * np.sort(np.concatenate([[0.0, 1.0], points]))
    fixed = _enforce_spacing(knots)
    assert np.array_equal(fixed, _enforce_spacing_loops(knots))


def test_optimized_partition_validation():
    with pytest.raises(ValueError):
        optimized_partition(quadratic(), 0.0, 1.0, 0)
    with pytest.raises(ValueError, match="integer"):
        optimized_partition(gaussian(), 0.0, 4.0, 2.5)
    with pytest.raises(ValueError):
        optimized_partition(quadratic(domain=(0.0, 1.0)), 0.5, 0.2, 4)
