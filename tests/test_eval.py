"""Evaluator modes, kernels, and the timing harness."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polylin._kernels import backend
from polylin.core import Partition, PolygonalFunction
from polylin.evaluate import Evaluator, bench, evaluate, evaluate_batch, make_evaluator
from polylin.partition import uniform_partition


def _hat():
    return PolygonalFunction(uniform_partition(0.0, 1.0, 2), np.array([0.0, 1.0, 0.0]))


def _random_polygonal(rng, n=9, span=(0.0, 4.0)):
    a, b = span
    interior = np.sort(rng.uniform(a + 0.05 * (b - a), b - 0.05 * (b - a), n - 1))
    knots = np.concatenate([[a], interior, [b]])
    return PolygonalFunction(Partition(knots), rng.standard_normal(n + 1))


def test_midpoint_example():
    e = make_evaluator(_hat())
    assert evaluate(e, 0.25) == 0.5
    assert evaluate(e, 0.5) == 1.0
    assert evaluate(e, 1.0) == 0.0


def test_knot_exactness_both_modes():
    rng = np.random.default_rng(2)
    g = _random_polygonal(rng)
    e_search = make_evaluator(g, "binary_search")
    assert np.array_equal(evaluate_batch(e_search, g.partition.knots), g.ordinates)
    u = PolygonalFunction(uniform_partition(0.0, 1.0, 4), rng.standard_normal(5))
    e_direct = make_evaluator(u, "uniform_direct")
    assert np.array_equal(evaluate_batch(e_direct, u.partition.knots), u.ordinates)


def test_modes_agree_on_uniform_partition():
    rng = np.random.default_rng(3)
    g = PolygonalFunction(uniform_partition(-1.0, 3.0, 17), rng.standard_normal(18))
    xs = rng.uniform(-1.0, 3.0, 10_000)
    direct = evaluate_batch(make_evaluator(g, "uniform_direct"), xs)
    searched = evaluate_batch(make_evaluator(g, "binary_search"), xs)
    scale = np.max(np.abs(g.ordinates))
    assert np.max(np.abs(direct - searched)) <= 1e-12 * scale


def test_batch_matches_scalar_loop():
    rng = np.random.default_rng(5)
    for g in (
        PolygonalFunction(uniform_partition(0.0, 4.0, 31), rng.standard_normal(32)),
        _random_polygonal(rng, n=31),
    ):
        e = make_evaluator(g)
        xs = rng.uniform(0.0, 4.0, 1_000_000)
        batch = evaluate_batch(e, xs)
        loop = np.array([evaluate(e, x) for x in xs[:2000]])
        assert np.array_equal(batch[:2000], loop)
        assert np.all(np.isfinite(batch))


def test_segment_lookup_against_linear_scan():
    rng = np.random.default_rng(7)
    g = _random_polygonal(rng, n=13)
    knots, v = g.partition.knots, g.ordinates
    e = make_evaluator(g, "binary_search")
    for x in rng.uniform(0.0, 4.0, 1000):
        i = 1
        while i < knots.size - 1 and x >= knots[i]:
            i += 1
        d = (x - knots[i - 1]) / (knots[i] - knots[i - 1])
        assert evaluate(e, x) == (1.0 - d) * v[i - 1] + d * v[i]


def test_out_of_domain_policies():
    g = _hat()
    strict = make_evaluator(g, out_of_domain="error")
    with pytest.raises(ValueError, match="outside"):
        evaluate(strict, 1.5)
    with pytest.raises(ValueError, match="index 1"):
        evaluate_batch(strict, np.array([0.5, -0.1, 0.2]))
    with pytest.raises(ValueError, match="x=1.5 at index 3"):  # flat index of a 2-D batch
        evaluate_batch(strict, np.array([[0.5, 0.2], [0.3, 1.5]]))
    clamped = make_evaluator(g, out_of_domain="clamp")
    assert evaluate(clamped, -3.0) == 0.0
    assert evaluate(clamped, 7.0) == 0.0
    assert np.array_equal(evaluate_batch(clamped, np.array([-1.0, 2.0])), [0.0, 0.0])


@settings(deadline=None, max_examples=40)
@given(
    st.integers(0, 2**31 - 1),
    st.sampled_from(["uniform_direct", "binary_search"]),
    st.sampled_from(["error", "clamp"]),
    st.integers(1, 40),
)
def test_nan_is_out_of_domain_under_both_policies(seed, mode, policy, size):
    rng = np.random.default_rng(seed)
    g = PolygonalFunction(uniform_partition(0.0, 1.0, 8), rng.standard_normal(9))
    e = make_evaluator(g, mode, out_of_domain=policy)
    xs = rng.uniform(0.0, 1.0, size)
    bad = int(rng.integers(0, size))
    xs[bad:] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"x=nan at index {bad} outside"):
            evaluate_batch(e, xs)
        with pytest.raises(ValueError, match="x=nan outside"):
            evaluate(e, float("nan"))
        with pytest.raises(ValueError, match="x=nan outside"):
            e(np.float64("nan"))


def test_continuity_at_interior_knots():
    rng = np.random.default_rng(11)
    g = _random_polygonal(rng)
    e = make_evaluator(g)
    eps = 1e-9
    for i in range(1, g.partition.n_segments):
        x = g.partition.knots[i]
        slopes = np.diff(g.ordinates) / g.partition.widths
        jump = abs(evaluate(e, x + eps) - evaluate(e, x - eps))
        assert jump <= (abs(slopes[i - 1]) + abs(slopes[i])) * eps + 1e-12


def test_mode_selection_and_validation():
    rng = np.random.default_rng(13)
    uniform = PolygonalFunction(uniform_partition(0.0, 1.0, 4), rng.standard_normal(5))
    skewed = _random_polygonal(rng, n=4, span=(0.0, 1.0))
    assert make_evaluator(uniform).mode == "uniform_direct"
    assert make_evaluator(skewed).mode == "binary_search"
    with pytest.raises(ValueError, match="uniform"):
        make_evaluator(skewed, "uniform_direct")
    with pytest.raises(ValueError, match="mode"):
        make_evaluator(uniform, "hash_table")
    with pytest.raises(ValueError, match="out-of-domain"):
        Evaluator(uniform, "uniform_direct", "wrap")


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**31 - 1), st.integers(2, 12))
def test_values_stay_inside_ordinate_hull(seed, n):
    rng = np.random.default_rng(seed)
    g = PolygonalFunction(uniform_partition(0.0, 1.0, n), rng.uniform(-1.0, 1.0, n + 1))
    xs = rng.uniform(0.0, 1.0, 257)
    out = evaluate_batch(make_evaluator(g), xs)
    assert np.all(out >= np.min(g.ordinates) - 1e-15)
    assert np.all(out <= np.max(g.ordinates) + 1e-15)


def test_bench_validation_and_determinism():
    e = make_evaluator(_hat())
    with pytest.raises(ValueError, match="at least"):
        bench(e, 1000, seed=0)
    r1 = bench(e, 100_000, seed=42)
    r2 = bench(e, 100_000, seed=42)
    assert r1.checksum == r2.checksum
    assert r1.mode == "uniform_direct"
    assert r1.backend == backend() == "numpy"
    assert 0.0 < r1.min_ns <= r1.mean_ns
