"""Evaluator modes, kernels, and the timing harness."""

import importlib
import os
import signal
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import searched_values
from polylin._kernels import backend
from polylin.core import Partition, PolygonalFunction
from polylin.evaluate import (
    BLOCK,
    MIN_BENCH_EVALS,
    Evaluator,
    bench,
    evaluate,
    evaluate_batch,
    make_evaluator,
)
from polylin.functions import gaussian
from polylin.partition import optimized_partition, uniform_partition

# The package exports a function named evaluate, which shadows the module.
evaluate_module = importlib.import_module("polylin.evaluate")


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
    u = PolygonalFunction(uniform_partition(0.0, 1.0, 4), rng.standard_normal(5))
    # At x_N, v[N-1] + (v[N] - v[N-1]) is 0.7 + (1e-20 - 0.7) = 0, and on
    # the second set of knots x_N - x_{N-1} = 1 + 1e-17 rounds to 1, so a
    # difference form that puts x_N in segment N - 1 misses v[N] = 1e-20.
    steps = PolygonalFunction(uniform_partition(0.0, 1.0, 2), [0.3, 0.7, 1e-20])
    inexact = PolygonalFunction(Partition([-3.0, -1e-17, 1.0]), [0.3, 0.7, 1e-20])
    for g, mode in (
        (_random_polygonal(rng), "binary_search"),
        (u, "uniform_direct"),
        (steps, "uniform_direct"),
        (steps, "binary_search"),
        (inexact, "binary_search"),
    ):
        e = make_evaluator(g, mode)
        knots = g.partition.knots
        assert np.array_equal(evaluate_batch(e, knots), g.ordinates), (knots, mode)
        assert [evaluate(e, x) for x in knots] == list(g.ordinates), (knots, mode)


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
        slope = (v[i] - v[i - 1]) / (knots[i] - knots[i - 1])
        assert evaluate(e, x) == v[i - 1] + (x - knots[i - 1]) * slope


INTERVALS = ((0.0, 1.0), (-3.0, 5.0), (1e6, 1e6 + 1e-3))


def _graded_knots(rng, n, ratio, monotone, a, b):
    """Knots on [a, b] whose widths span ``ratio``: spread at random, or
    growing from left to right.  Knots that round onto a neighbour are
    dropped, so far from the origin fewer segments may remain."""
    widths = ratio ** rng.uniform(0.0, 1.0, n)
    if monotone:
        widths.sort()
    interior = a + (b - a) * (np.cumsum(widths)[:-1] / widths.sum())
    interior = np.unique(interior[(interior > a) & (interior < b)])
    return np.concatenate([[a], interior, [b]])


@settings(deadline=None, max_examples=60)
@given(
    st.integers(0, 2**31 - 1),
    st.integers(1, 5000),
    st.floats(0.0, 6.0),
    st.booleans(),
    st.sampled_from(INTERVALS),
    st.sampled_from(["error", "clamp"]),
)
def test_guide_table_matches_binary_search(seed, n, log_ratio, monotone, interval, policy):
    rng = np.random.default_rng(seed)
    a, b = interval
    knots = _graded_knots(rng, n, 10.0**log_ratio, monotone, a, b)
    g = PolygonalFunction(Partition(knots), rng.standard_normal(knots.size))
    e = make_evaluator(g, "binary_search", out_of_domain=policy)
    guide = e._table
    edges = a + np.arange(guide.first.size) / guide.scale
    base = np.concatenate([rng.uniform(a, b, 1000), knots, edges[edges <= b]])
    xs = np.concatenate([base, np.nextafter(base, -np.inf), np.nextafter(base, np.inf)])
    if policy == "error":
        xs = xs[(xs >= a) & (xs <= b)]
    inside = np.clip(xs, a, b)
    want = np.searchsorted(knots, inside, side="right") - 1  # x_N: the sentinel N
    assert np.array_equal(guide.segments(inside), want)
    ys = evaluate_batch(e, xs)
    assert np.array_equal(ys, searched_values(knots, g.ordinates, inside))
    for j in rng.choice(xs.size, 200):
        assert evaluate(e, xs[j]) == ys[j]


def test_strongly_graded_knots_take_the_search_path():
    rng = np.random.default_rng(17)
    knots = _graded_knots(rng, 4000, 1e6, True, 0.0, 1.0)
    g = PolygonalFunction(Partition(knots), rng.standard_normal(knots.size))
    e = make_evaluator(g)
    assert e._table.crowded is not None
    xs = np.concatenate([rng.uniform(0.0, 1.0, 10_000), knots])
    assert np.array_equal(evaluate_batch(e, xs), searched_values(knots, g.ordinates, xs))
    assert [evaluate(e, x) for x in knots] == list(g.ordinates)


def test_subnormal_span_searches_every_point():
    # m / span overflows, so the table has one cell holding every knot, and
    # every slope overflows, so every point takes the convex form.
    knots = np.array([0.0, 1e-310, 2.5e-310, 3e-310])
    g = PolygonalFunction(Partition(knots), [1.0, 2.0, 3.0, 4.0])
    e = make_evaluator(g, "binary_search")
    xs = np.concatenate([knots, [0.5e-310, 1.5e-310, 2.7e-310]])
    assert np.array_equal(e._table.segments(xs), np.searchsorted(knots, xs, side="right") - 1)
    assert np.array_equal(evaluate_batch(e, knots), g.ordinates)
    inside = evaluate_batch(e, xs[4:])
    assert np.all(np.isfinite(inside))
    assert np.array_equal(inside, searched_values(knots, g.ordinates, xs[4:]))
    assert [evaluate(e, x) for x in xs[4:]] == list(inside)


@pytest.mark.parametrize("mode", ["uniform_direct", "binary_search"])
def test_overflowing_differences_take_the_convex_form(mode):
    # v[k+1] - v[k] overflows on both segments, so the table marks them
    # steep and their points take d*v[k+1] + (1 - d)*v[k].
    g = PolygonalFunction(uniform_partition(0.0, 1.0, 2), [1e308, -1e308, 1.5e308])
    e = make_evaluator(g, mode)
    assert e._table.steep is not None
    xs = np.linspace(0.0, 1.0, 101)
    got = evaluate_batch(e, xs)
    assert np.array_equal(got[::50], g.ordinates)
    ref = searched_values(g.partition.knots, g.ordinates, xs)
    assert np.all(np.abs(got - ref) <= 1e-12 * 1.5e308)
    assert [evaluate(e, x) for x in xs] == list(got)


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


@pytest.mark.parametrize("mode", ["uniform_direct", "binary_search"])
@pytest.mark.parametrize("policy", ["error", "clamp"])
def test_zero_dimensional_batch_stays_zero_dimensional(mode, policy):
    e = make_evaluator(_hat(), mode, out_of_domain=policy)
    for x in (0.25, np.float64(0.25), np.array(0.25)):
        got = evaluate_batch(e, x)
        assert isinstance(got, np.ndarray) and got.shape == ()
        assert got == evaluate(e, 0.25) == 0.5
    with pytest.raises(ValueError, match="x=nan at index 0 outside"):
        evaluate_batch(e, np.nan)


@pytest.mark.parametrize("mode", ["uniform_direct", "binary_search"])
def test_error_policy_on_empty_and_trailing_nan_batches(mode):
    strict = make_evaluator(_hat(), mode, out_of_domain="error")
    assert evaluate_batch(strict, np.array([])).shape == (0,)
    assert evaluate_batch(strict, np.empty((0, 3))).shape == (0, 3)
    with pytest.raises(ValueError, match="x=nan at index 3 outside"):
        evaluate_batch(strict, np.array([0.0, 0.5, 1.0, np.nan]))
    with pytest.raises(ValueError, match="x=-0.5 at index 1 outside"):
        evaluate_batch(strict, np.array([0.0, -0.5, np.nan]))


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
    # Every timed batch takes the threaded path, on every worker.
    assert MIN_BENCH_EVALS > BLOCK
    assert r1.workers == evaluate_module._WORKERS >= 1


# -- large batches run BLOCK points at a time ---------------------------------

LARGE = 3 * BLOCK + 7
LARGE_ROWS = next(d for d in range(2, 100) if LARGE % d == 0)  # 2-D layouts of LARGE points
BLOCK_SIZES = (BLOCK - 1, BLOCK, BLOCK + 1, LARGE)


def _block_cases():
    """Evaluators under both policies: both modes on uniform knots, and the
    table search on equalized and on strongly graded knots (crowded cells)."""
    rng = np.random.default_rng(29)
    f = gaussian((0.0, 4.0))
    uniform = PolygonalFunction(uniform_partition(0.0, 4.0, 1023), rng.standard_normal(1024))
    equalized = PolygonalFunction(optimized_partition(f, 0.0, 4.0, 1023), rng.standard_normal(1024))
    knots = _graded_knots(rng, 4000, 1e6, True, 0.0, 4.0)
    graded = PolygonalFunction(Partition(knots), rng.standard_normal(knots.size))
    for g, mode in (
        (uniform, "uniform_direct"),
        (uniform, "binary_search"),
        (equalized, "binary_search"),
        (graded, "binary_search"),
    ):
        for policy in ("error", "clamp"):
            yield make_evaluator(g, mode, out_of_domain=policy)


def _whole_array(e, xs):
    """The mode's kernel applied to the whole array in one call."""
    a, b = e.source.partition.a, e.source.partition.b
    if e.out_of_domain == "clamp":
        xs = np.clip(xs, a, b)
    return e._table.evaluate(xs)


def _abscissae(rng, e, size):
    a, b = e.source.partition.a, e.source.partition.b
    pad = 0.1 * (b - a) if e.out_of_domain == "clamp" else 0.0
    return rng.uniform(a - pad, b + pad, size)


def test_blocks_match_one_kernel_call_bit_for_bit():
    rng = np.random.default_rng(31)
    cases = list(_block_cases())
    assert cases[-1]._table.crowded is not None
    for e in cases:
        for size in BLOCK_SIZES:
            xs = _abscissae(rng, e, size)
            got = evaluate_batch(e, xs)
            assert got.shape == (size,)
            want = _whole_array(e, xs)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (e.mode, size)


def test_blocked_2d_batch_keeps_its_shape():
    rng = np.random.default_rng(37)
    for e in _block_cases():
        # A transposed grid: not contiguous, and blocks end inside its rows.
        xs = _abscissae(rng, e, LARGE).reshape(LARGE_ROWS, -1).T
        got = evaluate_batch(e, xs)
        assert got.shape == xs.shape
        want = _whole_array(e, np.ascontiguousarray(xs))
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), e.mode


@pytest.mark.parametrize("mode", ["uniform_direct", "binary_search"])
@pytest.mark.parametrize("policy", ["error", "clamp"])
def test_bad_value_in_the_last_block_names_its_index(mode, policy):
    rng = np.random.default_rng(41)
    g = PolygonalFunction(uniform_partition(0.0, 1.0, 16), rng.standard_normal(17))
    e = make_evaluator(g, mode, out_of_domain=policy)
    bad = LARGE - 3
    xs = rng.uniform(0.0, 1.0, LARGE)
    values = ["nan", "1.25"] if policy == "error" else ["nan"]
    for value in values:
        xs[bad] = float(value)
        for batch in (xs, xs.reshape(LARGE_ROWS, -1)):
            with pytest.raises(ValueError, match=f"x={value} at index {bad} outside"):
                evaluate_batch(e, batch)


@pytest.mark.parametrize("mode", ["uniform_direct", "binary_search"])
@pytest.mark.parametrize("policy", ["error", "clamp"])
def test_large_batch_allocates_little_beyond_its_output(mode, policy):
    # One whole-array kernel call holds several full-size temporaries at once
    # (33-56 MiB for this 8-MiB output); a block holds one block's worth.
    rng = np.random.default_rng(43)
    g = PolygonalFunction(uniform_partition(0.0, 4.0, 1023), rng.standard_normal(1024))
    e = make_evaluator(g, mode, out_of_domain=policy)
    xs = _abscissae(rng, e, 1 << 20)
    tracemalloc.start()
    try:
        out = evaluate_batch(e, xs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 2 * 2**20, peak / 2**20


# -- large batches run on every CPU in the affinity mask -----------------------

WORKER_COUNTS = (1, 2, 3, 5)


def test_threaded_blocks_match_one_kernel_call_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(47)
    for e in _block_cases():
        batches = [_abscissae(rng, e, size) for size in (BLOCK + 1, 3 * BLOCK - 7, 1 << 20)]
        batches.append(_abscissae(rng, e, LARGE).reshape(LARGE_ROWS, -1).T)  # transposed 2-D
        for xs in batches:
            want = _whole_array(e, np.ascontiguousarray(xs)).reshape(xs.shape)
            for workers in WORKER_COUNTS:
                monkeypatch.setattr(evaluate_module, "_WORKERS", workers)
                got = evaluate_batch(e, xs)
                assert got.shape == xs.shape
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (e.mode, xs.shape, workers)


def test_concurrent_callers_share_the_pool(monkeypatch):
    # More workers than cores, several callers at once, and a short switch
    # interval: a block written twice or skipped would show in the bits.
    monkeypatch.setattr(evaluate_module, "_WORKERS", 5)
    rng = np.random.default_rng(67)
    cases = list(_block_cases())[::3]
    jobs = [(e, _abscissae(rng, e, 5 * BLOCK + 11)) for e in cases]
    wants = [_whole_array(e, xs) for e, xs in jobs]
    results = [None] * len(jobs)

    def call(i):
        e, xs = jobs[i]
        for _ in range(4):
            results[i] = evaluate_batch(e, xs)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=call, args=(i,)) for i in range(len(jobs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got, want in zip(results, wants, strict=True):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _record_threads(monkeypatch):
    """Wrap _evaluate_inside to record the thread of every call."""
    seen = []
    inner = evaluate_module._evaluate_inside

    def recording(*args):
        seen.append(threading.get_ident())
        return inner(*args)

    monkeypatch.setattr(evaluate_module, "_evaluate_inside", recording)
    return seen


def test_small_batches_stay_on_the_calling_thread(monkeypatch):
    monkeypatch.setattr(evaluate_module, "_WORKERS", 2)
    seen = _record_threads(monkeypatch)
    rng = np.random.default_rng(53)
    for e in _block_cases():
        for size in (0, 1, 256, BLOCK):
            evaluate_batch(e, _abscissae(rng, e, size))
    assert set(seen) == {threading.get_ident()}
    seen.clear()
    evaluate_batch(e, _abscissae(rng, e, 4 * BLOCK))
    assert len(set(seen)) == 2  # the caller and one pool thread


class _BlockFailure(Exception):
    pass


@pytest.mark.parametrize("on_caller", [False, True])
def test_a_failing_block_raises_its_own_exception(monkeypatch, on_caller):
    monkeypatch.setattr(evaluate_module, "_WORKERS", 3)
    rng = np.random.default_rng(59)
    e = next(_block_cases())
    xs = _abscissae(rng, e, 1 << 20)
    want = _whole_array(e, xs)
    caller = threading.get_ident()
    raised = []
    inner = evaluate_module._evaluate_inside

    def failing(*args):
        if (threading.get_ident() == caller) == on_caller:
            raised.append(_BlockFailure())
            raise raised[-1]
        return inner(*args)

    monkeypatch.setattr(evaluate_module, "_evaluate_inside", failing)
    with pytest.raises(_BlockFailure) as excinfo:
        evaluate_batch(e, xs)
    assert any(excinfo.value is r for r in raised)
    monkeypatch.setattr(evaluate_module, "_evaluate_inside", inner)
    assert np.array_equal(evaluate_batch(e, xs).view(np.int64), want.view(np.int64))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_evaluates_large_batches(monkeypatch):
    # The child inherits the pool object but not its threads; without a
    # fresh pool its first large batch would wait forever.
    monkeypatch.setattr(evaluate_module, "_WORKERS", 2)
    e = next(_block_cases())
    xs = _abscissae(np.random.default_rng(61), e, 4 * BLOCK)
    want = evaluate_batch(e, xs)  # the parent's pool now exists
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads alive
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if np.array_equal(evaluate_batch(e, xs), want) else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30.0
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done[0] == pid, "the child's large batch did not finish"
    assert os.waitstatus_to_exitcode(done[1]) == 0
