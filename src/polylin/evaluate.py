"""Fast evaluation of polygonal functions.

An evaluator builds its table once, when it is made: the ordinates and
one difference per segment, Δv on a uniform partition and the slope per
unit x on a general one, plus a sentinel segment at x_N whose difference
is 0.  A point then costs v[k] + d*Δv[k] or v[k] + (x - x_k)*s[k].
Uniform partitions locate the segment with one multiply and a floor (no
search).  General partitions use a guide table: O(1) per point,
O(log N) worst case for strongly graded knots (see _kernels).  That mode
keeps the name "binary_search" for API stability.  Both use the
right-open convention [x_{i-1}, x_i), and x = x_N lands on the sentinel.
The guide table returns every knot's ordinate bit for bit; the uniform
lookup does where its float position t rounds to the knot's index (see
_kernels).  Evaluation runs through the numpy kernels in _kernels, and a
scalar call is a batch of one.

A batch of at most BLOCK points runs on the calling thread.  A larger one
is cut into blocks and split into one contiguous run of blocks per CPU in
the process's affinity mask; the calling thread takes one run and a pool
of threads, made at the first large batch, the others (numpy releases
the GIL inside each pass).  Each block is evaluated straight into its
slice of one output array.  The arithmetic is unchanged, so every value
is the one a whole-array call gives.  Blocks hold at most IN_FLIGHT
points at once over all threads, so peak memory is the output plus under
2 MiB of temporaries in total, which stay in cache.

Out-of-domain policy: under "error" an abscissa outside [a, b] raises
ValueError; under "clamp" it is moved to the nearer end.  NaN lies in no
interval, so it raises ValueError under both policies, naming its index
in a batch.
"""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .core import PolygonalFunction

__all__ = [
    "Evaluator",
    "BenchResult",
    "make_evaluator",
    "evaluate",
    "evaluate_batch",
    "bench",
    "bench_target",
]

MODES = ("uniform_direct", "binary_search")
OUT_OF_DOMAIN = ("error", "clamp")
MIN_BENCH_EVALS = 100_000
BENCH_REPETITIONS = 5
# Points per kernel call: on one thread the fastest of 2^14..2^17 on
# 2^20-point batches.  Two threads also run fastest with BLOCK points
# each: on a 2-vCPU Xeon, halving their blocks costs 40-50% more time,
# because a thread then waits to retake the GIL after each short numpy
# pass.  A batch above BLOCK runs on threads, each taking min(BLOCK,
# IN_FLIGHT // workers) points at a time, which holds the kernels'
# temporaries (24-25 bytes a point) under 2 MiB over all of them.
BLOCK = 2**15
IN_FLIGHT = 2**16
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_pool = None  # threads for the runs beyond the caller's, made at the first large batch
_pool_lock = threading.Lock()


@dataclass(frozen=True)
class Evaluator:
    """A polygonal function prepared for repeated evaluation."""

    source: PolygonalFunction
    mode: str
    out_of_domain: str
    # The mode's lookup table, built here so no request pays for it.
    _table: _kernels.UniformTable | _kernels.GuideTable = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.out_of_domain not in OUT_OF_DOMAIN:
            raise ValueError(f"unknown out-of-domain policy {self.out_of_domain!r}")
        if self.mode == "uniform_direct" and not self.source.partition.is_uniform:
            raise ValueError("uniform_direct requires a uniform partition")
        kind = _kernels.UniformTable if self.mode == "uniform_direct" else _kernels.GuideTable
        table = kind.build(self.source.partition.knots, self.source.ordinates)
        object.__setattr__(self, "_table", table)

    def __call__(self, x):
        if np.ndim(x) == 0:
            return evaluate(self, float(x))
        return evaluate_batch(self, x)


def make_evaluator(
    g: PolygonalFunction, mode: str | None = None, out_of_domain: str = "error"
) -> Evaluator:
    """Wrap g for evaluation; mode defaults to the fastest valid one."""
    if mode is None:
        mode = "uniform_direct" if g.partition.is_uniform else "binary_search"
    return Evaluator(g, mode, out_of_domain)


def evaluate(e: Evaluator, x: float) -> float:
    """Evaluate at one abscissa: a batch of one."""
    x = float(x)
    a, b = e.source.partition.a, e.source.partition.b
    if not a <= x <= b and (e.out_of_domain == "error" or math.isnan(x)):
        raise ValueError(f"x={x} outside [{a}, {b}]")
    return float(_evaluate_inside(e, np.array([x]))[0])


def evaluate_batch(e: Evaluator, xs) -> np.ndarray:
    """Evaluate at an array of abscissae; the result has the shape of xs.

    A batch of more than BLOCK points runs in blocks on every CPU the
    process may use, into one output array, through the same kernel
    expressions, so every value is bit-identical to a whole-array call.
    Peak memory is the output plus IN_FLIGHT points' temporaries.
    """
    shape = np.shape(xs)
    xs = np.ascontiguousarray(xs, dtype=float)
    a, b = e.source.partition.a, e.source.partition.b
    if e.out_of_domain == "error":
        # Two reductions; NaN propagates through both and fails both tests.
        if not (xs.min(initial=np.inf) >= a and xs.max(initial=-np.inf) <= b):
            _reject(xs, ~((xs >= a) & (xs <= b)), a, b)
    else:
        # min propagates NaN: one pass tells whether any is present.
        if math.isnan(xs.min(initial=np.inf)):
            _reject(xs, np.isnan(xs), a, b)
    if xs.size <= BLOCK:
        out = _evaluate_inside(e, xs)
        return out if shape else out.reshape(shape)
    out = np.empty(shape)
    flat, dest = xs.reshape(-1), out.reshape(-1)
    step = min(BLOCK, IN_FLIGHT // _WORKERS)
    starts = range(0, flat.size, step)
    workers = min(_WORKERS, len(starts))
    # Contiguous runs of whole blocks, one per worker; the caller takes the first.
    n = len(starts)
    runs = [starts[n * w // workers : n * (w + 1) // workers] for w in range(workers)]
    futures = [_executor().submit(_run_blocks, e, flat, dest, run, step) for run in runs[1:]]
    try:
        _run_blocks(e, flat, dest, runs[0], step)
    finally:
        for f in futures:  # no run outlives the call, even one that raised
            f.exception()
    for f in futures:
        f.result()
    return out


def _run_blocks(e: Evaluator, xs: np.ndarray, out: np.ndarray, starts: range, step: int) -> None:
    """Evaluate the checked blocks xs[lo : lo + step], lo in starts, into out."""
    for lo in starts:
        _evaluate_inside(e, xs[lo : lo + step], out[lo : lo + step])


def _executor():
    global _pool
    with _pool_lock:
        if _pool is None:
            # Imported here: it costs about 3 ms, which only a large batch pays.
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(_WORKERS - 1, thread_name_prefix="polylin-evaluate")
        return _pool


def _forget_pool() -> None:
    """A forked child inherits the pool object but none of its threads."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _evaluate_inside(e: Evaluator, xs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Kernel values at checked abscissae, clamped first under "clamp"."""
    if e.out_of_domain == "clamp":
        # max(a, x) then min(b, .) picks what np.clip picks, signed zeros
        # included, at half its per-call cost on small batches (a full
        # block pays one more pass over its points).
        xs = np.maximum(e.source.partition.a, xs, out=out)
        np.minimum(e.source.partition.b, xs, out=xs)
    return e._table.evaluate(xs, out)


def _reject(xs: np.ndarray, bad: np.ndarray, a: float, b: float):
    i = int(np.flatnonzero(bad)[0])
    raise ValueError(f"x={xs.flat[i]} at index {i} outside [{a}, {b}]")


@dataclass(frozen=True)
class BenchResult:
    """Per-evaluation timing of evaluate_batch on one prepared input set."""

    mean_ns: float
    min_ns: float
    n_evals: int
    checksum: float
    mode: str
    backend: str
    workers: int  # threads each timed batch ran on


def bench(e: Evaluator, n_evals: int, seed: int) -> BenchResult:
    """Time BENCH_REPETITIONS batch evaluations over uniform-random abscissae.

    Inputs are generated once up front and a warm-up pass precedes timing;
    the checksum pins the outputs so the work cannot be optimized away and
    reruns with one seed are comparable.  Every batch is larger than BLOCK,
    so it runs on ``workers`` threads, and the times per evaluation are
    wall time across all of them.
    """
    xs = _bench_abscissae(e.source.partition.a, e.source.partition.b, n_evals, seed)
    times, out = _ns_per_point(lambda x: evaluate_batch(e, x), xs)
    return BenchResult(
        mean_ns=float(np.mean(times)),
        min_ns=float(np.min(times)),
        n_evals=n_evals,
        checksum=float(np.sum(out)),
        mode=e.mode,
        backend=_kernels.backend(),
        workers=_WORKERS,
    )


def bench_target(fn, a: float, b: float, n_evals: int, seed: int) -> float:
    """Mean ns per point of fn (a target's own ``eval``) on the abscissae
    and repetitions that bench times on [a, b] with the same n_evals and
    seed: the cost the polygon stands in for.  fn runs on the calling
    thread."""
    times, _ = _ns_per_point(fn, _bench_abscissae(a, b, n_evals, seed))
    return float(np.mean(times))


def _bench_abscissae(a: float, b: float, n_evals: int, seed: int) -> np.ndarray:
    if n_evals < MIN_BENCH_EVALS:
        raise ValueError(f"n_evals must be at least {MIN_BENCH_EVALS}")
    return np.random.default_rng(seed).uniform(a, b, n_evals)


def _ns_per_point(fn, xs: np.ndarray) -> tuple[list[float], np.ndarray]:
    """ns per point of each of BENCH_REPETITIONS calls fn(xs) after one
    warm-up call, and the last call's output."""
    out = fn(xs)  # warm-up
    times = []
    for _ in range(BENCH_REPETITIONS):
        t0 = time.perf_counter_ns()
        out = fn(xs)
        t1 = time.perf_counter_ns()
        times.append((t1 - t0) / xs.size)
    return times, out
