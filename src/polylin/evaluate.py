"""Fast evaluation of polygonal functions.

Uniform partitions locate the segment with one multiply and a floor (no
search); general partitions binary-search the knots.  Both use the
right-open convention [x_{i-1}, x_i), with x = x_N folded into the last
segment.  Batch evaluation runs through the numpy kernels in _kernels.

Out-of-domain policy: under "error" an abscissa outside [a, b] raises
ValueError; under "clamp" it is moved to the nearer end.  NaN lies in no
interval, so it raises ValueError under both policies, naming its index
in a batch.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import PolygonalFunction

__all__ = ["Evaluator", "BenchResult", "make_evaluator", "evaluate", "evaluate_batch", "bench"]

MODES = ("uniform_direct", "binary_search")
OUT_OF_DOMAIN = ("error", "clamp")
MIN_BENCH_EVALS = 100_000
BENCH_REPETITIONS = 5


@dataclass(frozen=True)
class Evaluator:
    """A polygonal function prepared for repeated evaluation."""

    source: PolygonalFunction
    mode: str
    out_of_domain: str

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.out_of_domain not in OUT_OF_DOMAIN:
            raise ValueError(f"unknown out-of-domain policy {self.out_of_domain!r}")
        if self.mode == "uniform_direct" and not self.source.partition.is_uniform:
            raise ValueError("uniform_direct requires a uniform partition")

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


def _domain_check_scalar(e: Evaluator, x: float) -> float:
    a, b = e.source.partition.a, e.source.partition.b
    if a <= x <= b:
        return x
    if e.out_of_domain == "error" or math.isnan(x):
        raise ValueError(f"x={x} outside [{a}, {b}]")
    return min(max(x, a), b)


def evaluate(e: Evaluator, x: float) -> float:
    """Evaluate at one abscissa."""
    x = _domain_check_scalar(e, float(x))
    knots = e.source.partition.knots
    v = e.source.ordinates
    n = knots.size - 1
    if e.mode == "uniform_direct":
        t = n * (x - knots[0]) / (knots[-1] - knots[0])
        i = min(max(int(math.floor(t)) + 1, 1), n)
        d = 1.0 - i + t
    else:
        i = int(np.searchsorted(knots, x, side="right"))
        i = min(max(i, 1), n)
        d = (x - knots[i - 1]) / (knots[i] - knots[i - 1])
    return float((1.0 - d) * v[i - 1] + d * v[i])


def evaluate_batch(e: Evaluator, xs) -> np.ndarray:
    """Evaluate at an array of abscissae."""
    xs = np.ascontiguousarray(xs, dtype=float)
    a, b = e.source.partition.a, e.source.partition.b
    if e.out_of_domain == "error":
        inside = (xs >= a) & (xs <= b)  # False at NaN
        if not inside.all():
            _reject(xs, ~inside, a, b)
    else:
        # min propagates NaN: one pass tells whether any is present.
        if math.isnan(xs.min(initial=np.inf)):
            _reject(xs, np.isnan(xs), a, b)
        xs = np.clip(xs, a, b)
    knots = e.source.partition.knots
    v = e.source.ordinates
    if e.mode == "uniform_direct":
        return _kernels.eval_uniform(knots[0], knots[-1], v, xs)
    return _kernels.eval_sorted(knots, v, xs)


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


def bench(e: Evaluator, n_evals: int, seed: int) -> BenchResult:
    """Time BENCH_REPETITIONS batch evaluations over uniform-random abscissae.

    Inputs are generated once up front and a warm-up pass precedes timing;
    the checksum pins the outputs so the work cannot be optimized away and
    reruns with one seed are comparable.
    """
    if n_evals < MIN_BENCH_EVALS:
        raise ValueError(f"n_evals must be at least {MIN_BENCH_EVALS}")
    rng = np.random.default_rng(seed)
    a, b = e.source.partition.a, e.source.partition.b
    xs = rng.uniform(a, b, n_evals)

    out = evaluate_batch(e, xs)  # warm-up
    times = []
    for _ in range(BENCH_REPETITIONS):
        t0 = time.perf_counter_ns()
        out = evaluate_batch(e, xs)
        t1 = time.perf_counter_ns()
        times.append((t1 - t0) / n_evals)
    return BenchResult(
        mean_ns=float(np.mean(times)),
        min_ns=float(np.min(times)),
        n_evals=n_evals,
        checksum=float(np.sum(out)),
        mode=e.mode,
        backend=_kernels.backend(),
    )
