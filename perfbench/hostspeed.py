"""Host-speed correction for op timings.

On a shared host the same single-threaded code runs at different speeds
in phases lasting seconds to minutes (other tenants on the same cores,
caches and memory bus).  A whole 30-s run can fall into a slow phase, so
no statistic over one run's repetitions removes it.

While a round runs, ``HostSpeed`` times a fixed probe kernel that uses no
polylin code, from a SIGALRM timer, so it also samples inside long ops.
Each sample is the factor ``ref_s / probe time``.  An op's factor is the
mean of the samples taken during it, or of the two around it when it was
too short to get one.  Its corrected time is its measured time times
that factor: the time it would have taken at the speed where the probe
takes ``ref_s``.  A change to polylin moves the op time and not the
probe, so it shows in full.

Op timings read ``clock()``, which leaves out the time spent in probes.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

_spent = 0.0  # seconds spent in probes so far


def clock() -> float:
    """perf_counter minus the time spent in probes: a duration read from it
    leaves out any probe that ran inside it."""
    return perf_counter() - _spent


_SMALL = np.linspace(0.0, 1.0, 256)
_LARGE = np.linspace(0.0, 1.0, 1 << 18)
_KNOTS = np.linspace(0.0, 1.0, 1 << 14)
_QUERIES = np.random.default_rng(0).uniform(size=(24, 256))


def _interpreter_kernel() -> None:
    """Interpreter work and small numpy calls, like plan cases and small
    evaluation requests."""
    acc = 0.0
    for i in range(48):
        acc += float(np.sum(np.sin(_SMALL * i))) + sum(range(64))


def _array_kernel() -> None:
    """Transcendentals over 2-MB arrays, like the best-L1 fit's integrand
    batches."""
    float(np.sum(np.exp(-_LARGE * _LARGE) * np.sin(3.0 * _LARGE)))


def _lookup_kernel() -> None:
    """Binary searches of small batches in a 16384-knot table and gathers,
    like evaluation requests on a prepared evaluator."""
    acc = 0.0
    for q in _QUERIES:
        acc += float(_KNOTS[np.searchsorted(_KNOTS, q)].sum())


@dataclass(frozen=True)
class Probe:
    kernel: Callable[[], None]
    ref_s: float  # kernel time in a fast phase of the tuning machine
    every_s: float  # sampling period


# ref_s is about the faster of two kernel runs in a fast phase of the
# 2-vCPU virtual machine (Intel Xeon, 2.0 GHz) the benchmark was tuned on.
# It only sets the scale: runs are comparable because it never changes.
INTERPRETER = Probe(_interpreter_kernel, ref_s=4.2e-4, every_s=0.05)
ARRAY = Probe(_array_kernel, ref_s=4.9e-3, every_s=0.5)
LOOKUP = Probe(_lookup_kernel, ref_s=1.05e-3, every_s=0.1)


class HostSpeed:
    """Samples host speed while active; wraps a runner's op function and
    gives one factor per op call."""

    def __init__(self, probe: Probe, inner):
        self.probe = probe
        self.inner = inner
        self.times: list[float] = []
        self.samples: list[float] = []
        self.windows: list[tuple[float, float]] = []
        self.sampling = False

    def _sample(self, *_) -> None:
        global _spent
        if self.sampling:  # a tick that arrives during a sample is dropped
            return
        self.sampling = True
        start = perf_counter()
        runs = []
        for _ in range(2):
            t = perf_counter()
            self.probe.kernel()
            runs.append(perf_counter() - t)
        self.times.append(start)
        self.samples.append(self.probe.ref_s / min(runs))
        _spent += perf_counter() - start
        self.sampling = False

    def __enter__(self):
        self._sample()
        self.previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.probe.every_s, self.probe.every_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self.previous)
        self._sample()

    def op(self, kind, fn, *args):
        start = perf_counter()
        try:
            return self.inner(kind, fn, *args)
        finally:
            self.windows.append((start, perf_counter()))

    def factors(self) -> list[float]:
        """The factor of every op call, in order; call after the block."""
        out = []
        for start, end in self.windows:
            lo, hi = bisect_left(self.times, start), bisect_right(self.times, end)
            inside = self.samples[lo:hi] or [self.samples[lo - 1], self.samples[hi]]
            out.append(float(np.mean(inside)))
        return out
