"""Numeric inner loops, jit-compiled when numba is available.

Setting POLYLIN_NO_NUMBA=1 (or any value other than 0/empty) selects the
pure-numpy implementations even when numba is installed; the ``*_py``
versions stay importable either way so the two paths can be compared
directly (see benchmarks/bench_kernels.py).
"""

from __future__ import annotations

import os

import numpy as np

_flag = os.environ.get("POLYLIN_NO_NUMBA", "").strip().lower()
NUMBA_DISABLED = _flag not in ("", "0", "false")

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # numba is the optional ``jit`` extra
    HAVE_NUMBA = False

USE_NUMBA = HAVE_NUMBA and not NUMBA_DISABLED


def backend() -> str:
    return "numba" if USE_NUMBA else "numpy"


# -- polygonal evaluation ----------------------------------------------------
#
# Uniform storage: the segment index comes from one multiply and a floor,
# delta = 1 - i + N*(x - x0)/(xN - x0), using only the end knots.
# General storage: binary search for the right-open segment [x_{i-1}, x_i),
# with x = xN folded into the last segment.


def eval_uniform_py(x0: float, xn: float, ordinates: np.ndarray, xs: np.ndarray) -> np.ndarray:
    n = ordinates.size - 1
    t = n * (xs - x0) / (xn - x0)
    i = np.floor(t).astype(np.int64) + 1
    np.clip(i, 1, n, out=i)
    d = 1.0 - i + t
    return (1.0 - d) * ordinates[i - 1] + d * ordinates[i]


def eval_sorted_py(knots: np.ndarray, ordinates: np.ndarray, xs: np.ndarray) -> np.ndarray:
    i = np.searchsorted(knots, xs, side="right")
    np.clip(i, 1, knots.size - 1, out=i)
    d = (xs - knots[i - 1]) / (knots[i] - knots[i - 1])
    return (1.0 - d) * ordinates[i - 1] + d * ordinates[i]


def thomas_py(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Tridiagonal forward elimination + back substitution, no pivoting."""
    n = diag.size
    c = np.empty(n)
    d = np.empty(n)
    x = np.empty(n)
    piv = diag[0]
    if piv == 0.0:
        raise np.linalg.LinAlgError("zero pivot in tridiagonal solve")
    c[0] = upper[0] / piv if n > 1 else 0.0
    d[0] = rhs[0] / piv
    for k in range(1, n):
        piv = diag[k] - lower[k - 1] * c[k - 1]
        if piv == 0.0:
            raise np.linalg.LinAlgError("zero pivot in tridiagonal solve")
        c[k] = upper[k] / piv if k < n - 1 else 0.0
        d[k] = (rhs[k] - lower[k - 1] * d[k - 1]) / piv
    x[n - 1] = d[n - 1]
    for k in range(n - 2, -1, -1):
        x[k] = d[k] - c[k] * x[k + 1]
    return x


if USE_NUMBA:

    @njit(cache=True)
    def _eval_uniform_nb(x0, xn, ordinates, xs):
        n = ordinates.size - 1
        # Same rounding as the numpy twin and the scalar path: multiply
        # before the divide, so all three agree bit for bit.
        span = xn - x0
        out = np.empty(xs.size)
        for j in range(xs.size):
            t = n * (xs[j] - x0) / span
            i = int(np.floor(t)) + 1
            if i < 1:
                i = 1
            elif i > n:
                i = n
            d = 1.0 - i + t
            out[j] = (1.0 - d) * ordinates[i - 1] + d * ordinates[i]
        return out

    @njit(cache=True)
    def _eval_sorted_nb(knots, ordinates, xs):
        n = knots.size - 1
        out = np.empty(xs.size)
        for j in range(xs.size):
            x = xs[j]
            lo = 0
            hi = n
            # invariant: knots[lo] <= x is assumed, knot[hi] end cap
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if knots[mid] <= x:
                    lo = mid
                else:
                    hi = mid
            d = (x - knots[lo]) / (knots[lo + 1] - knots[lo])
            out[j] = (1.0 - d) * ordinates[lo] + d * ordinates[lo + 1]
        return out

    @njit(cache=True)
    def _thomas_nb(lower, diag, upper, rhs):
        n = diag.size
        c = np.empty(n)
        d = np.empty(n)
        x = np.empty(n)
        piv = diag[0]
        if piv == 0.0:
            raise ZeroDivisionError("zero pivot")
        c[0] = upper[0] / piv if n > 1 else 0.0
        d[0] = rhs[0] / piv
        for k in range(1, n):
            piv = diag[k] - lower[k - 1] * c[k - 1]
            if piv == 0.0:
                raise ZeroDivisionError("zero pivot")
            if k < n - 1:
                c[k] = upper[k] / piv
            else:
                c[k] = 0.0
            d[k] = (rhs[k] - lower[k - 1] * d[k - 1]) / piv
        x[n - 1] = d[n - 1]
        for k in range(n - 2, -1, -1):
            x[k] = d[k] - c[k] * x[k + 1]
        return x

    eval_uniform = _eval_uniform_nb
    eval_sorted = _eval_sorted_nb
    _thomas = _thomas_nb
else:
    eval_uniform = eval_uniform_py
    eval_sorted = eval_sorted_py
    _thomas = thomas_py


def thomas(lower, diag, upper, rhs) -> np.ndarray:
    """Dispatching wrapper so breakdown surfaces as LinAlgError on both paths."""
    try:
        return _thomas(
            np.ascontiguousarray(lower, dtype=float),
            np.ascontiguousarray(diag, dtype=float),
            np.ascontiguousarray(upper, dtype=float),
            np.ascontiguousarray(rhs, dtype=float),
        )
    except ZeroDivisionError as exc:
        raise np.linalg.LinAlgError(str(exc)) from exc
