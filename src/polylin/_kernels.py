"""Numeric inner loops in numpy: polygonal evaluation and the tridiagonal solve."""

from __future__ import annotations

import numpy as np


def backend() -> str:
    """Name of the kernel implementation, recorded by ``polylin bench``."""
    return "numpy"


# -- polygonal evaluation ----------------------------------------------------
#
# Uniform storage: the segment index comes from one multiply and a floor,
# delta = 1 - i + N*(x - x0)/(xN - x0), using only the end knots.
# General storage: binary search for the right-open segment [x_{i-1}, x_i),
# with x = xN folded into the last segment.


def eval_uniform(x0: float, xn: float, ordinates: np.ndarray, xs: np.ndarray) -> np.ndarray:
    n = ordinates.size - 1
    t = n * (xs - x0) / (xn - x0)
    i = np.floor(t).astype(np.int64) + 1
    np.clip(i, 1, n, out=i)
    d = 1.0 - i + t
    return (1.0 - d) * ordinates[i - 1] + d * ordinates[i]


def eval_sorted(knots: np.ndarray, ordinates: np.ndarray, xs: np.ndarray) -> np.ndarray:
    i = np.searchsorted(knots, xs, side="right")
    np.clip(i, 1, knots.size - 1, out=i)
    d = (xs - knots[i - 1]) / (knots[i] - knots[i - 1])
    return (1.0 - d) * ordinates[i - 1] + d * ordinates[i]


def thomas(lower, diag, upper, rhs) -> np.ndarray:
    """Tridiagonal forward elimination + back substitution, no pivoting.

    A zero pivot raises ``numpy.linalg.LinAlgError``.
    """
    lower, diag, upper, rhs = (np.asarray(v, dtype=float) for v in (lower, diag, upper, rhs))
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
