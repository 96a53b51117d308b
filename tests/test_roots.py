"""Bracketed root finding: the adjacent-float stop, the width stop, and
brackets that start on a sign alone."""

import numpy as np
import pytest

from polylin._roots import TINY, roots

EPS = float(np.finfo(float).eps)


def _scan_case():
    """Sign changes of an f''-like curve between the points of a scan grid,
    with the grid's rounding band as every bracket's noise (as
    ``partition._scan`` calls roots)."""

    def d2(x):
        return np.cos(5.0 * x) * np.exp(-0.5 * x) - 0.1

    x = np.linspace(0.0, 3.0, 65)
    y = d2(x)
    k = np.flatnonzero((y[:-1] > 0.0) != (y[1:] > 0.0))
    return (lambda t, _s: d2(t)), k, x[k], x[k + 1], y[k], y[k + 1], np.full(k.size, EPS * np.max(np.abs(y)))


def _fit_case(halved=False):
    """Crossings of a gaussian and a polygon on four segments, bracketed on
    32 steps per segment, as the best-L1 fit's crossing search calls roots
    (it also cuts them at the zeros of f'').  ``halved`` gives every
    bracket an infinite noise, which sends it to bisection."""
    knots = np.linspace(0.0, 2.0, 5)
    h = np.diff(knots)
    v = np.exp(-knots * knots) - np.array([0.02, -0.01, 0.015, -0.005, 0.01])

    def resid(x, seg):
        d = (x - knots[seg]) / h[seg]
        return np.exp(-x * x) - ((1.0 - d) * v[seg] + d * v[seg + 1])

    x = knots[:-1, None] + h[:, None] * (np.arange(33) / 32)
    e = resid(x.ravel(), np.arange(4).repeat(33)).reshape(x.shape)
    s, k = ((e[:, :-1] >= 0.0) != (e[:, 1:] >= 0.0)).nonzero()
    top = np.exp(-x * x).max(axis=1) + np.abs(v).max()
    noise = np.full(s.size, np.inf) if halved else EPS * top[s]
    return resid, s, x[s, k], x[s, k + 1], e[s, k], e[s, k + 1], noise


def _sign_only_case(end=4, zero=False):
    """The fit case with the e given at one end of every bracket (argument
    ``end``: 4 the lower, 5 the upper) cut to its sign at size TINY, as a
    knot's stand-in is, or to 0 on the brackets where it is positive (zero
    counts as positive); the noise stays finite."""
    args = list(_fit_case())
    keep = args[end] > 0.0 if zero else np.ones(args[1].size, dtype=bool)
    args[1:] = (a[keep] for a in args[1:])
    args[end] = np.zeros(keep.sum()) if zero else np.sign(args[end]) * TINY
    return args, keep


# The roots these inputs had before brackets took a width.
PINNED = {
    "scan": [
        "0x1.29f56e727243cp-2",
        "0x1.f34c498c46af2p-1",
        "0x1.870c63dd2c132p+0",
        "0x1.218d86af4c22ap+1",
        "0x1.5f85c44ad1320p+1",
    ],
    "fit": ["0x1.e57684f400320p-2", "0x1.98c91a771f460p-1", "0x1.110b0fa19f62cp+0", "0x1.ea88de29c402ep+0"],
}
CASES = {
    "scan": _scan_case,
    "fit": _fit_case,
    "halved": lambda: _fit_case(halved=True),
    "sign_only": lambda: _sign_only_case()[0],
}


@pytest.mark.parametrize("name", ["scan", "fit", "halved", "sign_only"])
def test_width_zero_keeps_the_adjacent_float_roots(name):
    args = CASES[name]()
    pinned = [float.fromhex(z) for z in PINNED["scan" if name == "scan" else "fit"]]
    for root in (roots(*args), roots(*args, 0.0), roots(*args, np.zeros(args[1].size))):
        assert root.tolist() == pinned


@pytest.mark.parametrize("name", ["scan", "fit", "halved", "sign_only"])
def test_width_stops_each_bracket_within_its_width(name):
    resid, seg, lo, hi, e_lo, e_hi, noise = CASES[name]()
    calls = [0]

    def counted(x, s):
        calls[0] += 1
        return resid(x, s)

    exact = roots(counted, seg, lo, hi, e_lo, e_hi, noise)
    rounds = calls[0]
    # A scalar width and one per bracket, both well below the brackets.
    for width in (1e-4, 1e-7, np.geomspace(1e-9, 1e-5, seg.size)):
        calls[0] = 0
        root = roots(counted, seg, lo, hi, e_lo, e_hi, noise, width)
        assert calls[0] < rounds
        w = np.broadcast_to(width, root.shape)
        assert np.all((lo <= root) & (root <= hi))
        assert np.all(np.abs(root - exact) <= 0.5 * w)
        left = resid(np.maximum(root - w, lo), seg) >= 0.0
        right = resid(np.minimum(root + w, hi), seg) >= 0.0
        assert np.all(left != right)


@pytest.mark.parametrize("end, zero", [(4, False), (5, False), (4, True), (5, True)])
def test_a_bracket_that_starts_on_a_sign_alone_is_halved(end, zero):
    # A step from an end given as TINY or 0 would land next to that end;
    # the first point is the bracket's midpoint instead, and every bracket
    # narrows as the halved case does, whatever its width.
    args, keep = _sign_only_case(end, zero)
    resid, seg, lo, hi = args[:4]
    seen = []

    def first(x, s):
        seen.append(x.copy())
        return resid(x, s)

    roots(first, *args[1:])
    assert np.all(np.abs(seen[0] - 0.5 * (lo + hi)) <= 2.0 * np.spacing(hi))
    halved = [resid, *(a[keep] for a in _fit_case(halved=True)[1:])]
    for width in (0.0, 1e-4, 1e-7):
        assert roots(*args, width).tolist() == roots(*halved, width).tolist()
