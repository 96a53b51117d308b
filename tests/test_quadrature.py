"""Adaptive Simpson engine: closed forms, cusps, floors, failure paths."""

import inspect

import numpy as np
import pytest

from polylin.quadrature import QuadratureError, _accepted_panels, integrate_segments


def integral(fun, a, b, **kwargs):
    """Integral of a one-argument integrand over [a, b] on eight segments."""
    return float(np.sum(integrate_segments(lambda x, _s: fun(x), np.linspace(a, b, 9), **kwargs)))


def test_polynomial_and_transcendental_closed_forms():
    assert abs(integral(lambda x: x**2, 0.0, 1.0) - 1.0 / 3.0) <= 1e-13
    assert abs(integral(np.sin, 0.0, np.pi) - 2.0) <= 1e-12
    assert abs(integral(np.exp, 0.0, 1.0) - (np.e - 1.0)) <= 1e-12
    assert abs(integral(lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0) - np.pi / 4.0) <= 1e-12
    # An interior cusp off every panel edge: sqrt|x - c|.
    c = 1.0 / 3.0
    cusp = integral(lambda x: np.sqrt(np.abs(x - c)), 0.0, 1.0)
    assert abs(cusp - (2.0 / 3.0) * (c**1.5 + (1.0 - c) ** 1.5)) <= 1e-11


def test_segment_totals_match_per_segment_antiderivative():
    edges = np.array([0.0, 0.25, 1.0, 2.0])
    out = integrate_segments(lambda x, seg: x**2, edges)
    expected = np.diff(edges**3) / 3.0
    assert out.shape == (3,)
    assert np.max(np.abs(out - expected)) <= 1e-12


def test_multi_component_shares_sample_points():
    edges = np.array([0.0, 0.5, 1.0])
    out = integrate_segments(
        lambda x, seg: np.stack([x, x**2, np.cos(x)], axis=1), edges
    )
    assert out.shape == (2, 3)
    expected = np.stack(
        [np.diff(edges**2) / 2.0, np.diff(edges**3) / 3.0, np.diff(np.sin(edges))],
        axis=1,
    )
    assert np.max(np.abs(out - expected)) <= 1e-12


def test_segment_index_argument_is_consistent():
    edges = np.array([0.0, 1.0, 3.0])

    def fun(x, seg):
        assert np.all((x >= edges[seg]) & (x <= edges[seg + 1]))
        return np.ones_like(x)

    out = integrate_segments(fun, edges)
    assert np.allclose(out, [1.0, 2.0], atol=1e-13)


def test_scattered_panels_accumulate_by_tag():
    lo = np.array([0.0, 2.0, 0.5, 3.0])
    hi = np.array([0.5, 3.0, 1.0, 3.0])  # last panel zero width
    seg = np.array([0, 1, 0, 1])
    out = integrate_segments(lambda x, s: x, panels=(lo, hi, seg, 2))
    assert abs(out[0] - 0.5) <= 1e-13  # two halves of [0, 1]
    assert abs(out[1] - 2.5) <= 1e-13
    empty = integrate_segments(
        lambda x, s: x, panels=(np.array([1.0]), np.array([1.0]), np.array([0]), 1)
    )
    assert empty[0] == 0.0
    # With no panel to sample, the component count comes from an empty call.
    empty = integrate_segments(
        lambda x, s: np.stack([x, x], axis=1),
        panels=(np.array([1.0]), np.array([1.0]), np.array([0]), 1),
    )
    assert empty.shape == (1, 2) and not np.any(empty)


def test_relative_tolerance_path():
    big = integrate_segments(
        lambda x, seg: 1e8 * x**2,
        np.array([0.0, 1.0]),
        abs_tol=1e-30,
        rel_tol=1e-9,
    )
    assert abs(big[0] - 1e8 / 3.0) <= 1e-8 * 1e8 / 3.0


def test_relative_tolerance_budgets_each_column():
    # A large first column must not loosen the budget of a small second one.
    out = integrate_segments(
        lambda x, _s: np.stack([1e9 * x * x, np.exp(x)], axis=1),
        np.array([0.0, 1.0]),
        rel_tol=1e-12,
    )
    assert abs(out[0, 0] - 1e9 / 3.0) <= 1e-12 * 1e9 / 3.0
    assert abs(out[0, 1] - np.expm1(1.0)) <= 1e-12 * np.expm1(1.0)


def test_steep_sigmoid_ramp_converges():
    # Amplitude-one ramp: value jitter near the transition sits around
    # k * ulp, far above the absolute budget, so acceptance must come from
    # the rounding floor rather than endless bisection.
    k = 1e6
    out = integrate_segments(lambda x, seg: np.tanh(k * (x - 1.0 / 3.0)), np.array([0.0, 1.0]))
    assert abs(out[0] - 1.0 / 3.0) <= 1e-10


def test_nonfinite_integrand_raises():
    with pytest.raises(QuadratureError, match="non-finite"):
        integral(lambda x: np.where(x == 0.0, np.inf, 1.0), 0.0, 1.0)


def test_wrong_shape_integrand_raises():
    # Malformed whatever the component count: wrong length, a scalar, a
    # third axis, no column, or a column count that changes between calls.
    # sqrt needs refinement past the forced levels, so the last integrand
    # gives one column on the start call (all 17 abscissae of the one
    # panel) and two on the first refinement level after it.
    edges = np.array([0.0, 1.0])
    for fun in (
        lambda x, seg: np.ones(x.size + 1),
        lambda x, seg: 1.0,
        lambda x, seg: np.ones((x.size, 2, 1)),
        lambda x, seg: np.ones((x.size, 0)),
        lambda x, seg: np.sqrt(x)[:, None].repeat(1 + (x.size != 17), axis=1),
    ):
        with pytest.raises(ValueError, match="shape"):
            integrate_segments(fun, edges)


def test_argument_validation():
    with pytest.raises(ValueError):
        integrate_segments(lambda x, seg: x, np.array([0.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        integrate_segments(lambda x, seg: x)
    with pytest.raises(ValueError, match="hi < lo"):
        integrate_segments(
            lambda x, s: x, panels=(np.array([1.0]), np.array([0.0]), np.array([0]), 1)
        )


def test_nonfinite_bounds_raise():
    for edges in ([0.0, np.nan, 1.0], [0.0, 1.0, np.inf], [-np.inf, 0.0]):
        with pytest.raises(ValueError, match="finite"):
            integrate_segments(lambda x, seg: x, np.array(edges))
    for lo, hi in ((np.nan, 1.0), (0.0, np.inf), (np.nan, np.nan)):
        with pytest.raises(ValueError, match="finite"):
            integrate_segments(
                lambda x, s: x, panels=(np.array([0.0, lo]), np.array([1.0, hi]), np.array([0, 0]), 1)
            )


def test_smooth_integrand_is_called_once():
    # All 17 abscissae of the forced bisections of every panel go in one
    # call, which fixes the component count, and a cubic passes the first
    # test on every panel.
    sizes = []

    def cubic(x, _s):
        sizes.append(x.size)
        return x**3

    out = integrate_segments(cubic, np.linspace(0.0, 1.0, 9))
    assert sizes == [17 * 8]
    assert abs(np.sum(out) - 0.25) <= 1e-15


def test_panels_too_narrow_for_the_forced_levels():
    # A normal panel beside panels narrower than the kink floor (2**-40 of
    # the total width) or only a few ulps wide, which stop splitting at the
    # first or second forced level.  The totals were recorded with the
    # engine that sampled each forced level in its own call.
    floor = 0.5 * 2.0**-40
    u = np.spacing(1e6)
    lo = np.array([0.0, 0.5, 0.75, 1e6, 1e6 + 8 * u, 1e6 + 16 * u])
    hi = np.array([0.5, 0.5 + 0.5 * floor, 0.75 + 1.5 * floor, 1e6 + u, 1e6 + 10 * u, 1e6 + 19 * u])
    recorded = [
        ["0x1.547a7121d9e5cp-2", "0x1.e2b7dddfefa67p-3"],
        ["0x1.21bd54fc599e5p-46", "0x1.6a09e667f3ea0p-43"],
        ["-0x1.e26ff5a96c1a7p-42", "0x1.4c8dc2e423eb2p-41"],
        ["0x1.e93a1504ce2e6p-35", "0x1.f400000000000p-24"],
        ["0x1.e93a1534d45b6p-34", "0x1.f400000000004p-23"],
        ["0x1.6eeb900901380p-33", "0x1.7700000000006p-22"],
    ]
    recorded = np.array([[float.fromhex(v) for v in row] for row in recorded])

    def fun(x, _s):
        return np.stack([np.cos(3.0 * x), np.sqrt(x)], axis=1)

    panels = (lo, hi, np.arange(6), 6)
    assert np.array_equal(integrate_segments(fun, panels=panels), recorded)


def test_default_tolerance():
    assert inspect.signature(integrate_segments).parameters["abs_tol"].default == 1e-12


def test_loose_tolerance_is_respected():
    exact = np.e - 1.0
    loose = integral(np.exp, 0.0, 1.0, abs_tol=1e-4)
    assert abs(loose - exact) <= 1e-4


@pytest.mark.parametrize("n_edges", [9, 65, 4097])
def test_constant_far_from_origin(n_edges):
    # Panels a few thousand ulps wide: the children's Simpson widths must be
    # the widths of the split actually made, or Richardson never settles.
    a, b, c = 1e6, 1e6 + 1e-3, 2.5
    got = np.sum(integrate_segments(lambda x, _s: np.full(x.size, c), np.linspace(a, b, n_edges)))
    assert abs(got - c * (b - a)) <= 1e-12 * c * (b - a)


def test_accepted_panels_tile_the_segments_and_sum_to_the_totals():
    # The recorder sees the next call only: its accepted panels tile every
    # segment, and their contributions sum to the call's totals.  Each
    # contribution is Boole's rule on the panel's five handed-over samples.
    edges = np.array([0.0, 0.3, 1.0, 2.5])

    def fun(x, _s):
        return np.stack([np.exp(-x * x), np.abs(np.sin(5.0 * x))], axis=1)

    with _accepted_panels() as accepted:
        totals = integrate_segments(fun, edges, rel_tol=1e-10)
        integrate_segments(fun, edges)
    lo, hi, seg, values, samples = accepted
    order = np.lexsort((lo, seg))
    lo, hi, seg, values, samples = lo[order], hi[order], seg[order], values[order], samples[order]
    for k in range(3):
        mine = seg == k
        assert lo[mine][0] == edges[k] and hi[mine][-1] == edges[k + 1]
        assert np.array_equal(lo[mine][1:], hi[mine][:-1])
    sums = np.stack([np.bincount(seg, values[:, c], minlength=3) for c in range(2)], axis=1)
    assert np.allclose(sums, totals, rtol=1e-14, atol=0.0)
    assert values.shape == (lo.size, 2) and lo.size >= 4 * 3
    assert samples.shape == (lo.size, 5, 2)
    mid = 0.5 * (lo + hi)
    for j, at in enumerate((lo, 0.5 * (lo + mid), mid, 0.5 * (mid + hi), hi)):
        assert np.array_equal(samples[:, j], fun(at, None))
    boole = (hi - lo)[:, None] / 90.0 * np.einsum("j,pjc->pc", [7.0, 32.0, 12.0, 32.0, 7.0], samples)
    # Simpson's halves are measured from the rounded midpoint, which moves
    # the sum off Boole's rule by the split's share of the panel's width.
    split = np.abs((mid - lo) - (hi - mid)) / (hi - lo)
    assert np.all(np.abs(boole - values) <= (1e-14 + split[:, None]) * np.abs(values))
    assert np.count_nonzero(split == 0.0) >= lo.size // 2
