"""Adaptive Simpson engine: closed forms, kinks, floors, failure paths."""

import inspect

import numpy as np
import pytest

from polylin.quadrature import QuadratureError, integrate_segments


def integral(fun, a, b, **kwargs):
    """Integral of a one-argument integrand over [a, b] on eight segments."""
    return float(np.sum(integrate_segments(lambda x, _s: fun(x), np.linspace(a, b, 9), **kwargs)))


def test_polynomial_and_transcendental_closed_forms():
    assert abs(integral(lambda x: x**2, 0.0, 1.0) - 1.0 / 3.0) <= 1e-13
    assert abs(integral(np.sin, 0.0, np.pi) - 2.0) <= 1e-12
    assert abs(integral(np.exp, 0.0, 1.0) - (np.e - 1.0)) <= 1e-12
    assert abs(integral(lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0) - np.pi / 4.0) <= 1e-12


def test_absolute_value_with_interior_kink():
    # integral of |x - c| over [0, 1] is (c^2 + (1-c)^2) / 2
    assert abs(integral(lambda x: x - 0.3, 0.0, 1.0, absolute=True) - 0.29) <= 1e-12
    assert abs(integral(lambda x: x - 1.0 / 3.0, 0.0, 1.0, absolute=True) - 5.0 / 18.0) <= 1e-12
    assert abs(integral(np.sin, 0.0, 2.0 * np.pi, absolute=True) - 4.0) <= 1e-11


def test_absolute_value_sums_components_and_bisects_each_kink():
    # |x - 0.3| + |0.6 - x| over [0, 1]: (0.09 + 0.49)/2 + (0.36 + 0.16)/2.
    edges = np.linspace(0.0, 1.0, 4)
    parts = integrate_segments(
        lambda x, _s: np.stack([x - 0.3, 0.6 - x], axis=1), edges, absolute=True
    )
    assert parts.shape == (3,)
    assert abs(np.sum(parts) - 0.55) <= 1e-12
    single = integrate_segments(lambda x, _s: x - 0.3, edges, absolute=True)
    stacked = integrate_segments(lambda x, _s: (x - 0.3)[:, None], edges, absolute=True)
    assert np.array_equal(single, stacked)


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


def test_steep_sigmoid_ramp_converges():
    # Amplitude-one ramp: value jitter near the transition sits around
    # k * ulp, far above the absolute budget, so acceptance must come from
    # the rounding floor rather than endless bisection.
    k = 1e6
    out = integrate_segments(lambda x, seg: np.tanh(k * (x - 1.0 / 3.0)), np.array([0.0, 1.0]))
    assert abs(out[0] - 1.0 / 3.0) <= 1e-10


def test_resolve_floor_forces_honest_failure_on_rough_integrand():
    edges = np.array([0.0, 1.0])
    c = 1.0 / 3.0
    cusp = lambda x, seg: np.sqrt(np.abs(x - c))
    exact = (2.0 / 3.0) * (c**1.5 + (1.0 - c) ** 1.5)
    fine = integrate_segments(cusp, edges)
    assert abs(fine[0] - exact) <= 1e-11
    # Claiming the integrand is smooth below width 0.2 stops refinement at
    # panels that still carry real cusp error; the residual check must trip.
    with pytest.raises(QuadratureError, match="residual"):
        integrate_segments(cusp, edges, resolve_floor=0.2)


def test_resolve_floor_harmless_on_smooth_integrand():
    out = integrate_segments(lambda x, seg: x**2, np.array([0.0, 1.0]), resolve_floor=0.25)
    assert abs(out[0] - 1.0 / 3.0) <= 1e-12


def test_nonfinite_integrand_raises():
    with pytest.raises(QuadratureError, match="non-finite"):
        integral(lambda x: np.where(x == 0.0, np.inf, 1.0), 0.0, 1.0)


def test_wrong_shape_integrand_raises():
    # Malformed whatever the component count: wrong length, a scalar, a
    # third axis, no column, or a column count that changes between calls.
    edges = np.array([0.0, 1.0])
    for fun in (
        lambda x, seg: np.ones(x.size + 1),
        lambda x, seg: 1.0,
        lambda x, seg: np.ones((x.size, 2, 1)),
        lambda x, seg: np.ones((x.size, 0)),
        lambda x, seg: np.ones((x.size, 1 + (x[0] > 0.0))),
    ):
        with pytest.raises(ValueError, match="shape"):
            integrate_segments(fun, edges)


def test_argument_validation():
    edges = np.array([0.0, 1.0])
    with pytest.raises(ValueError):
        integrate_segments(lambda x, seg: x, np.array([0.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        integrate_segments(lambda x, seg: x)
    with pytest.raises(ValueError, match="resolve_floor"):
        integrate_segments(lambda x, seg: x, edges, resolve_floor=-0.1)
    with pytest.raises(ValueError, match="resolve_floor"):
        integrate_segments(lambda x, seg: x, edges, resolve_floor=np.array([0.1]))
    with pytest.raises(ValueError, match="hi < lo"):
        integrate_segments(
            lambda x, s: x, panels=(np.array([1.0]), np.array([0.0]), np.array([0]), 1)
        )


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
