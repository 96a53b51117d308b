"""Vector-valued targets: shared partitions, summed errors, componentwise fits."""

import numpy as np
import pytest

from conftest import cubic, linear, quadratic, shifted_gaussian
from polylin.analysis import curvature, l1_distance
from polylin.core import TargetFunction, VectorTargetFunction, from_samples
from polylin.fit import best_l1_fit, interpolant
from polylin.functions import gaussian
from polylin.partition import knot_density, optimized_partition, uniform_partition
from polylin.vector import (
    vector_best_l1_fit,
    vector_bound_optimized_interpolant,
    vector_bound_uniform_interpolant,
    vector_build_distribution,
    vector_interpolant,
    vector_l1_distance,
    vector_optimized_partition,
)


def _negated_quadratic(domain=(0.0, 1.0)):
    return TargetFunction(
        eval=lambda x: -np.asarray(x, dtype=float) ** 2,
        second_derivative=lambda x: np.full_like(np.asarray(x, dtype=float), -2.0),
        domain=domain,
    )


def test_single_component_reduces_to_scalar():
    f = gaussian()
    F = VectorTargetFunction(components=(f,))
    xs = np.linspace(0.0, 4.0, 21)
    assert np.array_equal(knot_density(F, xs), knot_density(f, xs))
    p_vec = vector_optimized_partition(F, 0.0, 4.0, 16)
    p_scal = optimized_partition(f, 0.0, 4.0, 16)
    assert np.array_equal(p_vec.knots, p_scal.knots)
    g = interpolant(f, p_scal)
    assert vector_l1_distance(F, [g]) == l1_distance(f, g)


def test_density_adds_curvature_before_the_cube_root():
    # |f''| sums across components: two opposite parabolas give (2+2)^{1/3}.
    F = VectorTargetFunction(components=(quadratic(), _negated_quadratic()))
    xs = np.linspace(0.0, 1.0, 9)
    assert np.max(np.abs(knot_density(F, xs) - 4.0 ** (1.0 / 3.0))) <= 1e-14


def test_flat_component_does_not_move_knots():
    # A linear component adds no curvature, so the pair's knots match the
    # scalar power law of the cubic alone.
    F = VectorTargetFunction(components=(cubic(), linear(slope=0.0, intercept=0.3)))
    p = vector_optimized_partition(F, 0.0, 1.0, 4)
    expected = (np.arange(5) / 4.0) ** 0.75
    assert np.max(np.abs(p.knots - expected)) <= 1e-9
    dist = vector_build_distribution(F, 0.0, 1.0)
    assert abs(dist.value(0.5) - 0.5 ** (4.0 / 3.0)) <= 1e-9


def test_distance_is_additive():
    F = VectorTargetFunction(components=(quadratic(), cubic()))
    p = uniform_partition(0.0, 1.0, 1)
    gs = vector_interpolant(F, p)
    assert abs(vector_l1_distance(F, gs) - 5.0 / 12.0) <= 1e-12
    parts = [l1_distance(c, g) for c, g in zip(F.components, gs)]
    assert abs(vector_l1_distance(F, gs) - sum(parts)) <= 1e-13


def test_component_permutation_is_irrelevant():
    f, g = gaussian(), shifted_gaussian(1.0)
    F = VectorTargetFunction(components=(f, g))
    G = VectorTargetFunction(components=(g, f))
    xs = np.linspace(0.0, 4.0, 33)
    assert np.array_equal(knot_density(F, xs), knot_density(G, xs))
    pf = vector_optimized_partition(F, 0.0, 4.0, 16)
    pg = vector_optimized_partition(G, 0.0, 4.0, 16)
    assert np.max(np.abs(pf.knots - pg.knots)) <= 1e-12


def test_vector_interpolant_samples_each_component():
    F = VectorTargetFunction(components=(gaussian(), shifted_gaussian(1.0)))
    p = uniform_partition(0.0, 4.0, 8)
    gs = vector_interpolant(F, p)
    assert len(gs) == 2
    for c, g in zip(F.components, gs):
        assert np.array_equal(g.ordinates, from_samples(p, c).ordinates)


def test_vector_fit_is_componentwise():
    F = VectorTargetFunction(components=(gaussian(), shifted_gaussian(1.0)))
    p = uniform_partition(0.0, 4.0, 15)
    gs, reports = vector_best_l1_fit(F, p)
    assert all(r.converged for r in reports)
    for c, g, r in zip(F.components, gs, reports):
        solo, solo_report = best_l1_fit(c, p)
        assert np.max(np.abs(g.ordinates - solo.ordinates)) <= 1e-10
        assert abs(r.final_cost - solo_report.final_cost) <= 1e-11


def test_vector_fit_advantage_on_gaussian_pair():
    F = VectorTargetFunction(components=(gaussian(), shifted_gaussian(1.0)))
    p = vector_optimized_partition(F, 0.0, 4.0, 255)
    interp_err = vector_l1_distance(F, vector_interpolant(F, p))
    gs, reports = vector_best_l1_fit(F, p)
    assert all(r.converged for r in reports)
    ratio = vector_l1_distance(F, gs) / interp_err
    assert 0.9 * 0.375 <= ratio <= 1.1 * 0.375


def test_vector_bounds_reduce_and_add():
    f = gaussian()
    single = VectorTargetFunction(components=(f,))
    double = VectorTargetFunction(components=(f, f))
    scalar = curvature(f, 0.0, 4.0).bounds(63)["uniform_interpolant"]
    assert vector_bound_uniform_interpolant(single, 0.0, 4.0, 63) == scalar
    assert abs(vector_bound_uniform_interpolant(double, 0.0, 4.0, 63) - 2.0 * scalar) <= 1e-14
    assert vector_bound_optimized_interpolant(double, 0.0, 4.0, 63) <= vector_bound_uniform_interpolant(double, 0.0, 4.0, 63)


def test_vector_bounds_reject_empty_partitions(monkeypatch):
    import polylin
    from polylin import analysis, quadrature

    assert "vector_bound_uniform_interpolant" in polylin.__all__
    assert "vector_bound_optimized_interpolant" in polylin.__all__

    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature ran before the segment count was checked")

    for module in (quadrature, analysis):
        monkeypatch.setattr(module, "integrate_segments", no_quadrature)
    F = VectorTargetFunction(components=(gaussian(), quadratic((0.0, 4.0))))
    for bound in (vector_bound_uniform_interpolant, vector_bound_optimized_interpolant):
        for n in (0, -3):
            with pytest.raises(ValueError, match="at least one segment"):
                bound(F, 0.0, 4.0, n)


def test_vector_distance_validates_lengths():
    F = VectorTargetFunction(components=(quadratic(), cubic()))
    p = uniform_partition(0.0, 1.0, 2)
    gs = vector_interpolant(F, p)
    with pytest.raises(ValueError):
        vector_l1_distance(F, gs[:1])


def test_vector_partition_keeps_knots_apart(monkeypatch):
    # Coincident quantiles are nudged apart by the spacing guard, as for a
    # scalar target.
    from polylin import partition, vector

    def coincident(dist, targets):
        return np.full(np.size(targets), 0.5)

    for module in (partition, vector):
        monkeypatch.setattr(module, "invert_distribution", coincident, raising=False)
    F = VectorTargetFunction(components=(quadratic(), cubic()))
    p = vector_optimized_partition(F, 0.0, 1.0, 4)
    assert p.a == 0.0 and p.b == 1.0
    assert np.all(np.diff(p.knots) > 0.0)
