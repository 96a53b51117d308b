"""Partition, polygonal containers, hat basis, sampling."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import as_target, hat_basis, quadratic
from polylin.core import (
    Partition,
    PolygonalFunction,
    TargetFunction,
    VectorTargetFunction,
    from_samples,
)
from polylin.functions import expression, gaussian
from polylin.partition import uniform_partition

# Normal density at the integers 0..4, from standard tables.
PHI_TABLE = [
    0.3989422804014327,
    0.24197072451914337,
    0.05399096651318806,
    0.0044318484119380075,
    0.00013383022576488537,
]


def test_hat_values_on_three_knots():
    p = uniform_partition(0.0, 1.0, 2)
    assert hat_basis(p, 1, 0.5) == 1.0
    assert hat_basis(p, 1, 0.0) == 0.0
    assert hat_basis(p, 1, 1.0) == 0.0
    assert hat_basis(p, 1, 0.25) == 0.5
    assert hat_basis(p, 0, 0.0) == 1.0
    assert hat_basis(p, 0, 0.25) == 0.5
    assert hat_basis(p, 2, 1.0) == 1.0
    assert hat_basis(p, 2, 0.5) == 0.0


def test_hat_is_one_at_own_knot_zero_at_others():
    p = Partition(np.array([0.0, 0.3, 0.45, 1.0, 2.5]))
    for i, x in enumerate(p.knots):
        for j in range(len(p)):
            assert hat_basis(p, j, x) == (1.0 if i == j else 0.0)


def test_hat_partition_of_unity():
    rng = np.random.default_rng(3)
    knots = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, 7)), [1.0]])
    p = Partition(knots)
    xs = np.linspace(0.0, 1.0, 1001)
    total = sum(hat_basis(p, i, xs) for i in range(len(p)))
    assert np.max(np.abs(total - 1.0)) <= 1e-14


def test_hat_local_support():
    p = Partition(np.array([0.0, 1.0, 3.0, 4.0, 4.5]))
    xs = np.linspace(0.0, 4.5, 901)
    phi = hat_basis(p, 2, xs)
    outside = (xs < 1.0) | (xs > 4.0)
    assert np.all(phi[outside] == 0.0)
    assert np.all(phi >= 0.0)
    assert np.all(phi <= 1.0)


def test_hat_argument_errors():
    p = uniform_partition(0.0, 1.0, 2)
    with pytest.raises(IndexError):
        hat_basis(p, 3, 0.5)
    with pytest.raises(IndexError):
        hat_basis(p, -1, 0.5)
    with pytest.raises(ValueError):
        hat_basis(p, 1, 1.5)


@settings(deadline=None)
@given(
    st.lists(
        st.floats(-10.0, 10.0, allow_nan=False),
        min_size=2,
        max_size=9,
        unique=True,
    )
)
def test_hat_unity_on_generated_partitions(raw):
    knots = np.sort(np.asarray(raw, dtype=float))
    if np.min(np.diff(knots)) < 1e-6:
        return
    p = Partition(knots)
    xs = np.linspace(knots[0], knots[-1], 257)
    total = sum(hat_basis(p, i, xs) for i in range(len(p)))
    assert np.max(np.abs(total - 1.0)) <= 1e-14


def test_partition_rejects_bad_knots():
    with pytest.raises(ValueError):
        Partition(np.array([0.5]))
    with pytest.raises(ValueError):
        Partition(np.array([0.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        Partition(np.array([0.0, 2.0, 1.0]))
    with pytest.raises(ValueError):
        Partition(np.array([0.0, np.nan, 1.0]))
    with pytest.raises(ValueError):
        Partition(np.array([[0.0, 1.0]]))


def test_partition_rejects_an_overflowing_span():
    # Every knot and every width is finite; only b - a overflows.  Such knots
    # used to be classed uniform, and the uniform kernel returned NaN.
    with pytest.raises(ValueError, match="knot span must be finite"):
        Partition(np.array([-1e308, 0.0, 1e307, 1e308]))
    assert Partition(np.array([-8e307, 0.0, 8e307])).is_uniform


def test_partition_properties():
    p = Partition(np.array([-1.0, 0.5, 2.0]))
    assert p.n_segments == 2
    assert len(p) == 3
    assert p.a == -1.0 and p.b == 2.0
    assert p.interval == (-1.0, 2.0)
    assert np.array_equal(p.widths, [1.5, 1.5])
    with pytest.raises(ValueError):
        p.knots[0] = 7.0  # read-only backing array


def test_partition_uniform_flag():
    assert uniform_partition(0.0, 4.0, 4).is_uniform
    assert Partition(np.array([0.0, 0.5 + 1e-13, 1.0])).is_uniform
    assert not Partition(np.array([0.0, 0.5 + 1e-10, 1.0])).is_uniform
    assert not Partition(np.array([0.0, 0.3, 1.0])).is_uniform


def test_polygonal_validation():
    p = uniform_partition(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        PolygonalFunction(p, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        PolygonalFunction(p, np.array([1.0, np.inf, 0.0]))
    g = PolygonalFunction(p, np.array([1.0, 2.0, 0.5]))
    assert g.partition is p


def test_from_samples_matches_density_table():
    f = gaussian()
    g = from_samples(uniform_partition(0.0, 4.0, 4), f)
    assert np.allclose(g.ordinates, PHI_TABLE, rtol=1e-15, atol=0.0)


def test_from_samples_reproduces_polygonal_exactly():
    rng = np.random.default_rng(11)
    knots = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 0.9, 5)), [1.0]])
    g = PolygonalFunction(Partition(knots), rng.standard_normal(7))
    h = from_samples(g.partition, as_target(g))
    assert np.array_equal(h.ordinates, g.ordinates)


def test_from_samples_rejects_nonfinite_sample():
    f = TargetFunction(
        lambda x: np.where(np.asarray(x, dtype=float) == 0.0, np.inf, 1.0),
        lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        (-1.0, 1.0),
        lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )
    with pytest.raises(ValueError, match="knot 1"):
        from_samples(uniform_partition(-1.0, 1.0, 2), f)


def test_from_samples_rejects_scalar_only_eval():
    f = TargetFunction(lambda x: 1.23, lambda x: 0.0, (0.0, 1.0), lambda x: 0.0)
    with pytest.raises(ValueError, match="elementwise"):
        from_samples(uniform_partition(0.0, 1.0, 2), f)


def test_target_requires_a_second_derivative():
    def square(x):
        return np.asarray(x, dtype=float) ** 2

    def twice(x):
        return 2.0 * np.asarray(x, dtype=float)

    with pytest.raises(TypeError):
        TargetFunction(square, domain=(0.0, 1.0), first_derivative=twice)
    # f' is required too: the fit and the curvature scan both read it.
    with pytest.raises(TypeError):
        TargetFunction(square, lambda x: np.full_like(np.asarray(x, dtype=float), 2.0), (0.0, 1.0))
    g = quadratic()
    assert float(g.d2(0.25)) == 2.0
    assert float(g.first_derivative(0.25)) == 0.5


def test_target_validation():
    with pytest.raises(ValueError):
        TargetFunction(lambda x: x, lambda x: 0.0 * x, (1.0, 1.0), lambda x: 0.0 * x + 1.0)
    with pytest.raises(ValueError):
        TargetFunction(lambda x: x, lambda x: 0.0 * x, (0.0, np.inf), lambda x: 0.0 * x + 1.0)


def test_as_target_interpolates_linearly():
    knots = np.array([0.0, 0.25, 1.0])
    g = PolygonalFunction(Partition(knots), np.array([1.0, 0.0, 2.0]))
    f = as_target(g)
    xs = np.linspace(0.0, 1.0, 101)
    assert np.max(np.abs(f.eval(xs) - np.interp(xs, knots, g.ordinates))) <= 1e-15
    assert np.all(f.d2(xs) == 0.0)
    assert np.array_equal(f.first_derivative(xs), np.where(xs < 0.25, -4.0, 8.0 / 3.0))
    assert f.domain == (0.0, 1.0)


def test_vector_target_validation():
    f = quadratic()
    g = quadratic(domain=(0.0, 2.0))
    with pytest.raises(ValueError):
        VectorTargetFunction(components=(f, g))
    with pytest.raises(ValueError):
        VectorTargetFunction(components=())
    F = VectorTargetFunction(components=(f, quadratic()))
    assert len(F) == 2
    assert F.domain == (0.0, 1.0)


def test_expression_divides_by_zero_quietly_on_both_paths():
    f = expression("x+1/0", (0.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert f.eval(0.5) == np.inf
        assert np.all(f.eval(np.array([0.25, 0.5])) == np.inf)
        assert np.isnan(expression("sqrt(x-2)", (0.0, 1.0)).eval(0.5))
