"""End-to-end acceptance checks with one printed verdict line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they happen; without ``-s`` pytest shows them in the captured-output
section of any failure.

The sixth check splits the oscillatory target's segment counts by whether
the equalized partition resolves the fastest oscillation: its widest segment
against the shortest local period.  The asymptotic estimate must hold within
2% on every resolved count.  On the unresolved counts it is a leading-order
term outside its regime and may miss on either side; the only direction
forced there is a ceiling, since an interpolant of a function bounded by 1
is itself bounded by 1, so the L1 error cannot exceed 2 (b - a) however fast
the estimate grows as N falls.  README covers the numbers.
"""

import time
from contextlib import contextmanager

import numpy as np

from conftest import LAYOUTS, SWEEP_N, quadratic
from polylin import fit
from polylin.analysis import (
    BOUND_KINDS,
    error_bound,
    l1_distance,
    min_segments_for_tolerance,
    partition_gain,
)
from polylin.core import Partition, PolygonalFunction, from_samples, hat_basis
from polylin.evaluate import bench, evaluate_batch, make_evaluator
from polylin.fit import best_l1_fit, interpolant, l2_projection
from polylin.functions import chirp, gaussian
from polylin.partition import optimized_partition, uniform_partition


@contextmanager
def verdict(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {label}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {label}: PASS")


def test_planner_reproduces_frozen_segment_budgets():
    with verdict(1, "segment budget planner"):
        f = gaussian()
        t0 = time.perf_counter()
        counts = {
            kind: min_segments_for_tolerance(f, 0.0, 4.0, 1e-5, kind)
            for kind in BOUND_KINDS
        }
        elapsed = time.perf_counter() - t0
        assert counts["uniform_interpolant"] == 254
        assert counts["optimized_interpolant"] == 213
        assert counts["uniform_best_l1"] == 156
        assert counts["optimized_best_l1"] == 130
        assert elapsed < 5.0


def test_single_segment_quadratic_closed_forms():
    with verdict(2, "quadratic closed forms"):
        f = quadratic()
        p = uniform_partition(0.0, 1.0, 1)
        err_interp = l1_distance(f, interpolant(f, p))
        best, report = best_l1_fit(f, p)
        err_best = l1_distance(f, best)
        assert report.converged
        assert abs(err_interp - 1.0 / 6.0) <= 1e-9
        assert abs(err_best - 1.0 / 16.0) <= 1e-9
        assert abs(err_interp / err_best - 8.0 / 3.0) <= 1e-6
        assert abs(best.ordinates[0] + 3.0 / 16.0) <= 1e-8
        assert abs(best.ordinates[1] - 13.0 / 16.0) <= 1e-8


def test_errors_decay_as_inverse_square(gaussian_sweep):
    with verdict(3, "inverse-square error decay"):
        rows = gaussian_sweep["rows"]
        bounds = gaussian_sweep["bounds"]
        log_n = np.log(np.asarray(SWEEP_N, dtype=float))
        for layout in LAYOUTS:
            for key in ("interp", "best"):
                errs = np.array([rows[n, layout][key] for n in SWEEP_N])
                slope = np.polyfit(log_n, np.log(errs), 1)[0]
                assert -2.3 <= slope <= -1.7, (layout, key, slope)
        for layout in LAYOUTS:
            for n in (63, 127, 255, 511):
                measured = rows[n, layout]["interp"]
                bound = bounds[n, layout]
                assert abs(measured - bound) <= 0.05 * bound, (layout, n)
        assert gaussian_sweep["elapsed"] < 120.0


def test_best_fit_buys_the_three_eighths_factor(gaussian_sweep):
    with verdict(4, "three-eighths error ratio"):
        for layout in LAYOUTS:
            for n in (127, 255):
                row = gaussian_sweep["rows"][n, layout]
                ratio = row["best"] / row["interp"]
                assert 0.355 <= ratio <= 0.395, (layout, n, ratio)


def test_knot_placement_gain_levels():
    with verdict(5, "knot placement gain"):
        wide = gaussian(domain=(0.0, 8.0))
        gain = partition_gain(wide, 0.0, 8.0)
        assert abs(gain / 64.0 - 0.077) <= 0.1 * 0.077
        # Constant curvature leaves nothing for placement to exploit; the
        # ratio of the two bound constants is then 1 up to quadrature noise.
        assert abs(partition_gain(quadratic(), 0.0, 1.0) - 1.0) <= 1e-12


def test_oscillatory_regime_split():
    with verdict(6, "oscillatory regime split"):
        f = chirp()
        a, b = 0.0, 1.0
        # sin(10 pi x^2) has local period 1 / (10 x), shortest at x = b.
        period = 1.0 / (10.0 * b)
        # |f| <= 1 and the interpolant stays between its samples of f.
        ceiling = 2.0 * (b - a)
        tolerance = 0.02
        counts = (4, 8, 12, 16, 20, 24, 31, 63, 127, 255, 511)
        ratios = {}
        resolved = []
        unresolved = []
        print()
        for n in counts:
            p = optimized_partition(f, a, b, n)
            measured = l1_distance(f, interpolant(f, p))
            estimate = error_bound(f, a, b, n, "optimized_interpolant")
            widest = float(np.max(p.widths))
            ratios[n] = measured / estimate
            band = resolved if widest <= period else unresolved
            band.append(n)
            print(
                f"  N={n:3d}  widest {widest:.4f}  period {period:.4f}  "
                f"measured/estimate {ratios[n]:.4f}  "
                f"{'resolved' if band is resolved else 'unresolved'}"
            )
            assert measured <= ceiling, (n, measured, ceiling)
        # Once the widest segment resolves the fastest oscillation, every
        # larger count does too; the estimate is then in its regime.
        assert unresolved and resolved, (unresolved, resolved)
        assert resolved == list(counts[len(unresolved):]), resolved
        for n in resolved:
            assert abs(ratios[n] - 1.0) <= tolerance, (n, ratios[n])
        # Outside its regime the estimate is off by more than the resolved
        # tolerance, on whichever side.
        worst = max(abs(ratios[n] - 1.0) for n in unresolved)
        assert worst > tolerance, (unresolved, worst)


def test_fit_and_placement_crossover(gaussian_sweep):
    with verdict(7, "fit versus placement crossover"):
        rows = gaussian_sweep["rows"]
        narrow_best_uniform = rows[255, "uniform"]["best"]
        narrow_interp_optimized = rows[255, "optimized"]["interp"]
        assert narrow_best_uniform < narrow_interp_optimized
        wide = gaussian(domain=(0.0, 8.0))
        best, report = best_l1_fit(wide, uniform_partition(0.0, 8.0, 255))
        assert report.converged
        wide_best_uniform = l1_distance(wide, best)
        po = optimized_partition(wide, 0.0, 8.0, 255)
        wide_interp_optimized = l1_distance(wide, interpolant(wide, po))
        assert wide_interp_optimized < wide_best_uniform


def test_property_bundle(gaussian_sweep):
    with verdict(8, "property bundle"):
        f = gaussian()
        rng = np.random.default_rng(17)

        # Hat basis sums to one everywhere on the span.
        knots = np.sort(rng.uniform(0.0, 4.0, 7))
        p = Partition(np.concatenate([[0.0], knots, [4.0]]))
        xs = np.linspace(0.0, 4.0, 2001)
        unity = sum(hat_basis(p, i, xs) for i in range(p.knots.size))
        assert np.max(np.abs(unity - 1.0)) <= 1e-14

        # The exact gradient the fit runs on, against central differences
        # of the exact L1 cost.  Their truncation error is O(step^2) times
        # the cost's third derivative, which at step 1e-6 stays below 1e-9
        # of the gradient on these draws.
        pu = uniform_partition(0.0, 4.0, 8)
        base = from_samples(pu, f).ordinates
        step = 1e-6
        for _ in range(3):
            v = base + 0.05 * rng.standard_normal(base.size)
            grad = fit._crossings(f, pu, v, fit.SAMPLES).grad
            fd = np.empty_like(grad)
            for j in range(v.size):
                vp, vm = v.copy(), v.copy()
                vp[j] += step
                vm[j] -= step
                fd[j] = (
                    l1_distance(f, PolygonalFunction(pu, vp))
                    - l1_distance(f, PolygonalFunction(pu, vm))
                ) / (2.0 * step)
            assert np.max(np.abs(fd - grad)) <= 1e-6 * np.max(np.abs(grad))

        # Moving one ordinate only reaches its own and neighboring
        # gradient entries.  A gradient entry moves with v only where its
        # hat holds a crossing of f - g; the least-squares projection has
        # crossings under every hat.
        v = l2_projection(f, pu).ordinates
        nudge = 1e-2 * np.max(np.abs(np.asarray(f.eval(pu.knots), dtype=float) - v))
        base_grad = fit._crossings(f, pu, v, fit.SAMPLES).grad
        for j in range(v.size):
            w = v.copy()
            w[j] += nudge
            moved = fit._crossings(f, pu, w, fit.SAMPLES).grad
            touched = np.arange(v.size)[np.abs(moved - base_grad) != 0.0]
            assert set(touched) <= {j - 1, j, j + 1}
            assert j in touched

        # A converged fit balances the measure of positive and negative
        # residual on the whole interval.
        p9 = uniform_partition(0.0, 4.0, 9)
        g9, report9 = best_l1_fit(f, p9)
        assert report9.converged
        grid = np.linspace(0.0, 4.0, 400001)
        resid = np.asarray(f.eval(grid), dtype=float) - np.interp(
            grid, p9.knots, g9.ordinates
        )
        m_plus = 4.0 * np.count_nonzero(resid > 0.0) / grid.size
        m_minus = 4.0 * np.count_nonzero(resid < 0.0) / grid.size
        assert abs(m_plus - m_minus) <= 8e-3

        # Both evaluator modes agree and reproduce the ordinates exactly
        # at the knots.
        g = interpolant(f, uniform_partition(0.0, 4.0, 64))
        direct = make_evaluator(g, mode="uniform_direct")
        search = make_evaluator(g, mode="binary_search")
        probe = rng.uniform(0.0, 4.0, 20001)
        assert np.max(np.abs(evaluate_batch(direct, probe) - evaluate_batch(search, probe))) <= 1e-12
        assert np.array_equal(evaluate_batch(direct, g.partition.knots), g.ordinates)
        assert np.array_equal(evaluate_batch(search, g.partition.knots), g.ordinates)

        # Every sweep fit stayed within the function-evaluation budget.
        for row in gaussian_sweep["rows"].values():
            report = row["report"]
            assert report.converged
            assert report.function_evals <= 50


def test_per_evaluation_timing_trend():
    # Informational only: timings depend on the host, so nothing here
    # gates the suite; the table and the two trend observations are
    # printed for inspection.
    with verdict(9, "timing trend (informational)"):
        f = gaussian()
        uniform_ns = {}
        search_ns = {}
        for n in SWEEP_N:
            gu = interpolant(f, uniform_partition(0.0, 4.0, n))
            go = interpolant(f, optimized_partition(f, 0.0, 4.0, n))
            eu = make_evaluator(gu, mode="uniform_direct")
            es = make_evaluator(go, mode="binary_search")
            uniform_ns[n] = bench(eu, 100_000, seed=7).min_ns
            search_ns[n] = bench(es, 100_000, seed=7).min_ns
        print()
        print("    N   uniform ns/eval   search ns/eval")
        for n in SWEEP_N:
            print(f"  {n:4d}   {uniform_ns[n]:13.2f}   {search_ns[n]:14.2f}")
        spread = max(uniform_ns.values()) / min(uniform_ns.values())
        ordered = [search_ns[n] for n in SWEEP_N]
        nondecreasing = all(a <= b for a, b in zip(ordered, ordered[1:]))
        print(f"  uniform-mode spread across N: {spread:.2f}x (expect < 2x)")
        print(
            "  search-mode nondecreasing in N: "
            f"{nondecreasing} (expect True on quiet hosts)"
        )
