"""Command-line interface: outputs, exit codes, determinism, model files."""

import argparse
import contextlib
import copy
import csv
import importlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polylin import analysis, cli, fit, partition
from polylin.core import PolygonalFunction
from polylin.fit import FitReport
from polylin.partition import uniform_partition
from polylin.quadrature import QuadratureError


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_partition_uniform_csv(capsys):
    code, out, err = run(
        capsys, "partition", "--function", "gaussian", "--segments", "4"
    )
    assert code == 0 and err == ""
    rows = rows_of(out)
    assert [r["index"] for r in rows] == ["0", "1", "2", "3", "4"]
    assert [float(r["knot"]) for r in rows] == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_partition_optimized_to_file(tmp_path, capsys):
    out_file = tmp_path / "knots.csv"
    code, _out, _err = run(
        capsys,
        "partition",
        "--function",
        "gaussian",
        "--segments",
        "8",
        "--partition",
        "optimized",
        "--out",
        str(out_file),
    )
    assert code == 0
    knots = np.array([float(r["knot"]) for r in rows_of(out_file.read_text())])
    assert knots[0] == 0.0 and knots[-1] == 4.0
    assert np.all(np.diff(knots) > 0.0)
    assert np.max(np.abs(knots - np.linspace(0.0, 4.0, 9))) > 1e-3


def test_interval_and_polynomial_function(capsys):
    code, out, _err = run(
        capsys,
        "partition",
        "--function",
        "poly:0,0,1",
        "--interval",
        "0",
        "2",
        "--segments",
        "2",
    )
    assert code == 0
    assert [float(r["knot"]) for r in rows_of(out)] == [0.0, 1.0, 2.0]


def test_fit_writes_model_and_error_round_trips(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    code, _out, _err = run(
        capsys,
        "fit",
        "--function",
        "gaussian",
        "--segments",
        "8",
        "--fit",
        "l1",
        "--format",
        "json",
        "--out",
        str(model_path),
    )
    assert code == 0
    model = json.loads(model_path.read_text())
    assert model["schema"] == 1 and model["kind"] == "polylin-model"
    assert len(model["knots"]) == 9 and len(model["ordinates"]) == 9
    assert model["fit"]["report"]["converged"] is True
    assert model["cost"] > 0.0

    code, out, _err = run(capsys, "error", "--model", str(model_path))
    assert code == 0
    row = rows_of(out)[0]
    assert int(row["n_segments"]) == 8
    assert float(row["difference"]) <= 1e-12


def test_fit_refuses_csv(capsys):
    code, _out, err = run(
        capsys, "fit", "--function", "gaussian", "--segments", "4", "--format", "csv"
    )
    assert code == 2
    assert "json" in err


def test_error_reports_measured_and_bounds(capsys):
    code, out, _err = run(
        capsys, "error", "--function", "gaussian", "--segments", "63"
    )
    assert code == 0
    row = rows_of(out)[0]
    measured = float(row["measured"])
    bound = float(row["bound_uniform_interpolant"])
    assert measured <= bound * 1.05
    assert set(row) >= {
        "function",
        "n_segments",
        "partition",
        "fit",
        "measured",
        "bound_uniform_interpolant",
        "bound_optimized_interpolant",
        "bound_uniform_best_l1",
        "bound_optimized_best_l1",
    }


def test_plan_matches_frozen_counts(capsys):
    code, out, _err = run(
        capsys, "plan", "--function", "gaussian", "--tolerance", "1e-5"
    )
    assert code == 0
    counts = {r["kind"]: int(r["n_segments"]) for r in rows_of(out)}
    assert counts == {
        "uniform_interpolant": 254,
        "optimized_interpolant": 213,
        "uniform_best_l1": 156,
        "optimized_best_l1": 130,
    }


def test_reproduce_gain_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "reproduce", "gain")
    code2, out2, _ = run(capsys, "reproduce", "gain")
    assert code1 == 0 and code2 == 0
    assert out1 == out2
    rows = rows_of(out1)
    assert len(rows) == 16
    final = rows[-1]
    assert float(final["b"]) == 8.0
    assert 0.9 * 0.077 <= float(final["gain_over_b_squared"]) <= 1.1 * 0.077


def test_reproduce_small_sweep(capsys):
    code, out, _err = run(
        capsys, "reproduce", "gaussian04", "--n-values", "15"
    )
    assert code == 0
    row = rows_of(out)[0]
    assert int(row["n_segments"]) == 15
    assert 0.30 <= float(row["ratio_uniform"]) <= 0.45
    assert float(row["best_l1_uniform"]) <= float(row["interp_uniform"])


def test_config_errors_exit_2(tmp_path, capsys):
    code, _out, err = run(
        capsys, "partition", "--function", "sinc", "--segments", "4"
    )
    assert code == 2 and "unknown function" in err

    code, _out, err = run(
        capsys,
        "partition",
        "--function",
        "gaussian",
        "--segments",
        "4",
        "--tolerance",
        "1e-3",
    )
    assert code == 2 and "mutually exclusive" in err

    junk = tmp_path / "junk.json"
    junk.write_text("{\"kind\": \"other\"}")
    code, _out, err = run(capsys, "error", "--model", str(junk))
    assert code == 2

    code, _out, err = run(capsys, "error", "--model", str(tmp_path / "missing.json"))
    assert code == 2

    code, _out, err = run(
        capsys,
        "partition",
        "--function",
        "expr:sin(",
        "--interval",
        "0",
        "1",
        "--segments",
        "2",
    )
    assert code == 2

    code, _out, err = run(
        capsys, "bench", "--function", "gaussian", "--segments", "4", "--n-evals", "99"
    )
    assert code == 2 and "at least" in err


def _write_model(tmp_path, capsys):
    path = tmp_path / "model.json"
    code, _out, _err = run(
        capsys, "fit", "--function", "gaussian", "--segments", "4", "--out", str(path)
    )
    assert code == 0
    return path, json.loads(path.read_text())


def test_model_top_level_must_be_an_object(tmp_path, capsys):
    path = tmp_path / "array.json"
    path.write_text("[1, 2]")
    code, _out, err = run(capsys, "error", "--model", str(path))
    assert code == 2 and "schema-1" in err


@pytest.mark.parametrize("field", ["function", "knots", "ordinates", "cost"])
def test_model_missing_field_exits_2(tmp_path, capsys, field):
    path, model = _write_model(tmp_path, capsys)
    del model[field]
    path.write_text(json.dumps(model))
    code, _out, err = run(capsys, "error", "--model", str(path))
    assert code == 2 and field in err


@pytest.mark.parametrize(
    "field, value",
    [
        ("function", "gaussian"),
        ("knots", "0 1 2"),
        ("ordinates", {"a": 1}),
        ("cost", "cheap"),
        # A poly or expr target needs its coefficients or its text.
        ("function", {"name": "poly", "interval": [0.0, 4.0]}),
        ("function", {"name": "expr", "interval": [0.0, 4.0], "expression": 2}),
    ],
)
def test_model_mistyped_field_exits_2(tmp_path, capsys, field, value):
    path, model = _write_model(tmp_path, capsys)
    model[field] = value
    path.write_text(json.dumps(model))
    code, _out, err = run(capsys, "error", "--model", str(path))
    assert code == 2 and "malformed" in err


def test_model_past_its_interval_exits_2(tmp_path, capsys):
    path, model = _write_model(tmp_path, capsys)
    model["knots"][-1] = 5.0  # gaussian's interval is [0, 4]
    path.write_text(json.dumps(model))
    code, out, err = run(capsys, "error", "--model", str(path))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("polylin: ")
    assert "outside the target domain" in err and "Traceback" not in err


def test_model_with_an_overflowing_span_exits_2(tmp_path, capsys):
    path, model = _write_model(tmp_path, capsys)
    model["knots"] = [-1e308, -1e307, 0.0, 1e307, 1e308]
    path.write_text(json.dumps(model))
    code, out, err = run(capsys, "error", "--model", str(path))
    assert code == 2 and out == ""
    assert "knot span must be finite" in err and "Traceback" not in err


def test_reproduce_gaussian08_within_bounds(capsys):
    code, out, err = run(capsys, "reproduce", "gaussian08", "--n-values", "63")
    assert code == 0, err
    row = {k: float(v) for k, v in rows_of(out)[0].items()}
    for where in ("uniform", "optimized"):
        assert row[f"best_l1_{where}"] <= row[f"interp_{where}"]
        for measured, bound in (
            (f"interp_{where}", f"bound_{where}_interpolant"),
            (f"best_l1_{where}", f"bound_{where}_best_l1"),
        ):
            assert 1.0 / 1.1 <= row[measured] / row[bound] <= 1.1, (measured, bound)


def test_unconverged_fit_exits_3(capsys, monkeypatch):
    report = FitReport(
        iterations=1,
        final_cost=1.0,
        converged=False,
        function_evals=1,
        optimality_residual=1.0,
    )

    def fake_fit(f, p):
        return PolygonalFunction(p, np.zeros(len(p))), report

    monkeypatch.setattr(cli.fit, "best_l1_fit", fake_fit)
    code, _out, err = run(
        capsys, "error", "--function", "gaussian", "--segments", "4", "--fit", "l1"
    )
    assert code == 3 and "converge" in err


def test_diverged_fit_reports_non_convergence(capsys, monkeypatch):
    # The fit is stopped before its first Newton step and its cost
    # quadrature fails; the message must name the fit's non-convergence,
    # not that quadrature failure.
    def failing_cost(*args):
        raise QuadratureError("cost quadrature failed")

    monkeypatch.setattr(fit, "MAX_NEWTON_ITERS", 0)
    monkeypatch.setattr(fit, "_cost", failing_cost)
    code, out, err = run(
        capsys, "error", "--function", "expr:exp(-x^2/2)/sqrt(2*pi)",
        "--interval", "0", "8", "--segments", "8", "--fit", "l1",
    )
    assert code == 3 and out == ""
    assert "L1 fit did not converge" in err


CUBIC = "poly:-0.5802269485031875,-0.11899096250260488,-0.39539326738026737,-0.42834608443143635"
CUBIC9 = "poly:-0.5608466171004731,0.44641705909620955,-0.8507905741903008,0.8256341376485636"


@pytest.mark.parametrize(
    "where, exact",
    [
        # Segment 59's one crossing lies h/65 left of its right knot.
        (("--function", CUBIC, "--interval", "-2", "2", "--segments", "150", "--partition", "optimized"),
         0.00052141263685556018),
        # Segment 197's one crossing lies h/51 left of its right knot.
        (("--function", "chirp", "--interval", "0", "1", "--segments", "255"), 0.0010825493209258),
        # plan_verify seed 9: segment 265's one crossing lies h/24 left of
        # its right knot.
        (("--function", CUBIC9, "--interval", "-2", "2", "--segments", "433", "--partition", "optimized"),
         0.00012118662297470464),
    ],
)
def test_interpolant_error_counts_the_lobe_beside_a_knot(capsys, where, exact):
    # e = 0 exactly at the knots of an interpolant, so no Simpson sample
    # shows the sign of a lobe between a knot and the panel's next sample;
    # f' - s at the knot gives it.  References: mpmath 1.3.0 at 50 digits,
    # exact integrals of |e| between the cubic's roots on the program's
    # knots and ordinates (cubic); a Richardson-extrapolated 2^23-cell
    # midpoint sum (chirp).
    code, out, err = run(capsys, "error", *where, "--fit", "interpolant", "--format", "json")
    assert code == 0, err
    (row,) = json.loads(out)
    assert abs(row["measured"] - exact) <= 1e-15


def test_infinite_slope_at_a_knot_keeps_the_measured_error(capsys):
    # f' = inf at x = 0 leaves the knot rule without a sign there: the cost
    # and exit codes are what they were before the rule.
    where = ("--function", "expr:sqrt(x)", "--interval", "0", "1", "--segments", "4")
    code, out, err = run(capsys, "fit", *where, "--fit", "interpolant", "--format", "json")
    assert code == 0, err
    assert json.loads(out)["cost"] == 0.0233836204239201
    code, out, err = run(capsys, "error", *where)
    assert code == 2 and out == ""
    assert "second derivative is not finite" in err


@pytest.mark.parametrize("n", ["4", "31"])
@pytest.mark.parametrize("text", ["poly:0,1,1e-9", "expr:x+1e-9*x^2", "poly:0,1,1e-12"])
def test_near_line_l1_fit_converges(capsys, text, n):
    # At the crossings of a near-line's fit e' is about 1e-10 (1e-13 for
    # the 1e-12 curvature), below the rounding of a difference quotient of
    # f; the exact f' resolves it.
    code, out, err = run(
        capsys, "error", "--function", text, "--interval", "0", "1", "--segments", n, "--fit", "l1",
    )
    assert code == 0, err
    (row,) = rows_of(out)
    if "1e-9" in text:
        # f'' is constant, so the best-L1 bound is the best fit's error.
        bound = float(row["bound_uniform_best_l1"])
        assert abs(float(row["measured"]) - bound) <= 1e-3 * bound


def test_environment_variables_change_nothing():
    # polylin reads no environment variable.  Each run is a fresh
    # interpreter, because a knob could be read at import.
    src = str(Path(cli.__file__).resolve().parents[1])
    argv = [sys.executable, "-m", "polylin.cli", "plan", "--function", "gaussian",
            "--tolerance", "1e-5"]
    base = {k: v for k, v in os.environ.items() if not k.startswith("POLYLIN_")}
    base["PYTHONPATH"] = src
    plain, knobs = (
        subprocess.run(argv, env={**base, **extra}, capture_output=True, text=True, timeout=120)
        for extra in ({}, {"POLYLIN_QUAD_TOL": "oops", "POLYLIN_NO_NUMBA": "1"})
    )
    assert plain.returncode == 0 and plain.stdout, plain.stderr
    assert (knobs.returncode, knobs.stdout) == (0, plain.stdout), knobs.stderr


def test_bench_single_row_smoke(capsys):
    code, out, _err = run(
        capsys,
        "bench",
        "--function",
        "gaussian",
        "--segments",
        "15",
        "--n-evals",
        "100000",
    )
    assert code == 0
    rows = rows_of(out)
    assert [r["mode"] for r in rows] == ["uniform_direct", "binary_search"]
    for r in rows:
        assert float(r["mean_ns"]) > 0.0
        assert float(r["target_ns"]) > 0.0
        assert int(r["n_evals"]) == 100000
        assert int(r["workers"]) == importlib.import_module("polylin.evaluate")._WORKERS


def test_bench_rejects_options_it_does_not_read(capsys):
    # bench times a fixed sweep or --segments; a tolerance or a layout
    # would be silently ignored.
    for extra in (("--tolerance", "1e-5"), ("--partition", "optimized")):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bench", "--function", "gaussian", *extra, "--n-evals", "100000"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_numeric_linear_target_plans_one_segment(capsys):
    long_sum = "expr:" + "+".join(["x"] * 501)
    for where in (("expr:x", "0", "1"), ("expr:2*x+1", "0", "4"), (long_sum, "0", "1")):
        args = ("--function", where[0], "--interval", *where[1:])
        code, out, err = run(capsys, "plan", *args, "--tolerance", "1e-3")
        assert code == 0, err
        assert [r["n_segments"] for r in rows_of(out)] == ["1"] * 4
        code, out, err = run(capsys, "error", *args, "--segments", "4")
        assert code == 0, err
        row = rows_of(out)[0]
        assert float(row["measured"]) <= 1e-12
        assert all(float(v) == 0.0 for k, v in row.items() if k.startswith("bound_"))
        # Equalized knots are undefined for a line, as for an analytic one;
        # bench then times a uniform layout in both modes.
        code, out, err = run(capsys, "partition", *args, "--segments", "4", "--partition", "optimized")
        assert code == 3 and out == ""
        assert "target is linear" in err
        code, out, err = run(capsys, "bench", *args, "--segments", "31", "--n-evals", "100000")
        assert code == 0, err
        assert [r["mode"] for r in rows_of(out)] == ["uniform_direct", "binary_search"]


def test_curvature_pair_evaluated_once_per_command(capsys, monkeypatch):
    # Every bound and planned count comes from the pair of curvature
    # integrals, which does not depend on N; one command evaluates it once.
    calls = []
    original = cli.analysis.curvature

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return original(*args, **kwargs)

    monkeypatch.setattr(cli.analysis, "curvature", counted)
    for argv, expected in (
        (("plan", "--function", "gaussian", "--tolerance", "1e-5"), 1),
        (("error", "--function", "chirp", "--segments", "31"), 1),
        (("error", "--function", "gaussian", "--tolerance", "1e-5", "--fit", "l2"), 1),
        (("reproduce", "gaussian04", "--n-values", "31,63"), 1),
        (("reproduce", "chirp", "--n-values", "8,16,31"), 1),
    ):
        calls.clear()
        code, _out, err = run(capsys, *argv)
        assert code == 0, err
        assert len(calls) == expected, (argv, calls)


@pytest.mark.parametrize(
    "argv",
    [
        ("error", "--function", "gaussian", "--segments", "8", "--partition", "optimized"),
        ("error", "--function", "chirp", "--tolerance", "1e-2", "--partition", "optimized"),
        ("partition", "--function", "poly7", "--tolerance", "1e-3", "--partition", "optimized"),
        ("reproduce", "chirp", "--n-values", "31,63"),
    ],
)
def test_one_scan_and_one_curvature_pass_per_command(capsys, monkeypatch, argv):
    # The knot table is read from the panels of the curvature pass, so a
    # command that needs knots, a planned count and bounds scans the
    # target's f'' once and integrates its curvature once, for every N.
    calls = {"_scan": 0, "_curvature_pass": 0}
    for name in calls:
        original = getattr(partition, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in (partition, analysis):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    code, _out, err = run(capsys, *argv)
    assert code == 0, err
    assert calls == {"_scan": 1, "_curvature_pass": 1}


def test_far_interval_quadratic(capsys):
    # Equalized knots of x^2 on an interval a few thousand ulps wide, far
    # from the origin, are its quartiles; the plan needs the same integrals.
    where = ("--function", "poly:0,0,1", "--interval", "1000000", "1000000.001")
    code, out, err = run(capsys, "partition", *where, "--segments", "4", "--partition", "optimized")
    assert code == 0, err
    knots = np.array([float(r["knot"]) for r in rows_of(out)])
    exact = 1e6 + np.array([0.0, 0.25, 0.5, 0.75, 1.0]) * 1e-3
    assert np.all(np.abs(knots - exact) <= np.spacing(1e6))
    code, out, err = run(capsys, "plan", *where, "--tolerance", "1e-12")
    assert code == 0, err
    assert len(rows_of(out)) == 4


def test_nonfinite_second_derivative_exits_2(capsys):
    where = ("--function", "expr:sqrt(x-0.5)", "--interval", "0", "1")
    for argv, message in (
        (("plan", *where, "--tolerance", "1e-3"), "second derivative is not finite"),
        (("partition", *where, "--segments", "8", "--partition", "optimized"),
         "second derivative is not finite"),
        (("error", *where, "--segments", "8"), "non-finite sample"),
    ):
        code, _out, err = run(capsys, *argv)
        assert code == 2, (argv, err)
        assert message in err


def test_expression_failure_writes_one_line(capsys):
    # A pole: f'' is not finite at 0.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(
            capsys, "plan", "--function", "expr:1/x", "--interval", "0", "1", "--tolerance", "1e-3"
        )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("polylin: ")
    assert [str(w.message) for w in caught] == []


def test_deep_and_long_expressions_plan_as_lines(capsys):
    # Parser and evaluators are iterative, so neither the nesting depth
    # nor the length of an expression is limited by the interpreter's stack.
    for text in ("(" * 3000 + "x" + ")" * 3000, "-" * 3000 + "x", "+".join(["x"] * 5001)):
        code, out, err = run(
            capsys, "plan", "--function", f"expr:{text}", "--interval", "0", "1",
            "--tolerance", "1e-3",
        )
        assert code == 0, (text[:20], err)
        assert [r["n_segments"] for r in rows_of(out)] == ["1"] * 4


def test_faint_curvature_plans_one_segment(capsys):
    # f'' = 2e-12 exactly, far below the rounding of a difference quotient.
    code, out, err = run(
        capsys, "plan", "--function", "expr:x+1e-12*x^2", "--interval", "0", "1",
        "--tolerance", "1e-3",
    )
    assert code == 0, err
    assert [r["n_segments"] for r in rows_of(out)] == ["1"] * 4


def test_kink_between_grid_points_exits_two(capsys):
    for text, a, b in (("sqrt((x-0.3)^2)", "0", "1"), ("sqrt(x^2)", "-1", "1.1")):
        where = ("--function", "expr:" + text, "--interval", a, b)
        for argv in (
            ("plan", *where, "--tolerance", "1e-3"),
            ("error", *where, "--segments", "8"),
            ("partition", *where, "--segments", "8", "--partition", "optimized"),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2, (argv, out)
            assert "second derivative is not finite" in err


def test_integrable_singularity_between_grid_points_exits_two(capsys):
    # f'' = 1.5 |x - 0.3|^(-1/2) is integrable and finite at every grid
    # point, so only the curvature pass meets it: its quadrature fails
    # where |f''| grows without bound, which is a non-finite f''.
    where = ("--function", "expr:((x-0.3)^2)^0.75", "--interval", "0", "1")
    for argv in (
        ("plan", *where, "--tolerance", "1e-3"),
        ("partition", *where, "--segments", "8", "--partition", "optimized"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", (argv, err)
        assert err == "polylin: second derivative is not finite on the interval\n"


# Targets the curvature scan cannot vouch for on [0, 1]: an infinite f' or
# f'' at 0, a kink, and an f'' that grows without bound between grid points.
# Each L1 distance was computed with mpmath 1.3.0 (40 digits) from the
# knots and ordinates the command writes: the integral of |f - g| between
# the crossings, kinks and knots, which were located beforehand.
UNVOUCHED_COSTS = {
    ("sqrt(x)", "interpolant", 4): 0.023383620423920124,
    ("sqrt(x)", "interpolant", 8): 0.0085364450422123368,
    ("sqrt(x)", "l2", 4): 0.0062581466435212526,
    ("sqrt(x)", "l2", 8): 0.0023162934402826223,
    ("x^1.5", "interpolant", 4): 0.0070181108579006973,
    ("x^1.5", "interpolant", 8): 0.0018124647999742382,
    ("x^1.5", "l2", 4): 0.0026598855045615452,
    ("x^1.5", "l2", 8): 0.00069036140950795294,
    ("x^x", "interpolant", 4): 0.021604742098053489,
    ("x^x", "interpolant", 8): 0.0064048840507746168,
    ("x^x", "l2", 4): 0.0076628754203538604,
    ("x^x", "l2", 8): 0.0023162031549979795,
    ("((x-0.3)^2)^0.75", "interpolant", 4): 0.010667029944801076,
    ("((x-0.3)^2)^0.75", "interpolant", 8): 0.0028619754419368156,
    ("((x-0.3)^2)^0.75", "l2", 4): 0.0045998933504781328,
    ("((x-0.3)^2)^0.75", "l2", 8): 0.001338304439988399,
    ("sqrt((x-0.3)^2)", "interpolant", 4): 0.010000000000000005,
    ("sqrt((x-0.3)^2)", "interpolant", 8): 0.0037500000000000101,
    ("sqrt((x-0.3)^2)", "l2", 4): 0.010997611848409463,
    ("sqrt((x-0.3)^2)", "l2", 8): 0.0047538566349198324,
}


@pytest.mark.parametrize("text, kind, n", list(UNVOUCHED_COSTS))
def test_l1_distance_on_targets_the_scan_cannot_vouch_for(capsys, text, kind, n):
    # The L1 distance takes a cell the scan cannot vouch for as a piece of
    # unknown convexity, so it measures these targets; every command that
    # needs their curvature still refuses them.
    where = ("--function", "expr:" + text, "--interval", "0", "1")
    code, out, err = run(capsys, "fit", *where, "--segments", str(n), "--fit", kind)
    assert code == 0, err
    assert abs(json.loads(out)["cost"] - UNVOUCHED_COSTS[text, kind, n]) <= 1e-12
    for argv in (
        ("plan", *where, "--tolerance", "1e-3"),
        ("partition", *where, "--segments", str(n), "--partition", "optimized"),
        ("error", *where, "--segments", str(n), "--fit", kind),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", (argv, err)
        assert err == "polylin: second derivative is not finite on the interval\n"


def test_rounding_residue_line_plans_one_segment(capsys):
    where = ("--function", "expr:1/(1/x)", "--interval", "1", "2")
    code, out, err = run(capsys, "plan", *where, "--tolerance", "1e-3")
    assert code == 0, err
    assert [r["n_segments"] for r in rows_of(out)] == ["1"] * 4
    code, out, err = run(capsys, "bench", *where, "--segments", "8", "--n-evals", "100000")
    assert code == 0, err
    code, out, err = run(capsys, "partition", *where, "--segments", "8", "--partition", "optimized")
    assert code == 3 and "target is linear" in err


def test_parser_is_built_once_and_keeps_no_state(capsys, monkeypatch):
    where = ("--function", "poly:0,0,0,1", "--interval", "0", "1", "--segments", "4")
    assert run(capsys, "partition", *where)[0] == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    code, out, err = run(capsys, "partition", *where, "--partition", "optimized")
    assert code == 0, err
    knots = np.array([float(r["knot"]) for r in rows_of(out)])
    assert np.max(np.abs(knots - (np.arange(5) / 4.0) ** 0.75)) <= 1e-9
    # The option given above is not the default of the next call.
    code, out, err = run(capsys, "partition", *where, "--format", "json")
    assert code == 0, err
    assert [r["knot"] for r in json.loads(out)] == [0.0, 0.25, 0.5, 0.75, 1.0]
    code, out, err = run(capsys, "error", *where)
    assert code == 0, err
    assert rows_of(out)[0]["partition"] == "uniform"
    assert built == []


def test_l1_fit_cost_is_measured_once(capsys, monkeypatch, tmp_path):
    # The fit integrates its cost between the crossings it located, so the
    # command makes no separate l1_distance pass.
    calls = []
    original = cli.analysis.l1_distance

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli.analysis, "l1_distance", counted)
    path = tmp_path / "model.json"
    code, _out, err = run(
        capsys, "fit", "--function", "gaussian", "--segments", "15",
        "--fit", "l1", "--out", str(path),
    )
    assert code == 0, err
    assert len(calls) == 0
    model = json.loads(path.read_text())
    assert model["cost"] == model["fit"]["report"]["final_cost"]


def test_infinite_samples_write_one_line(capsys):
    # 1e400 is inf, so f'' is inf (NaN at 0, where inf meets 0); the
    # finiteness check reports that alone, with no warning on the way.
    where = ("--function", "expr:1e400*x^2", "--interval", "0", "1")
    for argv in (
        ("plan", *where, "--tolerance", "1e-3"),
        ("partition", *where, "--segments", "8", "--partition", "optimized"),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv)
        assert code == 2, (argv, err)
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("polylin: second derivative is not finite")


def run_quiet(*argv):
    """cli.main in-process: (exit code, stderr, messages of any warnings).
    Unlike run, it needs no capsys, which hypothesis tests cannot share
    across examples."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(list(argv))
    return code, err.getvalue(), [str(w.message) for w in caught]


def assert_clean_exit(*argv):
    code, err, caught = run_quiet(*argv)
    assert code in (0, 2, 3), (argv, code, err)
    assert "Warning" not in err and caught == [], (argv, err, caught)


# Pieces of the expression grammar, a few near misses among them; joined
# at random they are mostly malformed, sometimes valid.
EXPRESSION_PIECES = (
    "x", "e", "pi", ".", "(", ")", "+", "-", "*", "/", "^", *"0123456789",
    "sin", "cos", "exp", "sqrt", "log", "sin(", "xx", "1e", "e-",
)
# Coarse settings keep each valid example to a few milliseconds.
EXPRESSION_COMMANDS = (
    ("plan", "--tolerance", "1e-2"),
    ("partition", "--segments", "5", "--partition", "optimized"),
    ("error", "--segments", "5"),
)


@settings(deadline=None, max_examples=30)
@given(
    st.lists(st.sampled_from(EXPRESSION_PIECES), min_size=1, max_size=10),
    st.sampled_from(("", " ")),
    st.sampled_from(EXPRESSION_COMMANDS),
)
def test_expression_exit_codes(pieces, sep, command):
    name, *options = command
    assert_clean_exit(
        name, "--function", "expr:" + sep.join(pieces), "--interval", "0", "1", *options
    )


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "model.json"
    argv = ("fit", "--function", "gaussian", "--segments", "4", "--out", str(path))
    assert run_quiet(*argv)[0] == 0
    return json.loads(path.read_text()), path.with_name("broken.json")


MODEL_FIELDS = (
    ("schema",), ("kind",), ("function",), ("knots",), ("ordinates",), ("cost",),
    ("function", "name"), ("function", "interval"), ("function", "interval", 1),
    ("function", "coefficients"), ("function", "expression"),
    ("knots", 2), ("ordinates", 0),
)
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(),
    st.sampled_from(("", "gaussian", "poly", "expr", "x^2", "expr:x")),
    st.lists(st.floats(-1.0, 5.0), max_size=4),
    st.dictionaries(st.sampled_from(("name", "interval")), st.integers(0, 2), max_size=2),
)
MODEL_MUTATIONS = st.one_of(
    st.tuples(st.just("delete"), st.sampled_from(MODEL_FIELDS)),
    st.tuples(st.just("retype"), st.sampled_from(MODEL_FIELDS), JSON_VALUES),
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0)),
)


def _mutated_text(model, mutations):
    model = copy.deepcopy(model)
    cut = None
    for kind, *rest in mutations:
        if kind == "truncate":
            cut = rest[0]
            continue
        (*parents, last), *value = rest
        try:
            node = model
            for key in parents:
                node = node[key]
            if kind == "delete":
                del node[last]
            else:
                node[last] = value[0]
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation removed or retyped the parent
    text = json.dumps(model)
    return text if cut is None else text[: int(cut * len(text))]


@settings(deadline=None, max_examples=40)
@given(st.lists(MODEL_MUTATIONS, min_size=1, max_size=3))
def test_broken_model_exit_codes(saved_model, mutations):
    model, path = saved_model
    path.write_text(_mutated_text(model, mutations))
    assert_clean_exit("error", "--model", str(path))
