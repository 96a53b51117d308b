"""Command-line interface.

Subcommands: partition, fit, error, plan, bench, reproduce.  Exit codes:
0 success, 2 configuration problems (including a target with a non-finite
sample or second derivative on the interval), 3 numerical failures (fit
did not converge, quadrature failure, linear target).  Output is CSV
(default) or JSON, written to --out or stdout, with floats at 17
significant digits so identical configurations produce byte-identical
files.

Endpoint policy: f'' must be finite on the closed interval, ends
included, for any curvature integral.  It is sampled on a grid that
contains both ends, and a command that needs the curvature (plan,
partition, error, and fit on an equalized partition) exits 2 on a
non-finite value with "second derivative is not finite on the interval",
even where the knot density would still be integrable: expr:x^1.5 and
expr:sqrt(x) on [0, 1] have an infinite f'' at 0, and expr:x^x a NaN one
(x^w with an exponent that depends on x is defined only for x > 0).
Between grid points a kink (expr:sqrt((x-0.3)^2)) or a curvature pass
that fails where |f''| grows without bound (expr:((x-0.3)^2)^0.75) exits
2 the same way, as does a pole (expr:1/(x-0.3)); where the curvature
integrals converge (expr:((x-0.3)^2)^0.9) the singularity is integrated.
The fits need none, so on a uniform partition fit --fit interpolant and
--fit l2 measure the first five of these targets on [0, 1], and --fit l1
converges on four at N = 4 and 8 but exits 3 on expr:sqrt((x-0.3)^2), a
line on every segment but one.  An expr: target whose f' is constant to
rounding on the scan grid (expr:1/(1/x)) is a line: one segment meets
any tolerance.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import analysis, fit, functions, partition
from .core import Partition, PolygonalFunction, TargetFunction
from .evaluate import bench as bench_evaluator
from .evaluate import bench_target, make_evaluator
from .partition import LinearTargetError
from .quadrature import QuadratureError

__all__ = ["FunctionSpec", "RunConfig", "main", "entry"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

SWEEP_SEGMENTS = (31, 63, 127, 255, 511)
EXPERIMENTS = ("gaussian04", "gaussian08", "chirp", "gain")


class ConfigError(Exception):
    """Invalid combination of command-line options."""


@dataclass(frozen=True)
class FunctionSpec:
    """Parsed --function value plus the interval it is approximated on."""

    name: str
    interval: tuple[float, float]
    coefficients: tuple[float, ...] | None = None
    text: str | None = None

    @staticmethod
    def parse(raw: str, interval: tuple[float, float] | None) -> "FunctionSpec":
        raw = raw.strip()
        if raw in functions.DEFAULT_INTERVALS:
            span = interval if interval is not None else functions.DEFAULT_INTERVALS[raw]
            return FunctionSpec(raw, span)
        if raw.startswith("poly:"):
            body = raw[len("poly:") :]
            try:
                coeffs = tuple(float(c) for c in body.split(","))
            except ValueError as exc:
                raise ConfigError(f"bad polynomial coefficients: {body!r}") from exc
            if interval is None:
                raise ConfigError("poly: functions need an explicit --interval")
            return FunctionSpec("poly", interval, coefficients=coeffs)
        if raw.startswith("expr:"):
            body = raw[len("expr:") :].strip()
            if not body:
                raise ConfigError("empty expression")
            if interval is None:
                raise ConfigError("expr: functions need an explicit --interval")
            return FunctionSpec("expr", interval, text=body)
        raise ConfigError(
            f"unknown function {raw!r}; use gaussian|chirp|poly7|poly:c0,c1,...|expr:<text>"
        )

    def resolve(self) -> TargetFunction:
        if self.name == "gaussian":
            return functions.gaussian(self.interval)
        if self.name == "chirp":
            return functions.chirp(self.interval)
        if self.name == "poly7":
            return functions.poly7(self.interval)
        if self.name == "poly":
            return functions.polynomial(self.coefficients, self.interval)
        if self.name == "expr":
            return functions.expression(self.text, self.interval)
        raise ConfigError(f"unknown function {self.name!r}")

    def describe(self) -> dict:
        out: dict = {"name": self.name, "interval": list(self.interval)}
        if self.coefficients is not None:
            out["coefficients"] = list(self.coefficients)
        if self.text is not None:
            out["expression"] = self.text
        return out

    @staticmethod
    def from_description(desc: dict) -> "FunctionSpec":
        try:
            name = desc["name"]
            interval = tuple(float(v) for v in desc["interval"])
            coeffs = desc.get("coefficients")
            coeffs = tuple(float(c) for c in coeffs) if coeffs is not None else None
            text = desc.get("expression")
            if (name == "poly" and coeffs is None) or (name == "expr" and not isinstance(text, str)):
                raise ValueError(f"{name} target without its definition")
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed function description: {desc!r}") from exc
        return FunctionSpec(name, interval, coefficients=coeffs, text=text)


@dataclass(frozen=True)
class RunConfig:
    """One resolved command invocation."""

    function: FunctionSpec
    segments: int | None
    tolerance: float | None
    partition_kind: str
    fit_kind: str
    out: str | None
    format: str
    seed: int


FIT_TO_BOUND_KIND = {"interpolant": "interpolant", "l2": "interpolant", "l1": "best_l1"}


def _build_config(args) -> RunConfig:
    interval = tuple(args.interval) if args.interval is not None else None
    if interval is not None and not interval[0] < interval[1]:
        raise ConfigError(f"empty interval [{interval[0]}, {interval[1]}]")
    spec = FunctionSpec.parse(args.function, interval)
    segments = getattr(args, "segments", None)
    tolerance = getattr(args, "tolerance", None)
    if segments is not None and tolerance is not None:
        raise ConfigError("--segments and --tolerance are mutually exclusive")
    if segments is not None and segments < 1:
        raise ConfigError(f"need at least one segment, got {segments}")
    if tolerance is not None and not tolerance > 0:
        raise ConfigError(f"tolerance must be positive, got {tolerance}")
    return RunConfig(
        function=spec,
        segments=segments,
        tolerance=tolerance,
        partition_kind=getattr(args, "partition", "uniform"),
        fit_kind=getattr(args, "fit", "interpolant"),
        out=args.out,
        format=args.format,
        seed=getattr(args, "seed", 0),
    )


def _source(cfg: RunConfig, f: TargetFunction):
    """What the curvature and the knots are read from: f's knot
    distribution when the partition is optimized, so that one curvature
    pass serves the planned count, the knots and the bounds; f otherwise."""
    if cfg.partition_kind == "optimized":
        return partition.build_distribution(f, *cfg.function.interval)
    return f


def _segment_count(cfg: RunConfig, source, curv: analysis.Curvature | None = None) -> int:
    """--segments, or the count planned for --tolerance; ``curv`` is the
    curvature of ``source`` (see ``_source``) when the caller has it."""
    if cfg.segments is not None:
        return cfg.segments
    if cfg.tolerance is None:
        raise ConfigError("pass --segments or --tolerance")
    kind = f"{cfg.partition_kind}_{FIT_TO_BOUND_KIND[cfg.fit_kind]}"
    if curv is None:
        curv = analysis.curvature(source, *cfg.function.interval)
    return curv.counts(cfg.tolerance)[kind]


def _build_partition(cfg: RunConfig, source, n: int) -> Partition:
    a, b = cfg.function.interval
    if cfg.partition_kind == "uniform":
        return partition.uniform_partition(a, b, n)
    return partition.optimized_partition(source, a, b, n)


def _fit_function(cfg: RunConfig, f: TargetFunction, p: Partition):
    """(approximant, fit report or None, its L1 distance to f)."""
    if cfg.fit_kind == "interpolant":
        g = fit.interpolant(f, p)
    elif cfg.fit_kind == "l2":
        g = fit.l2_projection(f, p)
    else:
        g, report = fit.best_l1_fit(f, p)
        if not report.converged:
            raise NumericalFailure(
                f"L1 fit did not converge (optimality residual {report.optimality_residual:.3e})"
            )
        return g, report, report.final_cost
    return g, None, analysis.l1_distance(f, g)


class NumericalFailure(Exception):
    pass


# -- output helpers ----------------------------------------------------------


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _emit(rows: list[dict], cfg_format: str, out: str | None) -> None:
    if cfg_format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(rows[0].keys())
        for row in rows:
            writer.writerow([_fmt(v) for v in row.values()])
        text = buf.getvalue()
    else:
        text = json.dumps(rows, indent=2) + "\n"
    _write(text, out)


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- subcommands -------------------------------------------------------------


def cmd_partition(args) -> int:
    cfg = _build_config(args)
    source = _source(cfg, cfg.function.resolve())
    n = _segment_count(cfg, source)
    p = _build_partition(cfg, source, n)
    rows = [
        {"index": i, "knot": float(x)} for i, x in enumerate(p.knots)
    ]
    _emit(rows, cfg.format, cfg.out)
    return EXIT_OK


def cmd_fit(args) -> int:
    cfg = _build_config(args)
    if cfg.format == "csv":
        raise ConfigError("fit writes a JSON model; use --format json")
    f = cfg.function.resolve()
    source = _source(cfg, f)
    n = _segment_count(cfg, source)
    p = _build_partition(cfg, source, n)
    g, report, cost = _fit_function(cfg, f, p)
    model = {
        "schema": 1,
        "kind": "polylin-model",
        "function": cfg.function.describe(),
        "partition": {"kind": cfg.partition_kind, "n_segments": n},
        "fit": {
            "kind": cfg.fit_kind,
            "report": None if report is None else asdict(report),
        },
        "knots": [float(x) for x in p.knots],
        "ordinates": [float(v) for v in g.ordinates],
        "cost": cost,
    }
    _write(json.dumps(model, indent=2) + "\n", cfg.out)
    return EXIT_OK


def _load_model(path: str):
    try:
        with open(path) as fh:
            model = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read model {path!r}: {exc}") from exc
    if (
        not isinstance(model, dict)
        or model.get("kind") != "polylin-model"
        or model.get("schema") != 1
    ):
        raise ConfigError(f"{path!r} is not a schema-1 polylin model")
    try:
        spec = FunctionSpec.from_description(model["function"])
        knots = np.asarray(model["knots"], dtype=float)
        ords = np.asarray(model["ordinates"], dtype=float)
        cost = float(model["cost"])
        g = PolygonalFunction(Partition(knots), ords)
    except KeyError as exc:
        raise ConfigError(f"model {path!r} has no {exc} field") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed model {path!r}: {exc}") from exc
    return spec, g, cost


def cmd_error(args) -> int:
    if args.model is not None:
        spec, g, stored = _load_model(args.model)
        f = spec.resolve()
        measured = analysis.l1_distance(f, g)
        rows = [
            {
                "function": spec.name,
                "n_segments": g.partition.n_segments,
                "stored_cost": stored,
                "measured_cost": measured,
                "difference": abs(measured - stored),
            }
        ]
        _emit(rows, args.format, args.out)
        return EXIT_OK

    if args.function is None:
        raise ConfigError("error needs --function (or --model)")
    cfg = _build_config(args)
    f = cfg.function.resolve()
    a, b = cfg.function.interval
    # One curvature pass serves the planned count, the knots and the
    # bounds.  On a uniform partition with --segments it waits for the
    # fit, so a target the fit rejects (say, a non-finite sample) reports
    # that failure first.
    source = _source(cfg, f)
    curv = analysis.curvature(source, a, b) if cfg.tolerance is not None else None
    n = _segment_count(cfg, source, curv)
    p = _build_partition(cfg, source, n)
    g, _report, measured = _fit_function(cfg, f, p)
    if curv is None:
        curv = analysis.curvature(source, a, b)
    row = {
        "function": cfg.function.name,
        "n_segments": n,
        "partition": cfg.partition_kind,
        "fit": cfg.fit_kind,
        "measured": measured,
    }
    for kind, bound in curv.bounds(n).items():
        row[f"bound_{kind}"] = bound
    _emit([row], cfg.format, cfg.out)
    return EXIT_OK


def cmd_plan(args) -> int:
    cfg = _build_config(args)
    if cfg.tolerance is None:
        raise ConfigError("plan needs --tolerance")
    f = cfg.function.resolve()
    a, b = cfg.function.interval
    rows = [
        {"kind": kind, "tolerance": cfg.tolerance, "n_segments": n}
        for kind, n in analysis.curvature(f, a, b).counts(cfg.tolerance).items()
    ]
    _emit(rows, cfg.format, cfg.out)
    return EXIT_OK


def cmd_bench(args) -> int:
    cfg = _build_config(args)
    f = cfg.function.resolve()
    a, b = cfg.function.interval
    sweep = [cfg.segments] if cfg.segments is not None else list(SWEEP_SEGMENTS)
    try:
        dist = partition.build_distribution(f, a, b)
    except LinearTargetError:
        dist = None  # a line's search layout is uniform too
    rows = []
    for n in sweep:
        uniform = partition.uniform_partition(a, b, n)
        graded = uniform if dist is None else partition.optimized_partition(dist, a, b, n)
        layouts = [
            ("uniform_direct", fit.interpolant(f, uniform)),
            ("binary_search", fit.interpolant(f, graded)),
        ]
        for mode, g in layouts:
            ev = make_evaluator(g, mode)
            result = bench_evaluator(ev, args.n_evals, cfg.seed)
            target_ns = bench_target(f.eval, a, b, args.n_evals, cfg.seed)
            rows.append(
                {
                    "n_segments": n,
                    "mode": result.mode,
                    "backend": result.backend,
                    "workers": result.workers,
                    "n_evals": result.n_evals,
                    "mean_ns": result.mean_ns,
                    "min_ns": result.min_ns,
                    "target_ns": target_ns,
                    "checksum": result.checksum,
                }
            )
    _emit(rows, cfg.format, cfg.out)
    return EXIT_OK


def _experiment_rows(name: str, n_values) -> list[dict]:
    if name == "gain":
        g_rows = []
        for b in np.arange(0.5, 8.0 + 1e-9, 0.5):
            f = functions.gaussian((0.0, float(b)))
            gain = analysis.partition_gain(f, 0.0, float(b))
            g_rows.append(
                {
                    "b": float(b),
                    "gain": gain,
                    "gain_over_b_squared": gain / float(b) ** 2,
                    "best_l1_advantage": 8.0 / 3.0,
                }
            )
        return g_rows

    interval = {
        "gaussian04": (0.0, 4.0),
        "gaussian08": (0.0, 8.0),
        "chirp": (0.0, 1.0),
    }[name]
    f = functions.chirp(interval) if name == "chirp" else functions.gaussian(interval)
    a, b = interval
    # One curvature pass gives the bounds and every N's knots.
    dist = partition.build_distribution(f, a, b)
    curv = analysis.curvature(dist, a, b)
    rows = []
    for n in n_values:
        uniform = partition.uniform_partition(a, b, n)
        optimized = partition.optimized_partition(dist, a, b, n)
        interp_u = analysis.l1_distance(f, fit.interpolant(f, uniform))
        interp_o = analysis.l1_distance(f, fit.interpolant(f, optimized))
        best_u, rep_u = fit.best_l1_fit(f, uniform)
        best_o, rep_o = fit.best_l1_fit(f, optimized)
        for rep, where in ((rep_u, "uniform"), (rep_o, "optimized")):
            if not rep.converged:
                raise NumericalFailure(
                    f"L1 fit on the {where} partition at N={n} did not converge "
                    f"(optimality residual {rep.optimality_residual:.3e})"
                )
        err_u, err_o = rep_u.final_cost, rep_o.final_cost
        row = {
            "n_segments": n,
            "interp_uniform": interp_u,
            "interp_optimized": interp_o,
            "best_l1_uniform": err_u,
            "best_l1_optimized": err_o,
        }
        for kind, bound in curv.bounds(n).items():
            row[f"bound_{kind}"] = bound
        row["ratio_uniform"] = err_u / interp_u
        row["ratio_optimized"] = err_o / interp_o
        rows.append(row)
    return rows


def cmd_reproduce(args) -> int:
    if args.experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {args.experiment!r}; pick from {EXPERIMENTS}")
    n_values = _parse_n_values(args.n_values)
    rows = _experiment_rows(args.experiment, n_values)
    _emit(rows, args.format, args.out)
    return EXIT_OK


def _parse_n_values(raw: str | None):
    if raw is None:
        return SWEEP_SEGMENTS
    try:
        values = tuple(int(v) for v in raw.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad --n-values {raw!r}") from exc
    if not values or any(v < 1 for v in values):
        raise ConfigError(f"bad --n-values {raw!r}")
    return values


# -- argument parsing --------------------------------------------------------


def _add_common(sub, *, function=True, segments=True, fitkind=True, seed=False):
    if function:
        sub.add_argument("--function", required=True,
                         help="gaussian|chirp|poly7|poly:c0,c1,...|expr:<text>")
        sub.add_argument("--interval", nargs=2, type=float, metavar=("A", "B"))
    if segments:
        sub.add_argument("--segments", type=int)
        sub.add_argument("--tolerance", type=float)
        sub.add_argument("--partition", choices=("uniform", "optimized"), default="uniform")
    if fitkind:
        sub.add_argument("--fit", choices=("interpolant", "l2", "l1"), default="interpolant")
    if seed:
        sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


@functools.cache
def _make_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and each call gets a fresh namespace of defaults."""
    parser = argparse.ArgumentParser(
        prog="polylin",
        description="Polygonal approximation under the L1 norm.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("partition", help="compute a knot placement")
    _add_common(p)
    p.set_defaults(func=cmd_partition)

    p = subs.add_parser("fit", help="fit ordinates and write a model file")
    _add_common(p)
    p.set_defaults(func=cmd_fit, format="json")

    p = subs.add_parser("error", help="measure the L1 error and tabulate bounds")
    _add_common(p, function=False)
    p.add_argument("--function", help="gaussian|chirp|poly7|poly:c0,c1,...|expr:<text>")
    p.add_argument("--interval", nargs=2, type=float, metavar=("A", "B"))
    p.add_argument("--model", help="measure a saved model instead of fitting")
    p.set_defaults(func=cmd_error)

    p = subs.add_parser("plan", help="minimal segment counts for a tolerance")
    _add_common(p, segments=False, fitkind=False)
    p.add_argument("--tolerance", type=float, required=True)
    p.set_defaults(func=cmd_plan)

    p = subs.add_parser("bench", help="time batch evaluation")
    _add_common(p, segments=False, fitkind=False, seed=True)
    p.add_argument("--segments", type=int)
    p.add_argument("--n-evals", type=int, default=1_000_000)
    p.set_defaults(func=cmd_bench)

    p = subs.add_parser("reproduce", help="rerun a canned experiment")
    p.add_argument("experiment", choices=EXPERIMENTS)
    p.add_argument("--n-values", help="comma-separated segment counts (default sweep)")
    p.add_argument("--out")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, functions.ExpressionError) as exc:
        print(f"polylin: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalFailure, QuadratureError, LinearTargetError) as exc:
        print(f"polylin: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"polylin: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
