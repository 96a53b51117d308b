"""The benchmark's workloads: seeded inputs, timed ops and output checks.

Each workload is one client in a closed loop: it sends the next op only
after the previous one returned.  Set-up draws one round of inputs from
the seed (one pass over the experiments, one block of plan cases, one
rotation over the evaluators), with the same mix of op kinds for every
seed; the runner repeats that round as often as the run allows.  Only
the library call of an op is timed.  Building an op's inputs and checking its outputs happen
between ops, outside the timed region; a failed check marks the op
failed and the run incorrect.  Every op also gets a host-speed factor
from its workload's ``host_probe``; see hostspeed.py.  Op timings read
``hostspeed.clock``, which leaves out the probes.

- ``reproduce``: the paper's experiments through ``polylin reproduce``.
  Nearly all the time is the best-L1 fit's quadrature; ``evaluate`` does
  no work.
- ``plan_verify``: ``polylin plan`` followed by ``polylin error`` on the
  planned optimized partition, plus vector targets through the
  ``vector`` functions.  About 45 quadrature calls per case, each of
  many small integrand batches, and no fit.
- ``evaluate_serve``: batch evaluation requests against prepared
  evaluators.  No quadrature after set-up.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

import hostspeed
from hostspeed import clock

polylin = importlib.import_module("polylin")
analysis = importlib.import_module("polylin.analysis")
cli = importlib.import_module("polylin.cli")
evaluate = importlib.import_module("polylin.evaluate")
fit = importlib.import_module("polylin.fit")
functions = importlib.import_module("polylin.functions")
partition = importlib.import_module("polylin.partition")
vector = importlib.import_module("polylin.vector")


@dataclass
class Op:
    """Outcome of one timed op."""

    kind: str
    seconds: float
    ok: bool
    detail: dict = field(default_factory=dict)
    problem: str | None = None  # set when an output check failed
    host: float = 1.0  # host-speed factor (hostspeed.py)

    @property
    def corrected_s(self) -> float:
        return self.seconds * self.host


def run_cli(argv):
    """polylin.cli.main in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = clock()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # an escaped exception is a failed op
            rc = f"{type(exc).__name__}: {exc}"
        seconds = clock() - start
    return rc, seconds, out.getvalue(), err.getvalue().strip()


def warm_up() -> None:
    """One small call into every layer before timing starts.

    First-call costs then stay out of the timed phase, and a traced run
    has a figure for every layer on every workload.
    """
    g = functions.gaussian((0.0, 4.0))
    p = partition.optimized_partition(g, 0.0, 4.0, 8)
    fit.l2_projection(g, p)
    fit.best_l1_fit(g, partition.uniform_partition(0.0, 4.0, 2))
    analysis.l1_distance(g, fit.interpolant(g, p))
    analysis.error_bound(g, 0.0, 4.0, 8, "optimized_interpolant")
    F = polylin.VectorTargetFunction((g, functions.polynomial((0.0, 0.0, 1.0), (0.0, 4.0))))
    vp = vector.vector_optimized_partition(F, 0.0, 4.0, 8)
    vector.vector_l1_distance(F, vector.vector_interpolant(F, vp))
    vector.vector_bound_uniform_interpolant(F, 0.0, 4.0, 8)
    vector.vector_bound_optimized_interpolant(F, 0.0, 4.0, 8)
    xs = np.linspace(0.0, 4.0, 256)
    for n in SERVE_SEGMENTS:
        gu = fit.interpolant(g, partition.uniform_partition(0.0, 4.0, n))
        for mode in ("uniform_direct", "binary_search"):
            evaluate.evaluate_batch(evaluate.make_evaluator(gu, mode), xs)
    rc, *_ = run_cli(["plan", "--function", "gaussian", "--tolerance", "1e-3"])
    if rc != 0:
        raise RuntimeError(f"warm-up plan exited {rc}")


# -- reproduce ---------------------------------------------------------------

# Segment counts are fixed rather than drawn: best_l1_fit's cost jumps
# between neighbouring N (gaussian04 takes 4.0 s at N=62 and 8.1 s at N=63),
# so a drawn N would swamp every timing with input noise.
EXPERIMENTS = (("gaussian04", 63), ("chirp", 31), ("gaussian08", 63))
# Measured/bound must lie within this factor for N >= 63, where the
# asymptotic bounds hold to under 1% today.
BOUND_FACTOR = 1.1
BOUND_PAIRS = (
    ("interp_uniform", "bound_uniform_interpolant"),
    ("interp_optimized", "bound_optimized_interpolant"),
    ("best_l1_uniform", "bound_uniform_best_l1"),
    ("best_l1_optimized", "bound_optimized_best_l1"),
)


class Reproduce:
    name = "reproduce"
    limit_s = 60.0
    round_s = 15.0
    host_probe = hostspeed.ARRAY

    def __init__(self, seed: int) -> None:
        self.order = np.random.default_rng(seed).permutation(len(EXPERIMENTS))
        warm_up()

    def run_round(self, op):
        ops = []
        for k in self.order:
            exp, n = EXPERIMENTS[k]
            argv = ["reproduce", exp, "--n-values", str(n)]
            rc, seconds, out, err = op(exp, run_cli, argv)
            if rc != 0:
                ops.append(Op(exp, seconds, False, {"error": f"exit {rc}: {err}"}))
                continue
            rows = [{c: float(v) for c, v in r.items()} for r in csv.DictReader(io.StringIO(out))]
            problem = self.check(rows)
            ratios = [r[c] for r in rows for c in ("ratio_uniform", "ratio_optimized")]
            ops.append(Op(exp, seconds, problem is None, {"ratios": ratios}, problem))
        return ops

    @staticmethod
    def check(rows):
        if not rows:
            return "no rows"
        for r in rows:
            n = int(r["n_segments"])
            for where in ("uniform", "optimized"):
                if not r[f"best_l1_{where}"] <= r[f"interp_{where}"]:
                    return f"N={n}: best-L1 error above interpolant error ({where})"
            if n >= 63:
                for measured, bound in BOUND_PAIRS:
                    q = r[measured] / r[bound]
                    if not 1.0 / BOUND_FACTOR <= q <= BOUND_FACTOR:
                        return f"N={n}: {measured}/{bound} = {q:.4f}"
        return None

    def report(self, ops):
        out = {}
        for exp, _ in EXPERIMENTS:
            lat = [latency(o, self.limit_s) for o in ops if o.kind == exp]
            out[f"{exp}_s"] = (median(lat), "s")
        ratios = [q for o in ops if o.ok for q in o.detail["ratios"]]
        gmean = math.exp(float(np.mean(np.log(ratios)))) if ratios else float("nan")
        out["best_over_interp"] = (gmean, "ratio")
        return out


# -- plan_verify -------------------------------------------------------------

FAMILIES = ("gaussian", "chirp", "poly7", "cubic", "expr", "vector")
STRATA = 4  # N* strata per family in one block
N_STAR = (32.0, 4096.0)
DENSITY_SAMPLES = 1 << 16
# Numeric-f'' targets: CLI text with {a}/{b} parameters, its numpy twin,
# the interval, and the parameter ranges.
EXPR_TEMPLATES = (
    ("exp(-{a}*x)*sin({b}*x)", lambda x, a, b: np.exp(-a * x) * np.sin(b * x), (0.0, 3.0), (0.3, 1.5), (1.0, 4.0)),
    ("1/(1+{a}*x^2)", lambda x, a, b: 1.0 / (1.0 + a * x * x), (-2.0, 2.0), (1.0, 5.0), (0.0, 0.0)),
    ("sqrt(x+{a})", lambda x, a, b: np.sqrt(x + a), (0.0, 2.0), (0.2, 1.0), (0.0, 0.0)),
)


def _gaussian_d2(x):
    return (x * x - 1.0) * np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _chirp_d2(x):
    phase = 10.0 * np.pi * x * x
    return 20.0 * np.pi * np.cos(phase) - (20.0 * np.pi * x) ** 2 * np.sin(phase)


def _numeric_d2(f, a, b):
    def d2(x):
        h = 1e-4 * (b - a)
        xc = np.clip(x, a + h, b - h)
        return (f(xc + h) - 2.0 * f(xc) + f(xc - h)) / (h * h)

    return d2


def density_integral(d2s, a, b) -> float:
    """Trapezoid estimate of the integral of (sum |f_j''|)^(1/3) over [a, b]."""
    x = np.linspace(a, b, DENSITY_SAMPLES + 1)
    rho = np.cbrt(sum(np.abs(d2(x)) for d2 in d2s))
    return float(np.sum(0.5 * (rho[1:] + rho[:-1])) * (x[1] - x[0]))


@dataclass
class Case:
    family: str
    tau: float
    interval: tuple
    function: str | None = None  # CLI --function value for scalar cases
    components: tuple = ()  # (factory name, args) pairs for vector cases


def _fmt(v: float) -> str:
    return repr(float(v))


def make_case(rng, family: str, stratum: int, u: float) -> Case:
    """One plan case: a seeded target of the family whose tolerance plans
    about N* segments, N* at fraction u of the stratum on a log scale."""
    lo, hi = np.log(N_STAR[0]), np.log(N_STAR[1])
    n_star = float(np.exp(lo + (hi - lo) * (stratum + u) / STRATA))
    comps = ()
    fn = None
    if family == "gaussian":
        b = float(rng.uniform(2.0, 8.0))
        iv, fn, d2s = (0.0, b), "gaussian", [_gaussian_d2]
    elif family == "chirp":
        c = float(rng.uniform(0.5, 1.0))
        iv, fn, d2s = (0.0, c), "chirp", [_chirp_d2]
    elif family == "poly7":
        base = np.polynomial.Polynomial.fromroots((-4.0, -3.0, -2.5, 0.0, 1.5, 2.0, 3.0))
        iv, fn, d2s = (-4.0, 3.0), "poly7", [base.deriv(2)]
    elif family == "cubic":
        coef = rng.uniform(-1.0, 1.0, 4)
        coef[3] = rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 1.0)
        poly = np.polynomial.Polynomial(coef)
        iv, d2s = (-2.0, 2.0), [poly.deriv(2)]
        fn = "poly:" + ",".join(_fmt(c) for c in coef)
    elif family == "expr":
        text, f, iv, ra, rb = EXPR_TEMPLATES[stratum % len(EXPR_TEMPLATES)]
        a, b = float(rng.uniform(*ra)), float(rng.uniform(*rb))
        fn = "expr:" + text.format(a=_fmt(a), b=_fmt(b))
        d2s = [_numeric_d2(lambda x: f(x, a, b), *iv)]
    else:
        b = float(rng.uniform(2.0, 6.0))
        coef = tuple(float(c) for c in rng.uniform(-0.5, 0.5, 4))
        iv = (0.0, b)
        comps = (("gaussian", (iv,)), ("polynomial", (coef, iv)))
        d2s = [_gaussian_d2, np.polynomial.Polynomial(coef).deriv(2)]
    tau = density_integral(d2s, *iv) ** 3 / (12.0 * n_star**2)
    return Case(family, tau, iv, fn, comps)


class PlanVerify:
    name = "plan_verify"
    limit_s = 10.0
    round_s = 3.5
    host_probe = hostspeed.INTERPRETER

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        # Within each stratum the families split it evenly between them in
        # a seeded order, so every seed plans about the same total work.
        block = []
        for s in range(STRATA):
            slots = rng.permutation(len(FAMILIES))
            for fam, slot in zip(FAMILIES, slots):
                block.append((fam, s, (slot + rng.uniform()) / len(FAMILIES)))
        self.cases = [make_case(rng, *block[k]) for k in rng.permutation(len(block))]
        warm_up()

    def run_round(self, op):
        ops = []
        for case in self.cases:
            if case.family == "vector":
                ops.append(op(case.family, self.vector_case, case))
            else:
                ops.append(op(case.family, self.scalar_case, case))
        return ops

    @staticmethod
    def scalar_case(case: Case) -> Op:
        where = ["--function", case.function]
        if case.family != "poly7":
            where += ["--interval", _fmt(case.interval[0]), _fmt(case.interval[1])]
        plan = ["plan", *where, "--tolerance", _fmt(case.tau), "--format", "json"]
        rc, t_plan, out, err = run_cli(plan)
        if rc != 0:
            return Op(case.family, t_plan, False, {"error": f"plan exit {rc}: {err}"})
        n = {r["kind"]: r["n_segments"] for r in json.loads(out)}
        verify = [
            "error", *where, "--segments", str(n["optimized_interpolant"]),
            "--partition", "optimized", "--fit", "interpolant", "--format", "json",
        ]
        rc, t_err, out, err = run_cli(verify)
        seconds = t_plan + t_err
        if rc != 0:
            return Op(case.family, seconds, False, {"error": f"error exit {rc}: {err}"})
        measured = json.loads(out)[0]["measured"]
        return PlanVerify.finish(case, seconds, n, measured)

    @staticmethod
    def vector_case(case: Case) -> Op:
        start = clock()
        try:
            F = polylin.VectorTargetFunction(
                tuple(getattr(functions, name)(*args) for name, args in case.components)
            )
            a, b = case.interval
            unit_u = vector.vector_bound_uniform_interpolant(F, a, b, 1)
            unit_o = vector.vector_bound_optimized_interpolant(F, a, b, 1)
            p = vector.vector_optimized_partition(F, a, b, math.ceil(math.sqrt(unit_o / case.tau)))
            measured = vector.vector_l1_distance(F, vector.vector_interpolant(F, p))
        except Exception as exc:  # a library exception is a failed op
            return Op(case.family, clock() - start, False, {"error": repr(exc)})
        seconds = clock() - start
        n = {}
        for where, unit in (("uniform", unit_u), ("optimized", unit_o)):
            n[f"{where}_interpolant"] = math.ceil(math.sqrt(unit / case.tau))
            n[f"{where}_best_l1"] = math.ceil(math.sqrt(analysis.BEST_L1_FACTOR * unit / case.tau))
        return PlanVerify.finish(case, seconds, n, measured)

    @staticmethod
    def finish(case, seconds, n, measured) -> Op:
        detail = {"met": measured <= case.tau}
        problem = None
        for kind in ("interpolant", "best_l1"):
            if not n[f"optimized_{kind}"] <= n[f"uniform_{kind}"]:
                problem = f"{case.family}: optimized {kind} plans more segments than uniform"
        for where in ("uniform", "optimized"):
            if not n[f"{where}_best_l1"] <= n[f"{where}_interpolant"]:
                problem = f"{case.family}: best-L1 plans more segments than the interpolant"
        if not (math.isfinite(measured) and measured > 0.0):
            problem = f"{case.family}: measured error {measured!r}"
        return Op(case.family, seconds, problem is None, detail, problem)

    def report(self, ops):
        ok = [o for o in ops if o.ok]
        lat = [latency(o, self.limit_s) for o in ops]
        busy = sum(o.corrected_s for o in ops)
        return {
            "plans_per_s": (len(ok) / busy, "1/s"),
            "plan_p50_ms": (1e3 * median(lat), "ms"),
            "plan_p90_ms": (1e3 * tail(lat), "ms"),
            "plan_met_ratio": (sum(o.detail["met"] for o in ok) / max(len(ok), 1), "ratio"),
        }


# -- evaluate_serve ----------------------------------------------------------

SERVE_SEGMENTS = (31, 1023, 16383)
SERVE_TARGETS = (("gaussian", (0.0, 4.0)), ("chirp", (0.0, 1.0)))
LARGE_BATCH = 1 << 20
CYCLE = 16  # every CYCLE-th request is a large batch
CLAMP_SHARE = 0.25
CLAMP_MARGIN = 0.05  # clamp requests reach this share of b - a outside [a, b]
SMALL_MAX = 256


class EvaluateServe:
    name = "evaluate_serve"
    limit_s = 1.0
    round_s = 1.4
    host_probe = hostspeed.LOOKUP

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.targets = []  # (evaluator, clamp evaluator, knots, ordinates, interval index)
        for t, (name, (a, b)) in enumerate(SERVE_TARGETS):
            f = getattr(functions, name)((a, b))
            for n in SERVE_SEGMENTS:
                for p in (partition.uniform_partition(a, b, n), partition.optimized_partition(f, a, b, n)):
                    g = fit.interpolant(f, p)
                    self.targets.append((
                        evaluate.make_evaluator(g),
                        evaluate.make_evaluator(g, out_of_domain="clamp"),
                        g.partition.knots,
                        g.ordinates,
                        t,
                    ))
        self.large = [rng.uniform(a, b, LARGE_BATCH) for _, (a, b) in SERVE_TARGETS]
        self.large_ref = {}
        # One rotation: CYCLE - 1 small requests, then a large batch on
        # target k.  Every seed sends the same number of small requests to
        # each target, the same share with clamping, and sizes spread evenly
        # over [1, SMALL_MAX] on a log scale; the seed pairs them up.
        n = len(self.targets) * (CYCLE - 1)
        log_size = math.log2(SMALL_MAX) * (rng.permutation(n) + rng.uniform(size=n)) / n
        sizes = np.rint(2.0**log_size).astype(int)
        clamped = rng.permutation(n) < round(CLAMP_SHARE * n)
        which = rng.permutation(np.arange(n) % len(self.targets))
        small = [self.small_request(rng, *req) for req in zip(which, sizes, clamped)]
        self.requests = []
        for k in range(len(self.targets)):
            self.requests += small[k * (CYCLE - 1) : (k + 1) * (CYCLE - 1)]
            self.requests.append(k)
        warm_up()

    def small_request(self, rng, which, size, clamped):
        """(evaluator, abscissae, reference, ordinates) of one small batch."""
        e, e_clamp, knots, v, t = self.targets[which]
        a, b = SERVE_TARGETS[t][1]
        pad = CLAMP_MARGIN * (b - a) if clamped else 0.0
        xs = rng.uniform(a - pad, b + pad, size)
        return (e_clamp if clamped else e), xs, np.interp(xs, knots, v), v

    def run_round(self, op):
        ops = []
        for req in self.requests:
            if isinstance(req, int):
                ops.append(self.large_request(op, req))
            else:
                ops.append(self.small(op, *req))
        return ops

    @staticmethod
    def small(op, e, xs, ref, v) -> Op:
        seconds, ys = op("small", timed, evaluate.evaluate_batch, e, xs)
        if isinstance(ys, Exception):
            return Op("small", seconds, False, {"error": repr(ys)})
        problem = check_batch(ys, ref, v)
        return Op("small", seconds, problem is None, {}, problem)

    def large_request(self, op, k) -> Op:
        e, _, knots, v, t = self.targets[k]
        xs = self.large[t]
        seconds, ys = op("large", timed, evaluate.evaluate_batch, e, xs)
        detail = {"points": xs.size, "mode": e.mode}
        if isinstance(ys, Exception):
            return Op("large", seconds, False, {**detail, "error": repr(ys)})
        if k not in self.large_ref:
            self.large_ref[k] = np.interp(xs, knots, v)
        problem = check_batch(ys, self.large_ref[k], v)
        return Op("large", seconds, problem is None, detail, problem)

    def report(self, ops):
        small = [latency(o, self.limit_s) for o in ops if o.kind == "small"]
        out = {}
        for label, mode in (("uniform", "uniform_direct"), ("search", "binary_search")):
            big = [o for o in ops if o.kind == "large" and o.detail["mode"] == mode]
            points = sum(o.detail["points"] for o in big)
            out[f"{label}_evals_per_s"] = (points / sum(o.corrected_s for o in big) / 1e6, "Meval/s")
        out["small_batch_p50_us"] = (1e6 * median(small), "us")
        out["small_batch_p90_us"] = (1e6 * tail(small), "us")
        return out


def timed(fn, *args):
    """(seconds, result) of one call; an exception is returned as the result."""
    start = clock()
    try:
        out = fn(*args)
    except Exception as exc:  # a library exception is a failed op
        out = exc
    return clock() - start, out


def check_batch(ys, ref, v):
    scale = max(1.0, float(np.max(np.abs(v))))
    if ys.shape != ref.shape:
        return f"shape {ys.shape} vs {ref.shape}"
    err = float(np.max(np.abs(ys - ref)))
    if not err <= 1e-12 * scale:
        return f"batch differs from np.interp by {err:.3e}"
    return None


# -- shared statistics -------------------------------------------------------


def latency(op: Op, limit_s: float) -> float:
    """An op's corrected latency; a failed op counts as the limit plus the
    time it took to fail, so it always misses the limit and a slower failure
    still shows."""
    return op.corrected_s if op.ok else limit_s + op.corrected_s


def median(values) -> float:
    return float(np.median(values))


def tail(values) -> float:
    """The highest percentile up to p90 (nearest rank) with at least ten
    samples beyond it; the maximum when there are ten samples or fewer."""
    s = sorted(values)
    rank = min(math.ceil(0.9 * len(s)), len(s) - 10)
    return float(s[rank - 1] if rank >= 1 else s[-1])


WORKLOADS = {w.name: w for w in (Reproduce, PlanVerify, EvaluateServe)}
