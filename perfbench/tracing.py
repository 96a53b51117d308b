"""Span tracing of polylin's layers from outside the package.

``install`` replaces the public callables of each polylin module with
wrappers that record a span per call: (name, start, end, parent, op id,
info, error).  The package itself is not modified; every module namespace
that holds a reference to a wrapped callable gets the wrapper, so calls
between modules (``cli`` -> ``fit`` -> ``quadrature``) are seen too.
Targets returned by the ``functions`` factories get traced ``eval`` and
``d2`` callables, and every integrand handed to ``integrate_segments`` is
wrapped so integrand batches and points are counted where they happen.

Spans stay in memory; ``summarize`` turns them into the per-layer metrics
and ``write_spans`` stores them when the run ends.
"""

from __future__ import annotations

import dataclasses
import gzip
import importlib
import json
import sys

import numpy as np

from hostspeed import clock

# Layer -> public callables wrapped in that module.  ``core`` and
# ``_kernels`` are counted under the modules that call them.
WRAPPED = {
    "quadrature": ("integrate_segments",),
    "functions": ("gaussian", "chirp", "poly7", "polynomial", "expression"),
    "partition": (
        "uniform_partition",
        "optimized_partition",
        "build_distribution",
        "invert_distribution",
    ),
    "fit": ("interpolant", "l2_projection", "best_l1_fit"),
    "analysis": (
        "l1_distance",
        "per_interval_errors",
        "error_bound",
        "min_segments_for_tolerance",
        "partition_gain",
    ),
    "vector": (
        "vector_optimized_partition",
        "vector_build_distribution",
        "vector_l1_distance",
        "vector_interpolant",
        "vector_best_l1_fit",
        "vector_bound_uniform_interpolant",
        "vector_bound_optimized_interpolant",
    ),
    "evaluate": ("make_evaluator", "evaluate", "evaluate_batch"),
    "cli": ("main",),
}

BOUND_SPANS = (
    "analysis.error_bound",
    "analysis.min_segments_for_tolerance",
    "analysis.partition_gain",
)
SERVE_SEGMENTS = (31, 1023, 16383)
EVAL_MODES = (("uniform", "uniform_direct"), ("search", "binary_search"))

# Work counters that must repeat exactly for one seed (see selfcheck.py).
WORK_COUNTERS = (
    "quadrature.calls",
    "quadrature.batches",
    "quadrature.points",
    "quadrature.errors",
    "functions.eval_points",
    "functions.d2_points",
    "partition.optimized_partition.calls",
    "partition.invert_quad_calls",
    "fit.newton_iters",
    "fit.function_evals",
    "fit.quad_points",
    "analysis.bounds_quad_calls",
    "evaluate.batch_calls",
    "cli.nonzero_exits",
)

_MARK = "_perfbench_traced"


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.op_id = 0
        self.active = True
        self.nonzero_exits = 0
        self.fits: list[tuple] = []  # (target, result, report) per best-L1 fit
        self.fit_calls = 0

    def call(self, name, fn, args, kwargs, info=None):
        if not self.active:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(None)
        self.stack.append(idx)
        err = None
        start = clock()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            err = type(exc).__name__
            raise
        finally:
            end = clock()
            self.stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op_id, info, err)

    def op(self, kind, fn, *args):
        """Run one benchmark op under its own top-level span and op id."""
        self.op_id += 1
        return self.call(f"op.{kind}", fn, args, {})


def _modules():
    return {name: importlib.import_module(f"polylin.{name}") for name in WRAPPED}


def _wrap_plain(tracer, name, fn):
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return traced


def _wrap_integrate_segments(tracer, fn):
    def traced(fun, *args, **kwargs):
        def integrand(x, seg):
            return tracer.call("quadrature.integrand", fun, (x, seg), {}, np.size(x))

        return tracer.call("quadrature.integrate_segments", fn, (integrand, *args), kwargs)

    return traced


def _traced_target(tracer, target):
    if getattr(target.eval, _MARK, False):
        return target

    def eval_(x):
        return tracer.call("functions.eval", raw_eval, (x,), {}, np.size(x))

    def d2(x):
        return tracer.call("functions.d2", raw_d2, (x,), {}, np.size(x))

    raw_eval, raw_d2 = target.eval, target.second_derivative
    setattr(eval_, _MARK, True)
    return dataclasses.replace(target, eval=eval_, second_derivative=d2)


def _wrap_factory(tracer, name, fn):
    def traced(*args, **kwargs):
        return _traced_target(tracer, tracer.call(name, fn, args, kwargs))

    return traced


def _wrap_best_l1_fit(tracer, fn):
    def traced(f, p, *args, **kwargs):
        tracer.fit_calls += 1
        g, report = tracer.call("fit.best_l1_fit", fn, (f, p, *args), kwargs)
        tracer.fits.append((f, g, report))
        return g, report

    return traced


def _wrap_evaluate_batch(tracer, fn):
    def traced(e, xs, *args, **kwargs):
        info = (e.mode, e.source.partition.n_segments, int(np.size(xs)))
        return tracer.call("evaluate.evaluate_batch", fn, (e, xs, *args), kwargs, info)

    return traced


def _wrap_main(tracer, fn):
    def traced(*args, **kwargs):
        rc = 1
        try:
            rc = tracer.call("cli.main", fn, args, kwargs)
            return rc
        finally:
            if rc != 0:
                tracer.nonzero_exits += 1

    return traced


def install(tracer: Tracer):
    """Wrap every callable in WRAPPED; returns a function that undoes it."""
    mods = _modules()
    special = {
        "quadrature.integrate_segments": _wrap_integrate_segments,
        "fit.best_l1_fit": _wrap_best_l1_fit,
        "evaluate.evaluate_batch": _wrap_evaluate_batch,
        "cli.main": _wrap_main,
    }
    replaced = []
    namespaces = [m for k, m in sys.modules.items() if k == "polylin" or k.startswith("polylin.")]
    for layer, names in WRAPPED.items():
        for attr in names:
            name = f"{layer}.{attr}"
            orig = getattr(mods[layer], attr)
            if name in special:
                wrapper = special[name](tracer, orig)
            elif layer == "functions":
                wrapper = _wrap_factory(tracer, name, orig)
            else:
                wrapper = _wrap_plain(tracer, name, orig)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        setattr(ns, key, wrapper)
                        replaced.append((ns, key, orig))

    def undo():
        for ns, key, orig in reversed(replaced):
            setattr(ns, key, orig)

    return undo


def optimality_residual(f, g, samples: int = 8192) -> float:
    """max_i |integral of sign(f - g) phi_i| / integral of phi_i, by midpoint sampling.

    Zero at the exact best-L1 fit; the sampling floor is about 1/samples
    per crossing of f - g inside a segment.
    """
    knots = g.partition.knots
    v = g.ordinates
    h = np.diff(knots)
    t = (np.arange(samples) + 0.5) / samples
    moments = np.zeros(knots.size)
    for lo in range(0, h.size, 64):
        hi = min(lo + 64, h.size)
        x = knots[lo:hi, None] + h[lo:hi, None] * t[None, :]
        line = (1.0 - t) * v[lo:hi, None] + t * v[lo + 1 : hi + 1, None]
        s = np.sign(np.asarray(f.eval(x), dtype=float) - line)
        moments[lo:hi] += h[lo:hi] * np.mean(s * (1.0 - t), axis=1)
        moments[lo + 1 : hi + 1] += h[lo:hi] * np.mean(s * t, axis=1)
    mass = np.zeros(knots.size)
    mass[:-1] += 0.5 * h
    mass[1:] += 0.5 * h
    return float(np.max(np.abs(moments) / mass))


def summarize(tracer: Tracer, residuals) -> dict:
    """Per-layer metrics (name -> (value, unit)) from the recorded spans."""
    spans = tracer.spans
    names = [s[0] for s in spans]
    dur = np.array([s[2] - s[1] for s in spans])
    parent = np.array([s[3] for s in spans], dtype=np.int64)
    child = np.zeros(len(spans))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child

    def where(pred):
        return [i for i, n in enumerate(names) if pred(n)]

    def under(i, ancestors):
        j = parent[i]
        while j >= 0:
            if names[j] in ancestors:
                return True
            j = parent[j]
        return False

    def total(idx, arr=dur):
        return float(np.sum(arr[idx])) if idx else 0.0

    quad = where(lambda n: n == "quadrature.integrate_segments")
    integrand = where(lambda n: n == "quadrature.integrand")
    fits = [r for _, _, r in tracer.fits]
    m = {}
    m["quadrature.calls"] = (len(quad), "count")
    m["quadrature.batches"] = (len(integrand), "count")
    m["quadrature.points"] = (sum(spans[i][5] for i in integrand), "count")
    m["quadrature.self_s"] = (total(quad, self_time), "s")
    m["quadrature.errors"] = (sum(spans[i][6] == "QuadratureError" for i in quad), "count")

    fev = where(lambda n: n == "functions.eval")
    fd2 = where(lambda n: n == "functions.d2")
    m["functions.eval_points"] = (sum(spans[i][5] for i in fev), "count")
    m["functions.d2_points"] = (sum(spans[i][5] for i in fd2), "count")
    m["functions.self_s"] = (total(where(lambda n: n.startswith("functions.")), self_time), "s")

    opt = where(lambda n: n == "partition.optimized_partition")
    m["partition.optimized_partition.calls"] = (len(opt), "count")
    m["partition.optimized_partition_s"] = (total(opt), "s")
    inv = {"partition.invert_distribution"}
    m["partition.invert_quad_calls"] = (sum(under(i, inv) for i in quad), "count")

    bl1 = {"fit.best_l1_fit"}
    m["fit.best_l1_fit_s"] = (total(where(lambda n: n in bl1)), "s")
    m["fit.l2_projection_s"] = (total(where(lambda n: n == "fit.l2_projection")), "s")
    m["fit.newton_iters"] = (sum(r.iterations for r in fits), "count")
    m["fit.function_evals"] = (sum(r.function_evals for r in fits), "count")
    m["fit.quad_points"] = (sum(spans[i][5] for i in integrand if under(i, bl1)), "count")
    converged = sum(r.converged for r in fits)
    m["fit.converged_ratio"] = (converged / max(tracer.fit_calls, 1), "ratio")
    m["fit.optimality_residual"] = (max(residuals, default=0.0), "ratio")

    bounds = set(BOUND_SPANS)
    m["analysis.l1_distance_s"] = (total(where(lambda n: n == "analysis.l1_distance")), "s")
    m["analysis.bounds_s"] = (total(where(lambda n: n in bounds)), "s")
    m["analysis.bounds_quad_calls"] = (sum(under(i, bounds) for i in quad), "count")

    m["vector.partition_s"] = (total(where(lambda n: n == "vector.vector_optimized_partition")), "s")
    m["vector.l1_distance_s"] = (total(where(lambda n: n == "vector.vector_l1_distance")), "s")
    m["vector.bounds_s"] = (total(where(lambda n: n.startswith("vector.vector_bound_"))), "s")

    batch = where(lambda n: n == "evaluate.evaluate_batch")
    m["evaluate.make_evaluator_s"] = (total(where(lambda n: n == "evaluate.make_evaluator")), "s")
    m["evaluate.batch_calls"] = (len(batch), "count")
    m["evaluate.batch_self_s"] = (total(batch, self_time), "s")
    for label, mode in EVAL_MODES:
        for n in SERVE_SEGMENTS:
            group = [i for i in batch if spans[i][5][:2] == (mode, n)]
            points = sum(spans[i][5][2] for i in group)
            ns = total(group) / points * 1e9 if points else 0.0
            m[f"evaluate.{label}_ns_per_eval.n{n}"] = (ns, "ns")

    m["cli.main_s"] = (total(where(lambda n: n == "cli.main"), self_time), "s")
    m["cli.nonzero_exits"] = (tracer.nonzero_exits, "count")
    m["trace.spans"] = (len(spans), "count")
    return m


def write_spans(tracer: Tracer, path) -> None:
    """Store the spans as one JSON list per line (gzip)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(s) + "\n")
