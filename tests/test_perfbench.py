"""The benchmark harness still runs against the library: one traced round."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_plan_verify_round(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        w = workloads.PlanVerify(1)
        ops = w.run_round(tracer.op)
    finally:
        undo()
    assert [(o.kind, o.problem, o.detail.get("error")) for o in ops if not o.ok] == []
    # Expression targets carry f'' and the quadrature samples it, under
    # the spans the benchmark counts as functions.d2_points.
    expr_ops = {s[4] for s in tracer.spans if s[0] == "op.expr"}
    with_d2 = {s[4] for s in tracer.spans if s[0] == "functions.d2" and s[5] > 0}
    assert expr_ops and expr_ops <= with_d2


def test_traced_reproduce_round(monkeypatch):
    # The harness's fit hooks record every best-L1 fit: the warm-up fit and
    # the six of the reproduce ops, each at the optimum to within the
    # midpoint sampling of tracing.optimality_residual.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        w = workloads.Reproduce(1)
        ops = w.run_round(tracer.op)
    finally:
        undo()
    assert [(o.kind, o.problem, o.detail.get("error")) for o in ops if not o.ok] == []
    assert len(tracer.fits) == 7
    residuals = [tracing.optimality_residual(f, g) for f, g, _report in tracer.fits]
    assert max(residuals) <= 1e-3, residuals
