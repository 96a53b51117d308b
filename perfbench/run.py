"""polylin benchmark runner.

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 30 --trace 0

Runs one workload (see workloads.py) as a single closed-loop client in
this process, checks every output, and prints a report followed, as the
last line, by one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones of
BENCHMARK.json; with ``--trace 1`` they are the per-layer ones, and the
spans are written under perfbench/out/.  polylin is imported from the
``src`` directory next to this one and nowhere else.
"""

from time import perf_counter

START = perf_counter()

import argparse  # noqa: E402  (the clock starts before the imports)
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import polylin from ./src; None when the checkout has no program."""
    if not (SRC / "polylin" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import polylin

    if not Path(polylin.__file__).resolve().is_relative_to(SRC):
        return None
    return polylin


def environment_stamp(np):
    from polylin import _kernels

    return {
        "backend": _kernels.backend(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "POLYLIN_QUAD_TOL": os.environ.get("POLYLIN_QUAD_TOL"),
        "POLYLIN_NO_NUMBA": os.environ.get("POLYLIN_NO_NUMBA"),
    }


def direct(kind, fn, *args):
    return fn(*args)


def corrected_round(workload, op):
    """One round, with the host-speed factor set on every op (see
    hostspeed.py)."""
    with hostspeed.HostSpeed(workload.host_probe, op) as speed:
        ops = workload.run_round(speed.op)
    for o, f in zip(ops, speed.factors(), strict=True):
        o.host = f
    return ops


def run_rounds(workload, op, seconds=None, rounds=None):
    """Closed loop over whole rounds: a fixed count, or as many as fit in
    ``seconds`` judging by the mean round time so far (at least one).
    Returns the ops of each round."""
    done = []
    start = perf_counter()
    while True:
        done.append(corrected_round(workload, op))
        elapsed = perf_counter() - start
        if rounds is not None:
            if len(done) >= rounds:
                break
        elif elapsed + elapsed / len(done) > seconds:
            break
    return done


def end_to_end(workloads, w, rounds, setup_s):
    """The gated metrics, from host-speed-corrected times.  Every round
    repeats the same ops, and an op's latency is its fastest repetition:
    the one least slowed by other load on the host.  An op is ok when every
    repetition is."""
    best = [
        (all(o.ok for o in reps), min(o.corrected_s for o in reps),
         min(workloads.latency(o, w.limit_s) for o in reps))
        for reps in zip(*rounds)
    ]
    ok, seconds, lat = zip(*best)
    attempts = [o for r in rounds for o in r]
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": (sum(o.ok for o in attempts) / len(attempts), "ratio"),
        "ops_per_s": (sum(ok) / sum(seconds), "1/s"),
        "op_p50_ms": (1e3 * workloads.median(lat), "ms"),
        "op_p90_ms": (1e3 * workloads.tail(lat), "ms"),
    }


def show(label, metrics):
    for name, (value, unit) in metrics.items():
        print(f"{label} {name} {value!r} {unit}")


def problems(ops):
    return Counter(f"{o.kind}: {o.problem or o.detail.get('error')}" for o in ops if not o.ok)


def main(argv=None) -> int:
    args = parse_args(argv)
    cleared = os.environ.pop("POLYLIN_QUAD_TOL", None)
    if cleared is not None:
        print(f"POLYLIN_QUAD_TOL={cleared!r} ignored: workloads run with it unset", file=sys.stderr)
    if import_program() is None:
        print(f"no polylin package under {SRC}", file=sys.stderr)
        return 2
    import numpy as np

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; pick from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    W = workloads.WORKLOADS[args.workload]
    import_s = perf_counter() - START
    print("env " + json.dumps(environment_stamp(np), sort_keys=True))

    if not args.trace:
        # Set-up is mostly small calls in every workload, so the
        # interpreter probe corrects it (hostspeed.py); imports stay raw.
        times = []
        for _ in range(SETUP_REPEATS):
            with hostspeed.HostSpeed(hostspeed.INTERPRETER, direct) as speed:
                t = hostspeed.clock()
                w = speed.op("setup", W, args.seed)
                seconds = hostspeed.clock() - t
            times.append(seconds * speed.factors()[0])
        setup_s = import_s + float(np.median(times))
        rounds = run_rounds(w, direct, seconds=args.seconds)
        metrics = end_to_end(workloads, w, rounds, setup_s)
        ops = [o for r in rounds for o in r]
        print(f"run workload={W.name} seed={args.seed} rounds={len(rounds)} ops={len(ops)}")
        show("metric", metrics)
        show("report", {
            "failed_ratio": (1.0 - metrics["ok_ratio"][0], "ratio"),
            "host_factor_p50": (workloads.median([o.host for o in ops]), "ratio"),
            **w.report(ops),
        })
    else:
        rounds = max(1, round(args.seconds / 2.0 / W.round_s))
        tracer = tracing.Tracer()
        w = W(args.seed)
        undo = tracing.install(tracer)
        w_traced = W(args.seed)
        undo()
        plain, traced = [], []
        # Untraced and traced rounds alternate, and swap order every
        # round, so warm-up effects do not land on one side.
        for r in range(rounds):
            for side in ((0, 1) if r % 2 == 0 else (1, 0)):
                if side == 0:
                    plain.append(corrected_round(w, direct))
                    continue
                undo = tracing.install(tracer)
                try:
                    traced.append(corrected_round(w_traced, tracer.op))
                finally:
                    undo()
        tracer.active = False
        residuals = [tracing.optimality_residual(f, g) for f, g, _ in tracer.fits]
        ops = [o for r in plain + traced for o in r]
        metrics = tracing.summarize(tracer, residuals)
        busy = [sum(o.corrected_s for r in part for o in r) for part in (plain, traced)]
        metrics["trace.overhead_ratio"] = (busy[1] / busy[0] - 1.0, "ratio")
        print(f"run workload={W.name} seed={args.seed} rounds={rounds} ops={len(ops)} traced")
        show("layer", metrics)
        untraced_e2e = end_to_end(workloads, w, plain, float("nan"))
        traced_e2e = end_to_end(workloads, w, traced, float("nan"))
        for name in ("ok_ratio", "ops_per_s", "op_p50_ms", "op_p90_ms"):
            (u, unit), (t, _) = untraced_e2e[name], traced_e2e[name]
            print(f"overhead {name} untraced={u!r} traced={t!r} diff={t - u!r} {unit}")
        for (f, g, report), r in zip(tracer.fits, residuals):
            print(
                f"fit N={g.partition.n_segments} uniform={g.partition.is_uniform} "
                f"converged={report.converged} iterations={report.iterations} "
                f"optimality_residual={r!r}"
            )
        tracing.write_spans(tracer, OUT / f"{W.name}-seed{args.seed}.spans.jsonl.gz")

    for text, count in problems(ops).items():
        print(f"failure x{count} {text}")
    failed = sum(not o.ok for o in ops)
    print(json.dumps({
        "correct": not any(o.problem for o in ops),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
