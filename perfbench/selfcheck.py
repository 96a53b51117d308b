"""Check that the work counters of a traced run repeat exactly.

    python3 perfbench/selfcheck.py [--seed 1] [--seconds 30] [--workload NAME ...]

Runs ``run.py --trace 1`` twice per workload with one seed, compares the
counters in tracing.WORK_COUNTERS and exits 1 if any differ.  From the
second run's spans it also reports the quadrature calls and integrand
batches made inside each ``optimized_partition`` call.
"""

import argparse
import gzip
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import WORK_COUNTERS  # noqa: E402

WORKLOADS = ("reproduce", "plan_verify", "evaluate_serve")


def traced_run(workload, seed, seconds):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "1",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}, lines[:-1]


def per_optimized_partition(path):
    """Mean quadrature calls and integrand batches under one optimized_partition."""
    with gzip.open(path, "rt") as fh:
        spans = [json.loads(line) for line in fh]
    owner = {}
    for i, (name, _, _, parent, *_rest) in enumerate(spans):
        if name == "partition.optimized_partition":
            owner[i] = i
        elif parent in owner:
            owner[i] = owner[parent]
    calls = sum(spans[i][0] == "quadrature.integrate_segments" for i in owner)
    batches = sum(spans[i][0] == "quadrature.integrand" for i in owner)
    n = sum(spans[i][0] == "partition.optimized_partition" for i in owner)
    return n, calls / max(n, 1), batches / max(n, 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--workload", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args()
    status = 0
    for workload in args.workload:
        first, _ = traced_run(workload, args.seed, args.seconds)
        second, report = traced_run(workload, args.seed, args.seconds)
        differ = [k for k in WORK_COUNTERS if first[k] != second[k]]
        verdict = "identical" if not differ else "DIFFER: " + ", ".join(differ)
        print(f"{workload}: work counters {verdict}")
        for k in WORK_COUNTERS:
            print(f"  {k} {first[k]} {second[k]}")
        for line in report:
            if line.startswith(("overhead", "fit ")):
                print(f"  {line}")
        spans = HERE / "out" / f"{workload}-seed{args.seed}.spans.jsonl.gz"
        n, calls, batches = per_optimized_partition(spans)
        print(f"  optimized_partition x{n}: {calls:.1f} quadrature calls, {batches:.1f} integrand batches each")
        status |= bool(differ)
    return status


if __name__ == "__main__":
    sys.exit(main())
