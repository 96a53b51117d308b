"""CLI stdout pinned byte for byte on fast commands.

``plan``, ``partition`` and ``error`` on every built-in target, one
``poly:`` target and one ``expr:`` target, two best-L1 ``fit`` runs
(their ordinates and full reports as JSON; the chirp's segments hold
zeros of f''), and ``reproduce gain``, compared with the stdout recorded
under ``tests/data/stdout/``.  Together they
run every layer: curvature integrals, knot tables and their inversion,
the L2 projection, the best-L1 fit and the L1 distance.  A change that
moves a printed digit says why and records the files again, naming only
the records it moves:

    PYTHONPATH=src python tests/test_stdout_pinned.py --record NAME [NAME ...]

Recording prints every line it changed as "NAME: old → new", followed
by the largest relative change among the numbers of the line, so the list
of moved cells, with the size of each move, can be copied from its output.

The records pin outputs with numpy 2.4.6 (Python 3.11, x86-64 Linux).
Another numpy build may round an elementary function differently in the
last bit and so move a printed digit; there the files are recorded again
rather than the program changed.
"""

import argparse
import contextlib
import difflib
import io
import re
import sys
from pathlib import Path

import pytest

from polylin import cli

DATA = Path(__file__).parent / "data" / "stdout"
POLY = ["--function", "poly:1,-2,0.5,0.25", "--interval", "-1", "2"]
EXPR = ["--function", "expr:sin(3*x)*exp(-x)", "--interval", "0", "3"]
OPTIMIZED = ["--partition", "optimized"]

COMMANDS = {
    "plan_gaussian": ["plan", "--function", "gaussian", "--tolerance", "1e-3"],
    "plan_chirp": ["plan", "--function", "chirp", "--tolerance", "1e-2"],
    "plan_poly7": ["plan", "--function", "poly7", "--tolerance", "1e-3"],
    "plan_poly": ["plan", *POLY, "--tolerance", "1e-3"],
    "plan_expr": ["plan", *EXPR, "--tolerance", "1e-3"],
    "partition_gaussian": ["partition", "--function", "gaussian", "--segments", "8", *OPTIMIZED],
    "partition_chirp": ["partition", "--function", "chirp", "--segments", "16", *OPTIMIZED],
    "partition_poly7": ["partition", "--function", "poly7", "--segments", "8", *OPTIMIZED],
    "partition_poly": ["partition", *POLY, "--segments", "6", *OPTIMIZED],
    "partition_expr": ["partition", *EXPR, "--segments", "6", *OPTIMIZED],
    "error_gaussian_interpolant": [
        "error", "--function", "gaussian", "--segments", "8", *OPTIMIZED, "--fit", "interpolant",
    ],
    "error_chirp_l2": ["error", "--function", "chirp", "--segments", "16", *OPTIMIZED, "--fit", "l2"],
    "error_poly7_l2": ["error", "--function", "poly7", "--segments", "8", "--fit", "l2"],
    "error_poly_interpolant": ["error", *POLY, "--segments", "6", *OPTIMIZED, "--fit", "interpolant"],
    "error_expr_l2": ["error", *EXPR, "--segments", "6", *OPTIMIZED, "--fit", "l2"],
    "fit_gaussian_l1": ["fit", "--function", "gaussian", "--segments", "16", *OPTIMIZED, "--fit", "l1"],
    "fit_chirp_l1": ["fit", "--function", "chirp", "--segments", "31", *OPTIMIZED, "--fit", "l1"],
    "reproduce_gain": ["reproduce", "gain"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_record(capsys, name):
    assert cli.main(COMMANDS[name]) == 0
    out = capsys.readouterr().out
    assert out == (DATA / f"{name}.txt").read_text(encoding="utf-8")


def moved(old: str, new: str) -> list[str]:
    """Every line that differs between two records, as "old → new"
    ("(none)" on the side that lacks it)."""
    a, b = old.splitlines(), new.splitlines()
    out = []
    for tag, i1, i2, j1, j2 in difflib.SequenceMatcher(None, a, b, autojunk=False).get_opcodes():
        if tag == "equal":
            continue
        gone, came = a[i1:i2], b[j1:j2]
        for k in range(max(len(gone), len(came))):
            left = gone[k] if k < len(gone) else "(none)"
            right = came[k] if k < len(came) else "(none)"
            out.append(f"{left} → {right}")
    return out


NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def largest_change(old: str, new: str) -> float | None:
    """The largest |new - old| / |old| over the numbers of two lines, taken
    in order; None when the lines do not hold the same count of numbers."""
    a, b = (list(map(float, NUMBER.findall(line))) for line in (old, new))
    if len(a) != len(b):
        return None
    return max((abs(y - x) / abs(x) if x else abs(y) for x, y in zip(a, b) if x != y), default=0.0)


def record(names) -> None:
    """Run the named commands, write their stdout over the records and
    print every line that moved."""
    for name in names:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(COMMANDS[name])
        if code != 0:
            raise SystemExit(f"{name}: polylin exited {code}; record left as it was")
        path = DATA / f"{name}.txt"
        before = path.read_text(encoding="utf-8") if path.exists() else ""
        path.write_text(out.getvalue(), encoding="utf-8")
        for line in moved(before, out.getvalue()):
            change = largest_change(*line.split(" → "))
            size = "" if change is None else f"  (largest relative change {change:.2g})"
            print(f"{name}: {line}{size}")
        print(f"recorded {name}", file=sys.stderr)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Record the pinned stdout of the named commands again.")
    parser.add_argument("--record", nargs="+", choices=sorted(COMMANDS), required=True, metavar="NAME")
    record(parser.parse_args().record)
