"""Public surface: every exported name resolves, and so does every callable
the traced benchmark wraps; the command line uses only public names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import polylin

MODULES = tuple(m.name for m in pkgutil.iter_modules(polylin.__path__))


@pytest.mark.parametrize("name", ("__init__", *MODULES))
def test_all_names_resolve(name):
    module = polylin if name == "__init__" else importlib.import_module(f"polylin.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_benchmark_wrapped_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    missing = [
        f"{module}.{name}"
        for module, names in tracing.WRAPPED.items()
        for name in names
        if not hasattr(importlib.import_module(f"polylin.{module}"), name)
    ]
    assert missing == []


def test_cli_uses_no_private_name_of_another_module():
    source = Path(importlib.import_module("polylin.cli").__file__).read_text()
    nodes = list(ast.walk(ast.parse(source)))
    imports = [n for n in nodes if isinstance(n, ast.ImportFrom)]
    ours = [n for n in imports if n.level == 1 or (n.module or "").startswith("polylin")]
    # Modules bound by ``from . import analysis`` or ``from polylin import fit``.
    modules = {
        a.asname or a.name for n in ours if n.module in (None, "polylin") for a in n.names
    }
    private = [f"{n.module}.{a.name}" for n in ours for a in n.names if a.name.startswith("_")]
    private += [
        f"{n.value.id}.{n.attr}"
        for n in nodes
        if isinstance(n, ast.Attribute)
        and isinstance(n.value, ast.Name)
        and n.value.id in modules
        and n.attr.startswith("_")
    ]
    assert "analysis" in modules
    assert private == []
