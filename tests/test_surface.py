"""Public surface: every exported name resolves, and so does every callable
the traced benchmark wraps."""

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
