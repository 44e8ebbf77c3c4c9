"""Every function the benchmark's tracer wraps still exists.

bench/tracing.py names its targets as (module, attribute) pairs in
TARGETS; a target that no longer resolves would only fail in a traced
benchmark run. TARGETS is read from the source, without importing it.
"""
from __future__ import annotations

import ast
import importlib
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _targets() -> dict:
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} binds no TARGETS")


def _owner(name: str):
    """A module, or a class given as module.Class (tracing's _resolve)."""
    try:
        return importlib.import_module(name)
    except ModuleNotFoundError:
        module, _, cls = name.rpartition(".")
        return getattr(importlib.import_module(module), cls)


@pytest.mark.parametrize("span, target", sorted(_targets().items()))
def test_traced_target_resolves(span, target):
    owner, attr = target
    assert callable(getattr(_owner(owner), attr, None)), f"{span}: {owner}.{attr} is gone"
