"""Every name the benchmark's tracer patches or requires exists in walkorder.

A renamed function would otherwise pass these tests and fail only in the
traced benchmark run, where ``Tracer._patch`` raises ``AttributeError``.
``perfbench/tracing.py`` imports only the standard library, so it is loaded
here as it is; ``REQUIRED_LAYERS`` is read from ``perfbench/run.py`` with
``ast``, without importing the harness.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from walkorder.cones import Cone

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _required_layers() -> dict:
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "REQUIRED_LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no REQUIRED_LAYERS")


def _traced_names() -> list:
    tracing = _load_tracing()
    names = [f"{mod}.{fn}" for mod, fn, _ in tracing.SPAN_TARGETS]
    names += [f"{mod}.{fn}" for mod, fn in tracing.LEAF_TARGETS]
    names += [name for layers in _required_layers().values() for name in layers]
    return sorted(set(names))


def _resolve(name: str):
    mod, fn = name.split(".")
    if name == "cones.leq_point":  # the tracer patches the method on the class
        return Cone.leq_point
    return getattr(importlib.import_module(f"walkorder.{mod}"), fn)


def test_required_layers_cover_every_workload():
    assert set(_required_layers()) == {"walk1d", "cone-order", "spectral", "catalyst"}


@pytest.mark.parametrize("name", _traced_names())
def test_traced_name_resolves(name):
    assert callable(_resolve(name))
