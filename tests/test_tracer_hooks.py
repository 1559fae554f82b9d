"""The benchmark tracer's hooks name functions that exist.

``perfbench/child.py`` wraps functions by the name their caller looks up at
call time (``pipeline.strip_markup``, ``pretrain.parse_example``, ...).  A
rename in the package would otherwise only surface when a traced benchmark
run is attempted.
"""

from __future__ import annotations

import importlib.util
import inspect
import os
import sys

import pytest

CHILD = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "child.py")


@pytest.fixture
def child(monkeypatch):
    # child.py puts its own directory on sys.path to import its tracer
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("hooks", ["_run_hooks", "_readback_hooks"])
def test_every_hook_resolves(child, hooks):
    entries = getattr(child, hooks)(child.Tracer())
    assert entries
    for owner, attribute, span, is_generator, _after in entries:
        target = getattr(owner, attribute, None)
        assert callable(target), f"{span}: {owner.__name__}.{attribute} is missing"
        if is_generator:
            assert inspect.isgeneratorfunction(target), f"{span}: not a generator function"
