"""StageError is built in exactly one place: the ``pipeline._stage`` boundary."""

from __future__ import annotations

import ast
import os

import corpusprep

PACKAGE_DIR = os.path.dirname(corpusprep.__file__)


def stage_error_calls(source: str) -> list:
    """The top-level function or class enclosing each StageError(...) call."""
    found = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "StageError":
                    found.append(getattr(top, "name", None))
    return found


def test_stage_error_built_only_in_stage_boundary():
    calls = []
    for module in sorted(os.listdir(PACKAGE_DIR)):
        if module.endswith(".py"):
            with open(os.path.join(PACKAGE_DIR, module), encoding="utf-8") as handle:
                calls += [(module, where) for where in stage_error_calls(handle.read())]
    assert calls == [("pipeline.py", "_stage")]


def test_check_sees_every_call_site():
    source = (
        "def _stage(name):\n    raise StageError(name, None)\n"
        "class Runner:\n    def run(self):\n        raise errors.StageError('x', None)\n"
        "wrapped = StageError('y', None)\n"
    )
    assert stage_error_calls(source) == ["_stage", "Runner", None]
