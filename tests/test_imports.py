"""Every name a corpusprep module imports is used in that module, and every
absolute import names a standard-library module."""

from __future__ import annotations

import ast
import os
import sys

import pytest

import corpusprep

PACKAGE_DIR = os.path.dirname(corpusprep.__file__)
MODULES = sorted(
    name for name in os.listdir(PACKAGE_DIR) if name.endswith(".py") and name != "__init__.py"
)


def unused_imports(source: str) -> list:
    """Names bound by import statements that no other expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def non_stdlib_imports(source: str) -> list:
    """Top-level modules of absolute imports that the standard library does not provide."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.split(".")[0] not in sys.stdlib_module_names]
    return found


def test_modules_found():
    assert "pipeline.py" in MODULES and "tfrecord.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(PACKAGE_DIR, module), encoding="utf-8") as handle:
        assert unused_imports(handle.read()) == []


def test_check_sees_unused_and_used_names():
    source = "import os.path\nimport json as j\nfrom typing import List, Tuple\n"
    source += "x: List = j.dumps()\n"
    assert unused_imports(source) == [(1, "os"), (3, "Tuple")]


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_imports_only_the_standard_library(module):
    with open(os.path.join(PACKAGE_DIR, module), encoding="utf-8") as handle:
        assert non_stdlib_imports(handle.read()) == []


def test_check_sees_non_stdlib_imports():
    source = "import os.path\nimport numpy as np\nfrom yaml.loader import Loader\n"
    source += "from . import bpe\nfrom .errors import IoError\nfrom collections import abc\n"
    source += "def f():\n    import hypothesis\n"
    assert non_stdlib_imports(source) == [(2, "numpy"), (3, "yaml.loader"), (8, "hypothesis")]
