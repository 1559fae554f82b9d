"""Text inputs are read in one place, ``ingest.read_lines``; outputs are
written in one place, ``ingest.open_output``, and only ``ingest`` makes
output directories and tells whether two paths name one file.

``read_lines`` turns an unopenable or non-UTF-8 file into UnreadableFile
naming the path, so every subcommand exits 2 and names the file; a config
file is read through it too, its UnreadableFile turned into a ConfigError
(exit 1).  ``open_output`` commits a file only once it is complete and turns a
write failure into IoError naming the path.
"""

from __future__ import annotations

import ast
import os

import corpusprep

PACKAGE_DIR = os.path.dirname(corpusprep.__file__)

ALLOWED = [("ingest.py", "read_lines")]


def _mode(call: ast.Call):
    """The mode string of open(...): "r" when omitted, None when not a literal."""
    mode = call.args[1] if len(call.args) > 1 else None
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if mode is None:
        return "r"
    if not isinstance(mode, ast.Constant) or not isinstance(mode.value, str):
        return None
    return mode.value


def _reads_text(mode) -> bool:
    """A text mode that reads; a mode we cannot see counts as one."""
    return mode is None or ("b" not in mode and ("r" in mode or "+" in mode))


def _writes(mode) -> bool:
    """A mode that writes, text or binary; a mode we cannot see counts as one."""
    return mode is None or any(flag in mode for flag in "wax+")


def opens(source: str, kind) -> list:
    """Qualified name of the function enclosing each open(...) whose mode is kind."""
    found = []

    def visit(node: ast.AST, scope: tuple) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope += (node.name,)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open":
            if kind(_mode(node)):
                found.append(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def _dotted(node: ast.AST) -> str:
    """The dotted name a call's function is written as: "os.path.samefile"; "" if not a name."""
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else ""


def calls(source: str, names) -> list:
    """(qualified name of the enclosing function, dotted name) of each call of one of names."""
    found = []

    def visit(node: ast.AST, scope: tuple) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope += (node.name,)
        if isinstance(node, ast.Call) and _dotted(node.func) in names:
            found.append((".".join(scope), _dotted(node.func)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def _package_sources():
    for module in sorted(os.listdir(PACKAGE_DIR)):
        if module.endswith(".py"):
            with open(os.path.join(PACKAGE_DIR, module), encoding="utf-8") as handle:
                yield module, handle.read()


def _package_opens(kind) -> list:
    return [(module, where) for module, source in _package_sources()
            for where in opens(source, kind)]


def test_text_inputs_read_only_through_read_lines():
    assert _package_opens(_reads_text) == ALLOWED


def test_outputs_written_only_through_open_output():
    assert set(_package_opens(_writes)) == {("ingest.py", "open_output")}


def test_output_paths_decided_only_in_ingest():
    found = [(module, *call) for module, source in _package_sources()
             for call in calls(source, ("os.makedirs", "os.path.samefile"))]
    assert found == [("ingest.py", "make_output_dir", "os.makedirs")]


def test_check_sees_every_path_call():
    source = (
        "import os\nos.makedirs('d')\n"
        "def a(p):\n    os.makedirs(p, exist_ok=True); os.path.exists(p); makedirs(p)\n"
        "class B:\n    def same(self, p, q):\n        return os.path.samefile(p, q)\n"
        "def c(p):\n    return [os.path.samefile(p, q) for q in p.split()], path.samefile(p, p)\n"
    )
    assert calls(source, ("os.makedirs", "os.path.samefile")) == [
        ("", "os.makedirs"), ("a", "os.makedirs"), ("B.same", "os.path.samefile"),
        ("c", "os.path.samefile"),
    ]


def test_check_sees_every_text_read():
    source = (
        "def a(p):\n    return open(p)\n"
        "def b(p):\n    open(p, 'rb'); open(p, 'w'); open(p, mode='a', encoding='utf-8')\n"
        "class C:\n    def load(self, p, m):\n"
        "        open(p, 'r', encoding='utf-8'); open(p, mode='r+'); open(p, m)\n"
        "top = open('x', encoding='utf-8')\n"
        "def w(p):\n    open(p, 'wb'); open(p, 'x'); open(p, mode='ab'); open(p, 'rb+')\n"
    )
    assert opens(source, _reads_text) == ["a", "C.load", "C.load", "C.load", ""]
    assert opens(source, _writes) == ["b", "b", "C.load", "C.load", "w", "w", "w", "w"]
