"""Text inputs are read in one place: ``ingest.read_lines``.

It turns an unopenable or non-UTF-8 file into UnreadableFile naming the
path, so every subcommand exits 2 and names the file.  A config file (an
unreadable one is a validation problem) and a language-profile JSON document
are the only other text reads.
"""

from __future__ import annotations

import ast
import os

import corpusprep

PACKAGE_DIR = os.path.dirname(corpusprep.__file__)

ALLOWED = [
    ("config.py", "validate_config"),
    ("ingest.py", "read_lines"),
    ("langid.py", "LanguageProfiles.load"),
]


def _reads_text(call: ast.Call) -> bool:
    """open(...) in a text mode that reads; a mode we cannot see counts as one."""
    mode = call.args[1] if len(call.args) > 1 else None
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if mode is None:
        return True
    if not isinstance(mode, ast.Constant) or not isinstance(mode.value, str):
        return True
    return "b" not in mode.value and ("r" in mode.value or "+" in mode.value)


def text_reads(source: str) -> list:
    """Qualified name of the function enclosing each text-read open(...)."""
    found = []

    def visit(node: ast.AST, scope: tuple) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope += (node.name,)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open":
            if _reads_text(node):
                found.append(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_text_inputs_read_only_through_read_lines():
    reads = []
    for module in sorted(os.listdir(PACKAGE_DIR)):
        if module.endswith(".py"):
            with open(os.path.join(PACKAGE_DIR, module), encoding="utf-8") as handle:
                reads += [(module, where) for where in text_reads(handle.read())]
    assert reads == ALLOWED


def test_check_sees_every_text_read():
    source = (
        "def a(p):\n    return open(p)\n"
        "def b(p):\n    open(p, 'rb'); open(p, 'w'); open(p, mode='a', encoding='utf-8')\n"
        "class C:\n    def load(self, p, m):\n"
        "        open(p, 'r', encoding='utf-8'); open(p, mode='r+'); open(p, m)\n"
        "top = open('x', encoding='utf-8')\n"
    )
    assert text_reads(source) == ["a", "C.load", "C.load", "C.load", ""]
