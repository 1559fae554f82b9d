"""Per-token memos are ``ingest.Memo``s, and each dies with what it caches.

``Memo`` holds the one memory policy of the package's per-token memos:
computed at a key's first lookup, cleared once it holds ``MEMO_LIMIT`` keys.
An ``ast`` check keeps that policy out of every other module.  A memo's
function holds the tables it needs, not its owner, so a vocab or casing
lexicon is freed by reference counting alone once its stage drops it.
"""

from __future__ import annotations

import ast
import gc
import os
import weakref

import corpusprep
from corpusprep import ingest
from corpusprep.bpe import encode, train_bpe
from corpusprep.ingest import Document, Memo
from corpusprep.truecase import CasingLexicon, truecase_text

PACKAGE_DIR = os.path.dirname(corpusprep.__file__)


def memo_policies(source: str) -> list:
    """Each assignment to a ``*MEMO_LIMIT`` name and each ``__missing__`` definition."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "__missing__":
            found.append("__missing__")
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and name.id.endswith("MEMO_LIMIT"):
                    found.append(name.id)
    return found


def test_only_ingest_holds_a_memo_policy():
    found = {}
    for module in sorted(os.listdir(PACKAGE_DIR)):
        if module.endswith(".py"):
            with open(os.path.join(PACKAGE_DIR, module), encoding="utf-8") as handle:
                policies = memo_policies(handle.read())
            if policies:
                found[module] = policies
    assert found == {"ingest.py": ["MEMO_LIMIT", "__missing__"]}


def test_check_sees_every_memo_policy():
    source = (
        "_MEMO_LIMIT = 1 << 14\n"
        "A, B_MEMO_LIMIT = 1, 2\n"
        "LIMIT: int = 3\n"
        "class C(dict):\n    def __missing__(self, key):\n        return key\n"
        "def f():\n    global MEMO_LIMIT\n    MEMO_LIMIT += 1\n"
        "memo_limit = MEMO_LIMIT\n"
    )
    assert sorted(memo_policies(source)) == [
        "B_MEMO_LIMIT", "MEMO_LIMIT", "_MEMO_LIMIT", "__missing__"
    ]


def test_memo_computes_each_key_once_and_clears_at_its_bound(monkeypatch):
    monkeypatch.setattr(ingest, "MEMO_LIMIT", 3)
    calls = []
    memo = Memo(lambda key: calls.append(key) or key.upper())
    assert [memo[key] for key in "abab"] == ["A", "B", "A", "B"]
    assert calls == ["a", "b"]
    assert [memo[key] for key in "cd"] == ["C", "D"]
    assert memo == {"d": "D"}  # full at "d", so cleared before it was stored
    assert "e" not in memo and memo.get("e") is None  # only subscripting computes


def test_owners_are_freed_without_the_cycle_collector():
    vocab = train_bpe([Document(id="d", text="tere tulemast tartu tallinna")], vocab_size=30)
    lexicon = CasingLexicon({"tallinn": ("Tallinn", 2), "tere": ("tere", 1)})
    gc.disable()
    try:
        assert encode("tere tallinn", vocab) and vocab.word_ids
        assert truecase_text("Tere tallinn", lexicon) == "tere Tallinn" and lexicon.rewrites
        refs = [weakref.ref(vocab), weakref.ref(lexicon)]
        del vocab, lexicon
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()
