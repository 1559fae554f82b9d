"""Which optional modules a run loads, checked in a fresh interpreter.

blake2b comes from the ``_blake2`` C module, so no run loads ``hashlib`` or
OpenSSL's ``_hashlib``; no run loads ``multiprocessing``, ``pickle`` loads
only for forked workers and ``difflib`` only for a config error's hint.  The
checks run in a subprocess because the test process has loaded all of them
long before.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import corpusprep
from test_run_bytes import CONFIG, DIGESTS

SRC = os.path.dirname(os.path.dirname(os.path.abspath(corpusprep.__file__)))
SCRIPT = os.path.join(os.path.dirname(os.path.dirname(__file__)), "scripts",
                      "check_loaded_modules.py")


def _python(cwd, *argv):
    """Run a python subprocess in cwd with corpusprep importable; (process, last stdout line)."""
    path = [SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=300)
    return proc, json.loads(proc.stdout.splitlines()[-1])


def _run_argv(corpus, workers):
    return ["run", "--config", "job.conf", "--input", corpus, "--out-dir", "out",
            "--workers", str(workers)]


@pytest.mark.parametrize("workers, loaded", [(1, []), (2, ["pickle"])])
def test_a_run_loads_no_openssl_and_a_pool_only_with_workers(workers, loaded, tmp_path,
                                                             fixture_corpus_path):
    (tmp_path / "job.conf").write_text(CONFIG, encoding="utf-8")
    proc, result = _python(tmp_path, SCRIPT, *_run_argv(fixture_corpus_path, workers))
    assert result["exit"] == 0 and result["loaded"] == loaded
    assert proc.returncode == 0


def test_a_config_typo_still_gets_its_hint(tmp_path, fixture_corpus_path):
    (tmp_path / "job.conf").write_text(CONFIG.replace("vocab_size", "vocab_sise"), encoding="utf-8")
    proc, result = _python(tmp_path, SCRIPT, *_run_argv(fixture_corpus_path, 1))
    assert "did you mean 'vocab_size'?" in proc.stderr
    assert result["exit"] == 1 and result["loaded"] == ["difflib"]


FALLBACK = """
import hashlib, json, os, random, sys
# CPython's hashlib takes its blake2b from _blake2 too, so bind it before hiding the module
sys.modules["_blake2"] = None
from corpusprep import cleaning, ingest, pretrain
from corpusprep.cli import main

assert ingest.blake2b is hashlib.blake2b
text = "  Tere  TULEMAST\\nkoju  "
key = hashlib.blake2b(" ".join(text.lower().split()).encode("utf-8"), digest_size=16).digest()
assert cleaning.dedup_key(text) == key
seed = 7 ^ int.from_bytes(hashlib.blake2b(b"doc-01\\x001", digest_size=8).digest(), "little")
assert pretrain._doc_rng(7, "doc-01", 1).random() == random.Random(seed).random()
assert main(sys.argv[1:]) == 0
print(json.dumps({name: hashlib.sha256(open(os.path.join("out", name), "rb").read()).hexdigest()
                  for name in sorted(os.listdir("out"))}))
"""


def test_the_hashlib_fallback_gives_the_same_digests(tmp_path, fixture_corpus_path):
    (tmp_path / "job.conf").write_text(CONFIG, encoding="utf-8")
    proc, digests = _python(tmp_path, "-c", FALLBACK, *_run_argv(fixture_corpus_path, 1))
    assert proc.returncode == 0, proc.stderr
    assert digests == DIGESTS
