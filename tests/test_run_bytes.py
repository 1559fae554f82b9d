"""Pin the bytes of every artifact `corpusprep run` writes for the fixture.

The digests were recorded before the piece-id refactor of the example
generator and must not move for any worker count: a change to cleaning,
BPE, instance generation, serialization or framing that alters one byte of
cleaned, drops, vocab, merges, a shard or the report fails here.  Runs
happen from tmp_path with the relative out-dir "out", so the artifact paths
inside the report are the same on every machine.
"""

from __future__ import annotations

import hashlib

import pytest

from corpusprep.cli import main

CONFIG = """\
[vocab]
vocab_size = 300
[examples]
max_seq_length = 32
dupe_factor = 3
shards = 3
seed = 7
"""

DIGESTS = {
    "cleaned.jsonl": "67c81183edb869aeee7244691c29e190bdd5c7d23d210bdbddc5c26483e02cf1",
    "drops.jsonl": "acd399c350c67aa69fa56c273fb57fd1a3338b864e84c91de506170187beaff2",
    "merges.txt": "950d0769f6e21b82e12fa157f9d53955bfd971e3e2b0f7c68ce4a5c5408a5e52",
    "pretrain-0-of-3.tfrecord": "dedfb88aeab53da25f4b598f34d7106d4025496f2cd9933803a9dc56933c994d",
    "pretrain-1-of-3.tfrecord": "cf51da81aeee2569617a87b08fdd55c66873cdde7f4d316170746d3596534d89",
    "pretrain-2-of-3.tfrecord": "56c39276db2ebce95daab4b1b00ad40eb1651b09a07df9cabb78e3d50d4a115f",
    "report.jsonl": "39c44ed27c26c37959ecc60e82a922664c7301b68434dd86788323fb30c9fd48",
    "vocab.txt": "c0506cf58aa9be948c887004cfb3085bccead79e2b1de4889d5de0115bc195a4",
}


@pytest.mark.parametrize("workers", [1, 2])
def test_run_artifacts_match_pinned_digests(
    workers, tmp_path, monkeypatch, capsys, fixture_corpus_path
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "job.conf").write_text(CONFIG, encoding="utf-8")
    argv = ["run", "--config", "job.conf", "--input", fixture_corpus_path, "--out-dir", "out"]
    assert main(argv + ["--workers", str(workers)]) == 0
    capsys.readouterr()
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted((tmp_path / "out").iterdir())
    }
    assert digests == DIGESTS
