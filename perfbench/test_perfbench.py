"""Tests of the benchmark's own parts.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import corpus  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

SEED_DIR = os.path.join(run.SRC, "corpusprep", "data", "langseed")


def _bytes(workload: str, seed: int) -> bytes:
    records, _ = corpus.generate(workload, seed, SEED_DIR)
    return "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records).encode("utf-8")


@pytest.mark.parametrize("workload", sorted(corpus.SHAPES))
def test_generator_is_a_function_of_the_seed(workload):
    assert _bytes(workload, 7) == _bytes(workload, 7)
    assert _bytes(workload, 7) != _bytes(workload, 8)


def test_clean_corpus_has_the_documented_mix():
    _, shares = corpus.generate("clean", 3, SEED_DIR)
    assert 0.15 < shares["non_target_share"] < 0.25
    assert 0.06 < shares["duplicate_share"] < 0.14
    assert 0.02 < shares["short_share"] < 0.08
    assert shares["markup_share"] > 0.4
    assert 0.15 < shares["lemma_share"] < 0.35


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf(seconds):
        clock.now += seconds

    def rows():
        for _ in range(3):
            clock.now += 0.5
            yield 1

    traced_leaf = tracer.wrap("a.leaf", leaf)
    traced_rows = tracer.wrap_generator("a.rows", rows)

    def outer():
        clock.now += 1.0
        traced_leaf(2.0)
        for _ in traced_rows():
            traced_leaf(0.25)
        clock.now += 1.0

    tracer.wrap("b.outer", outer)()

    calls, self_s, total = tracer.spans["b.outer"]
    assert (calls, total) == (1, 1.0 + 2.0 + 3 * 0.75 + 1.0)
    assert self_s == pytest.approx(2.0)
    assert tracer.spans["a.leaf"] == [4, pytest.approx(2.75), pytest.approx(2.75)]
    # three items plus the next() that raised StopIteration
    assert tracer.spans["a.rows"][:2] == [4, pytest.approx(1.5)]
    assert tracer.counts["a.rows"] == 3
    assert sum(stat[1] for stat in tracer.spans.values()) == pytest.approx(total)


def test_digest_check_catches_one_flipped_shard_byte(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    artifacts = {
        "cleaned": "out/cleaned.jsonl",
        "drops": "out/drops.jsonl",
        "vocab": "out/vocab.txt",
        "merges": "out/merges.txt",
        "shards": ["out/pretrain-0-of-2.tfrecord", "out/pretrain-1-of-2.tfrecord"],
        "report": "out/report.jsonl",
    }
    for name in list(artifacts.values())[:4] + artifacts["shards"] + [artifacts["report"]]:
        (tmp_path / name).write_bytes(name.encode("utf-8") * 10)
    pinned = run.artifact_digest(str(tmp_path), artifacts)
    assert run.digest_errors(run.artifact_digest(str(tmp_path), artifacts), {"pinned": pinned}) == []

    shard = tmp_path / artifacts["shards"][1]
    data = bytearray(shard.read_bytes())
    data[17] ^= 0x01
    shard.write_bytes(bytes(data))
    errors = run.digest_errors(run.artifact_digest(str(tmp_path), artifacts), {"pinned": pinned})
    assert len(errors) == 1 and "pinned" in errors[0]
