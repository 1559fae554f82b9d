"""Acceptance gate: nine release criteria, one test and one printed line each.

Every test re-derives its expectations from first principles (hand
arithmetic, brute-force oracles, published checksum vectors, the
hand-audited fixture manifest) rather than trusting library internals, and
prints a single ``acceptance criterion N: PASS`` line when it holds.  Run
with ``pytest tests/test_acceptance.py -v -s`` to see the lines directly.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from collections import Counter
from dataclasses import replace

import pytest

import codec_oracle
from bpe_oracle import oracle_train_bpe
from corpusprep.bpe import SPECIALS, Vocab, decode, encode, train_bpe
from corpusprep.config import PipelineConfig
from corpusprep.errors import CorruptRecord
from corpusprep.ingest import Document, read_documents
from corpusprep.metrics import (
    classification_accuracy,
    ner_span_f1,
    read_conll,
    render_span_report,
    tagging_accuracy,
)
from corpusprep.pipeline import run_pipeline
from corpusprep.pretrain import (
    GenerationConfig,
    PretrainingInstance,
    TokenStore,
    build_instances,
    masked_budget,
    round_half_up,
    serialize_example,
    write_tfrecords,
)
from corpusprep.tfrecord import (
    crc32c,
    example_writer,
    frame_record,
    masked_crc32c,
    read_framed,
)
from dedup_stage import dedup


def _report(n: int, summary: str) -> None:
    print(f"acceptance criterion {n}: PASS — {summary}", flush=True)


# --- 1: masking budgets ---------------------------------------------------


def test_criterion_1_masking_budgets_exact():
    assert masked_budget(128, 0.15) == 20
    assert masked_budget(512, 0.15) == 77
    _report(1, "masked_budget(128)==20 and masked_budget(512)==77")


# --- 2: masking statistics ------------------------------------------------


def test_criterion_2_masking_statistics(mlm_stream):
    instances = mlm_stream["instances"]
    config = mlm_stream["config"]
    assert len(instances) >= 10_000

    budget = masked_budget(config.max_seq_length, config.masked_lm_prob)
    pieces = mlm_stream["vocab"].pieces  # instances carry piece ids
    shown_as_mask = shown_as_original = shown_as_other = 0
    for inst in instances:
        tokens = [pieces[t] for t in inst.tokens]
        labels = [pieces[t] for t in inst.masked_labels]
        original = list(tokens)
        for pos, label in zip(inst.masked_positions, labels):
            original[pos] = label
        maskable = sum(1 for tok in original if tok not in SPECIALS)
        expected = min(budget, max(1, round_half_up(config.masked_lm_prob * maskable)))
        assert len(inst.masked_positions) == expected

        for pos, label in zip(inst.masked_positions, labels):
            shown = tokens[pos]
            if shown == "[MASK]":
                shown_as_mask += 1
            elif shown == label:
                shown_as_original += 1
            else:
                shown_as_other += 1

    total = shown_as_mask + shown_as_original + shown_as_other
    assert total >= 100_000
    assert abs(shown_as_mask / total - 0.8) <= 0.01
    assert abs(shown_as_other / total - 0.1) <= 0.01
    assert abs(shown_as_original / total - 0.1) <= 0.01
    _report(
        2,
        f"count law exact on {len(instances)} instances; "
        f"replacement mix {shown_as_mask / total:.3f}/{shown_as_other / total:.3f}/"
        f"{shown_as_original / total:.3f} within ±0.01 of 0.8/0.1/0.1",
    )


# --- 3: next-sentence balance ----------------------------------------------


def test_criterion_3_next_sentence_balance(mlm_stream, synthetic_docs, synthetic_vocab):
    instances = mlm_stream["instances"]
    assert len(instances) >= 10_000
    actual_fraction = sum(1 for inst in instances if not inst.is_random_next) / len(instances)
    assert 0.48 <= actual_fraction <= 0.52

    for prob, expected_label in ((0.0, False), (1.0, True)):
        config = replace(mlm_stream["config"], random_next_prob=prob, dupe_factor=2)
        labels = {
            inst.is_random_next
            for inst in build_instances(TokenStore(synthetic_docs[:12]), synthetic_vocab, config)
        }
        assert labels == {expected_label}, prob
    _report(3, f"actual-next fraction {actual_fraction:.4f} in [0.48, 0.52]; 0/1 degenerate")


# --- 4: TFRecord bit-exactness ----------------------------------------------


def test_criterion_4_tfrecord_bit_exactness(tmp_path):
    assert crc32c(b"123456789") == 0xE3069283
    assert masked_crc32c(b"") == 0xA282EAD8  # the mask applied to a zero CRC

    rng = random.Random(20260817)
    write = example_writer([("ids", "int64"), ("weights", "float"), ("label", "int64")])
    payloads = []
    for _ in range(1000):
        features = {
            "ids": ("int64", [rng.randint(0, 2**40) for _ in range(rng.randint(1, 40))]),
            "weights": ("float", [rng.random() for _ in range(rng.randint(0, 8))]),
            "label": ("int64", [rng.randint(0, 1)]),
        }
        payloads.append(write(*(values for _, values in features.values())))
        assert payloads[-1] == codec_oracle.encode_example(features, list(features))
    path = str(tmp_path / "examples.tfrecord")
    with open(path, "wb") as handle:
        handle.write(b"".join(frame_record(p) for p in payloads))
    assert [payload for _, payload in read_framed(path)] == payloads

    corrupt = str(tmp_path / "corrupt.tfrecord")
    blob = b"".join(frame_record(p) for p in payloads[:3])
    for position in range(len(blob)):
        mutated = bytearray(blob)
        mutated[position] ^= 0x01
        with open(corrupt, "wb") as handle:
            handle.write(bytes(mutated))
        with pytest.raises(CorruptRecord):
            list(read_framed(corrupt))
    _report(
        4,
        f"CRC vectors hold; 1000-example round trip is byte-identical; "
        f"all {len(blob)} single-byte corruptions detected",
    )


# --- 5: dedup semantics and the fixture manifest ----------------------------


def _digest_of(text: str) -> str:
    collapsed = " ".join(text.lower().split())
    return hashlib.blake2b(collapsed.encode("utf-8"), digest_size=16).hexdigest()


def test_criterion_5_dedup_against_hand_audit(
    tmp_path, fixture_corpus_path, fixture_manifest, fixture_docs
):
    docs = [
        Document(id="a", text="Tere tulemast koju"),
        Document(id="b", text="hoopis teine lause"),
        Document(id="c", text="TERE  tulemast   KOJU"),
    ]
    once = list(dedup(iter(docs)))
    assert [doc.id for doc in once] == ["a", "b"]  # first occurrence wins
    assert list(dedup(iter(once))) == once  # idempotent

    out_dir = str(tmp_path / "out")
    config = PipelineConfig(
        input_path=fixture_corpus_path,
        out_dir=out_dir,
        vocab_size=300,
        generation=GenerationConfig(max_seq_length=32, dupe_factor=2, shards=2, seed=7),
    )
    run_pipeline(config)

    kept = [doc.id for doc in read_documents(os.path.join(out_dir, "cleaned.jsonl"), "json-lines")]
    assert kept == fixture_manifest["kept_ids"]

    with open(os.path.join(out_dir, "drops.jsonl"), encoding="utf-8") as handle:
        rows = [json.loads(line) for line in handle]
    texts = {doc.id: doc.text for doc in fixture_docs}
    assert [row["id"] for row in rows] == [drop["id"] for drop in fixture_manifest["drops"]]
    for row, drop in zip(rows, fixture_manifest["drops"]):
        assert row["stage"] == drop["stage"]
        assert row["reason"] == drop["reason"]
        if drop["reason"] == "Duplicate":
            assert row["detail"] == _digest_of(texts[drop["duplicate_of"]])
    _report(5, "case-variant dedup first-kept and idempotent; drop report equals hand audit")


# --- 6: monotonicity and worker reproducibility -----------------------------


def _run_fingerprint(out_dir: str, shard_paths: list) -> dict:
    fingerprint = {}
    for name in ("cleaned.jsonl", "drops.jsonl", "vocab.txt", "merges.txt"):
        with open(os.path.join(out_dir, name), "rb") as handle:
            fingerprint[name] = handle.read()
    for path in shard_paths:
        with open(path, "rb") as handle:
            fingerprint[os.path.basename(path)] = handle.read()
    return fingerprint


def test_criterion_6_monotonic_and_reproducible(tmp_path, fixture_corpus_path):
    fingerprints = []
    for workers in (1, 3):
        out_dir = str(tmp_path / f"workers{workers}")
        config = PipelineConfig(
            input_path=fixture_corpus_path,
            out_dir=out_dir,
            vocab_size=300,
            generation=GenerationConfig(max_seq_length=32, dupe_factor=2, shards=2, seed=7),
        )
        report = run_pipeline(config, workers=workers)
        for stage in report.stages:
            assert stage.output.documents <= stage.input.documents, stage.stage
            assert stage.output.sentences <= stage.input.sentences, stage.stage
            assert stage.output.words <= stage.input.words, stage.stage
        assert report.after <= report.before
        fingerprints.append(_run_fingerprint(out_dir, report.artifacts["shards"]))
    assert fingerprints[0] == fingerprints[1]
    _report(6, "per-stage stats never grow; workers=1 and workers=3 byte-identical")


# --- 7: BPE -----------------------------------------------------------------


def _oracle_first_merge(words: Counter) -> tuple:
    """Brute-force most-frequent adjacent pair with the documented tie-break."""
    counts: Counter = Counter()
    for word, freq in words.items():
        symbols = ["▁"] + list(word)
        for left, right in zip(symbols, symbols[1:]):
            counts[(left, right)] += freq
    return min(counts, key=lambda pair: (-counts[pair], pair[0] + pair[1], pair))


def test_criterion_7_bpe(tmp_path):
    micro = [Document(id="m", text="aaab aab aab")]
    vocab = train_bpe(iter(micro), 9)
    assert vocab.merges[0] == _oracle_first_merge(Counter({"aaab": 1, "aab": 2}))
    assert vocab.merges[0] == ("a", "a")

    rng = random.Random(7)
    words = [
        "".join(rng.choice("akelmnostu") for _ in range(rng.randint(2, 7)))
        for _ in range(300)
    ]
    docs = [Document(id=f"d{i}", text=" ".join(words[i * 30 : (i + 1) * 30])) for i in range(10)]
    first = train_bpe(iter(docs), 120)
    second = train_bpe(iter(docs), 120)
    assert first.pieces == second.pieces and first.merges == second.merges
    assert len(first.pieces) == 120
    reference = oracle_train_bpe(iter(docs), 120)
    assert first.pieces == reference.pieces and first.merges == reference.merges

    sampler = random.Random(20260817)
    for _ in range(1000):
        text = " ".join(
            "".join(sampler.choice("akelmnostu") for _ in range(sampler.randint(1, 9)))
            for _ in range(sampler.randint(1, 6))
        )
        assert decode(encode(text, first), first) == " ".join(text.split())
    _report(7, "first merge and full merge sequence match oracle; training deterministic "
               "at exact size; 1000 encode/decode round trips hold")


# --- 8: scorer parity --------------------------------------------------------


def _oracle_spans(tags: list) -> set:
    """Quadratic span enumeration straight from the labeling scheme."""
    spans = set()
    n = len(tags)
    for start in range(n):
        tag = tags[start]
        if tag == "O" or "-" not in tag:
            continue
        kind, entity = tag.split("-", 1)
        continues = (f"B-{entity}", f"I-{entity}")
        opens = kind == "B" or (kind == "I" and (start == 0 or tags[start - 1] not in continues))
        if not opens:
            continue
        end = start
        while end + 1 < n and tags[end + 1] == f"I-{entity}":
            end += 1
        spans.add((entity, start, end))
    return spans


def test_criterion_8_scorer_parity(data_dir):
    rng = random.Random(4711)
    alphabet = ["O", "B-PER", "I-PER", "B-LOC", "I-LOC"]
    for _ in range(1000):
        length = rng.randint(1, 12)
        gold = [rng.choice(alphabet) for _ in range(length)]
        pred = [rng.choice(alphabet) for _ in range(length)]
        report = ner_span_f1([gold], [pred])
        gold_spans, pred_spans = _oracle_spans(gold), _oracle_spans(pred)
        assert report.overall.gold == len(gold_spans)
        assert report.overall.predicted == len(pred_spans)
        assert report.overall.correct == len(gold_spans & pred_spans)

    sequences = read_conll(os.path.join(data_dir, "ner_fixture.tsv"))
    gold = [g for _, g, _ in sequences]
    pred = [p for _, _, p in sequences]
    report = ner_span_f1(gold, pred)
    rendered = render_span_report(report, sum(len(g) for g in gold))
    with open(os.path.join(data_dir, "ner_golden.txt"), encoding="utf-8") as handle:
        assert rendered == handle.read()
    assert round(report.overall.f1, 2) == 55.56
    assert round(report.overall.precision, 2) == 55.56

    assert tagging_accuracy([["N", "V", "A"], ["N", "V"]], [["N", "V", "V"], ["N", "V"]]) == 0.8
    assert classification_accuracy(["pos", "neg", "pos", "neg"], ["pos", "pos", "pos", "neg"]) == 0.75
    _report(8, "span scorer equals brute-force oracle on 1000 sequences and the "
               "reference rendering byte-for-byte; accuracies match hand arithmetic")


# --- 9: shard arithmetic ------------------------------------------------------


def test_criterion_9_shard_arithmetic(tmp_path):
    vocab = Vocab(pieces=SPECIALS + tuple(f"▁w{k}" for k in range(10)), merges=())
    config = GenerationConfig(max_seq_length=5, seed=1)
    instances = [
        PretrainingInstance(
            tokens=(2, 5 + i, 3, 3),
            segment_ids=(0, 0, 0, 1),
            masked_positions=(1,),
            masked_labels=(5 + i,),
            is_random_next=bool(i % 2),
        )
        for i in range(10)
    ]
    records = (serialize_example(instance, vocab, config) for instance in instances)
    paths, count = write_tfrecords(records, str(tmp_path), 4)
    assert count == 10
    assert [os.path.basename(path) for path in paths] == [
        f"pretrain-{i}-of-4.tfrecord" for i in range(4)
    ]
    sizes = tuple(sum(1 for _ in read_framed(path)) for path in paths)
    assert sizes == (3, 3, 2, 2)
    assert GenerationConfig().shards == 4
    _report(9, "10 examples over 4 shards land as (3, 3, 2, 2); default shard count is 4")
