"""Pretraining instance generation, masking, serialization, and sharding."""

from __future__ import annotations

import dataclasses
import functools
import glob
import json
import os
import random
import re
import signal
import struct
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager
from unittest import mock

import codec_oracle
import instance_oracle
import pytest
import record_oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpusprep.bpe import CLS_ID, MASK_ID, SEP_ID, SPECIALS, Vocab, train_bpe
from corpusprep import forked, pretrain
from corpusprep.errors import (
    CorpusTooSmall, CorruptRecord, IdOutOfRange, NoMaskableTokens, PipelineError,
)
from corpusprep.forked import _BLOCK
from corpusprep.ingest import Document
from corpusprep.pipeline import write_examples
from corpusprep.pretrain import (
    _READ_EXAMPLE,
    _decode_payload,
    _instances_for_doc,
    FEATURE_ORDER,
    GenerationConfig,
    PretrainingInstance,
    SerializedExample,
    TokenStore,
    apply_masking,
    build_instances,
    example_payload,
    masked_budget,
    read_tfrecords,
    round_half_up,
    serialize_example,
    shard_paths,
    tokenize_documents,
    write_tfrecords,
)
from corpusprep.tfrecord import _LAYOUTS, example_reader, frame_record, parse_example

DATA = os.path.join(os.path.dirname(__file__), "data")


def _read_back(record: bytes) -> SerializedExample:
    """A framed record, decoded as read_tfrecords decodes each record of a shard."""
    payload = record[12:-4]
    assert frame_record(payload) == record
    return _decode_payload(payload, "record", 0)


@contextmanager
def _within(seconds: int):
    """Fail with TimeoutError, rather than hang, if the block runs longer than seconds."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _assert_no_child_left():
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _ShortWrite(Exception):
    """Pickles, but its __init__ cannot take the message it is unpickled with."""

    def __init__(self, path, offset):
        super().__init__(f"{path} at {offset}")


class TestMaskedBudget:
    def test_bert_base_values(self):
        assert masked_budget(128, 0.15) == 20
        assert masked_budget(512, 0.15) == 77

    def test_other_lengths(self):
        assert masked_budget(1, 0.15) == 1
        assert masked_budget(20, 0.15) == 3  # exact product, no float inflation
        assert masked_budget(10, 0.0) == 0

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            masked_budget(0, 0.15)


class TestRoundHalfUp:
    def test_half_rounds_up(self):
        assert round_half_up(0.5) == 1
        assert round_half_up(1.5) == 2
        assert round_half_up(2.5) == 3

    def test_below_half_rounds_down(self):
        assert round_half_up(0.49) == 0
        assert round_half_up(2.4) == 2

    def test_float_noise_guard(self):
        # 0.15 * population sizes that land exactly on .5 in decimal
        assert round_half_up(0.15 * 10) == 2  # 1.5
        assert round_half_up(0.15 * 30) == 5  # 4.5


class TestGenerationConfig:
    def test_defaults(self):
        config = GenerationConfig()
        assert config.max_seq_length == 128
        assert config.masked_lm_prob == 0.15
        assert config.dupe_factor == 10
        assert config.shards == 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_seq_length": 4},
            {"masked_lm_prob": 1.5},
            {"random_next_prob": -0.1},
            {"short_seq_prob": 2.0},
            {"dupe_factor": 0},
            {"shards": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GenerationConfig(**kwargs)


@pytest.fixture(scope="module")
def golden():
    with open(os.path.join(DATA, "pretrain_golden.json"), encoding="utf-8") as f:
        return json.load(f)


def _spelled_docs(store, vocab):
    """The store's documents with their piece ids spelled as pieces, the oracle's input."""
    return [
        (doc_id, [[vocab.pieces[t] for t in s] for s in sentences])
        for doc_id, sentences in instance_oracle.unpack(store)
    ]


def _spelled(instances, vocab):
    """The generator's instances as the reference returns them, ids spelled as pieces."""
    return [
        (
            tuple(vocab.pieces[t] for t in i.tokens),
            i.segment_ids,
            i.masked_positions,
            tuple(vocab.pieces[t] for t in i.masked_labels),
            i.is_random_next,
        )
        for i in instances
    ]


@pytest.fixture(scope="module")
def golden_setup(golden):
    vocab = Vocab(pieces=tuple(golden["pieces"]), merges=())
    docs = TokenStore(
        (d["id"], [[vocab.piece_to_id[p] for p in s] for s in d["sentences"]])
        for d in golden["documents"]
    )
    config = GenerationConfig(**golden["config"])
    return vocab, docs, config


class TestGoldenTrace:
    def test_generation_matches_reference_replay(self, golden_setup):
        vocab, docs, config = golden_setup
        got = _spelled(build_instances(docs, vocab, config), vocab)
        assert got == instance_oracle.instances(_spelled_docs(docs, vocab), config, vocab.pieces)

    def test_serialized_examples_match_frozen_golden(self, golden, golden_setup):
        vocab, docs, config = golden_setup
        examples = [
            _read_back(serialize_example(inst, vocab, config))
            for inst in build_instances(docs, vocab, config)
        ]
        assert len(examples) == len(golden["examples"])
        for got, want in zip(examples, golden["examples"]):
            assert list(got.input_ids) == want["input_ids"]
            assert list(got.input_mask) == want["input_mask"]
            assert list(got.segment_ids) == want["segment_ids"]
            assert list(got.masked_lm_positions) == want["masked_lm_positions"]
            assert list(got.masked_lm_ids) == want["masked_lm_ids"]
            assert list(got.masked_lm_weights) == pytest.approx(want["masked_lm_weights"])
            assert got.next_sentence_labels == want["next_sentence_labels"]

    def test_reference_replay_on_synthetic_stream(self, synthetic_vocab):
        # cross-check beyond the tiny fixture: a few larger documents
        docs = TokenStore(
            (
                f"r{d}",
                [[len(SPECIALS) + (d * 31 + s * 7 + k) % 500 for k in range(4)] for s in range(12)],
            )
            for d in range(6)
        )
        config = GenerationConfig(
            max_seq_length=24, dupe_factor=3, seed=77, shards=1
        )
        got = _spelled(build_instances(docs, synthetic_vocab, config), synthetic_vocab)
        assert got == instance_oracle.instances(
            _spelled_docs(docs, synthetic_vocab), config, synthetic_vocab.pieces
        )


class TestInstanceInvariants:
    def test_structural_checks_enforced(self):
        with pytest.raises(ValueError):
            PretrainingInstance(
                tokens=(5, SEP_ID, SEP_ID),
                segment_ids=(0, 0, 1),
                masked_positions=(),
                masked_labels=(),
                is_random_next=False,
            )  # no [CLS]
        with pytest.raises(ValueError):
            PretrainingInstance(
                tokens=(CLS_ID, 5, SEP_ID),
                segment_ids=(0, 0, 0),
                masked_positions=(),
                masked_labels=(),
                is_random_next=False,
            )  # one [SEP]

    # (0, 0, 2) and (0, 2, 2) are the (0, 2) case at the shortest length that
    # passes the [CLS]/[SEP] checks
    @pytest.mark.parametrize("segment_ids", [(0, 1, 0), (0, 0, 2), (0, 2, 2)])
    def test_segments_not_zeros_then_ones_rejected(self, segment_ids):
        with pytest.raises(ValueError, match="zeros followed by ones"):
            PretrainingInstance(
                tokens=(CLS_ID, SEP_ID, SEP_ID),
                segment_ids=segment_ids,
                masked_positions=(),
                masked_labels=(),
                is_random_next=False,
            )

    @pytest.mark.parametrize("segment_ids", [(1, 1, 1), (0, 0, 1)])
    def test_segments_zeros_then_ones_accepted(self, segment_ids):
        instance = PretrainingInstance(
            tokens=(CLS_ID, SEP_ID, SEP_ID),
            segment_ids=segment_ids,
            masked_positions=(),
            masked_labels=(),
            is_random_next=False,
        )
        assert instance.segment_ids == segment_ids

    def test_stream_instances_satisfy_contract(self, mlm_stream):
        config = mlm_stream["config"]
        budget = masked_budget(config.max_seq_length, config.masked_lm_prob)
        for inst in mlm_stream["instances"][:2000]:
            assert inst.tokens[0] == CLS_ID
            assert inst.tokens.count(SEP_ID) == 2
            assert inst.tokens[-1] == SEP_ID
            assert len(inst.tokens) <= config.max_seq_length
            assert len(inst.segment_ids) == len(inst.tokens)
            assert 1 <= len(inst.masked_positions) <= budget
            # exactly the non-special positions are maskable
            for pos in inst.masked_positions:
                assert inst.tokens[pos] not in (CLS_ID, SEP_ID)

    def test_prediction_count_law_holds_on_every_instance(self, mlm_stream):
        config = mlm_stream["config"]
        budget = masked_budget(config.max_seq_length, config.masked_lm_prob)
        for inst in mlm_stream["instances"]:
            maskable = len(inst.tokens) - 3  # [CLS] and two [SEP]
            expected = min(budget, max(1, round_half_up(config.masked_lm_prob * maskable)))
            assert len(inst.masked_positions) == expected


class TestMaskingDistribution:
    def test_replacement_mix_near_80_10_10(self, mlm_stream):
        masked = randomized = kept = 0
        for inst in mlm_stream["instances"]:
            for pos, label in zip(inst.masked_positions, inst.masked_labels):
                tok = inst.tokens[pos]
                if tok == MASK_ID:
                    masked += 1
                elif tok == label:
                    kept += 1
                else:
                    randomized += 1
        total = masked + randomized + kept
        assert total >= 100_000
        assert masked / total == pytest.approx(0.8, abs=0.01)
        assert randomized / total == pytest.approx(0.1, abs=0.01)
        assert kept / total == pytest.approx(0.1, abs=0.01)

    def test_masked_labels_record_original_tokens(self, synthetic_vocab):
        config = GenerationConfig(max_seq_length=16, seed=5, dupe_factor=1)
        # ▁p000 .. ▁p005, then ▁p009, the pieces after the five specials
        original = [CLS_ID, *(5 + i for i in range(6)), SEP_ID, 5 + 9, SEP_ID]
        tokens = list(original)
        positions, labels = apply_masking(tokens, synthetic_vocab, config, random.Random(3))
        assert isinstance(positions, tuple) and isinstance(labels, tuple)
        assert positions and len(positions) == len(labels)
        for pos, label in zip(positions, labels):
            assert label == original[pos]
        # masked in place; every other position keeps its token
        assert tokens != original
        assert all(t == original[k] for k, t in enumerate(tokens) if k not in positions)

    def test_no_maskable_tokens_rejected(self, synthetic_vocab):
        tokens = [CLS_ID, MASK_ID, SEP_ID, MASK_ID, SEP_ID]
        with pytest.raises(NoMaskableTokens):
            apply_masking(tokens, synthetic_vocab, GenerationConfig(), random.Random(0))
        assert tokens == [CLS_ID, MASK_ID, SEP_ID, MASK_ID, SEP_ID]

    def test_random_replacements_never_special(self, mlm_stream):
        pieces = mlm_stream["vocab"].pieces
        for inst in mlm_stream["instances"][:5000]:
            for pos in inst.masked_positions:
                tok = pieces[inst.tokens[pos]]
                assert tok == "[MASK]" or tok not in SPECIALS


class TestNextSentence:
    def test_balance_at_half(self, mlm_stream):
        instances = mlm_stream["instances"]
        assert len(instances) >= 10_000
        actual = sum(1 for i in instances if not i.is_random_next)
        frac = actual / len(instances)
        assert 0.48 <= frac <= 0.52

    def test_probability_one_gives_all_random(self, synthetic_docs, synthetic_vocab):
        config = GenerationConfig(
            max_seq_length=32, random_next_prob=1.0, dupe_factor=1, seed=8
        )
        labels = {
            i.is_random_next
            for i in build_instances(TokenStore(synthetic_docs[:10]), synthetic_vocab, config)
        }
        assert labels == {True}

    def test_probability_zero_gives_all_actual(self, synthetic_docs, synthetic_vocab):
        config = GenerationConfig(
            max_seq_length=32, random_next_prob=0.0, dupe_factor=1, seed=8
        )
        labels = {
            i.is_random_next
            for i in build_instances(TokenStore(synthetic_docs[:10]), synthetic_vocab, config)
        }
        assert labels == {False}

    def test_random_segment_comes_from_other_document(self, golden_setup):
        vocab, docs, config = golden_setup
        doc_pieces = {
            doc_id: {t for s in sentences for t in s}
            for doc_id, sentences in instance_oracle.unpack(docs)
        }
        for inst in build_instances(docs, vocab, config):
            if not inst.is_random_next:
                continue
            sep = inst.tokens.index(SEP_ID)
            b = [t for t in inst.tokens[sep + 1 : -1] if vocab.pieces[t] not in SPECIALS]
            # every b-side token of this tiny corpus identifies its source doc
            a = [t for t in inst.tokens[1:sep] if vocab.pieces[t] not in SPECIALS]
            a_src = {d for d, pieces in doc_pieces.items() if set(a) & pieces}
            b_src = {d for d, pieces in doc_pieces.items() if set(b) & pieces}
            # labels may overlap after random replacement; require b to include
            # pieces from some document other than a's source
            assert b_src - a_src or not b


class TestBuildInstances:
    def test_needs_two_documents(self, synthetic_vocab):
        docs = TokenStore([("only", [[6]])])  # ▁p001
        with pytest.raises(CorpusTooSmall):
            list(build_instances(docs, synthetic_vocab, GenerationConfig()))

    def test_worker_counts_agree(self, synthetic_docs, synthetic_vocab):
        config = GenerationConfig(max_seq_length=32, dupe_factor=2, seed=13)
        docs = TokenStore(synthetic_docs[:12])
        serial = list(build_instances(docs, synthetic_vocab, config, workers=1))
        two = list(build_instances(docs, synthetic_vocab, config, workers=2))
        four = list(build_instances(docs, synthetic_vocab, config, workers=4))
        assert serial == two == four

    def test_worker_counts_agree_across_pool_windows(self, synthetic_docs, synthetic_vocab):
        # 40 documents x dupe 3 = 120 tasks, more than one block for each of two workers
        docs = TokenStore(synthetic_docs[:40])
        config = GenerationConfig(max_seq_length=32, dupe_factor=3, seed=21)
        assert config.dupe_factor * len(docs) > _BLOCK * 2
        serial = list(build_instances(docs, synthetic_vocab, config, workers=1))
        two = list(build_instances(docs, synthetic_vocab, config, workers=2))
        four = list(build_instances(docs, synthetic_vocab, config, workers=4))
        assert serial == two == four

    def test_interleaved_serial_generators_are_independent(self, synthetic_docs,
                                                             synthetic_vocab):
        # two serial streams pulled in turn in one process each give the
        # instances they give alone
        runs = [
            (synthetic_docs[:6], GenerationConfig(max_seq_length=32, dupe_factor=2, seed=1)),
            (synthetic_docs[6:9], GenerationConfig(max_seq_length=48, dupe_factor=3, seed=2)),
        ]
        runs = [(TokenStore(docs), config) for docs, config in runs]
        alone = [list(build_instances(docs, synthetic_vocab, config)) for docs, config in runs]
        streams = [build_instances(docs, synthetic_vocab, config) for docs, config in runs]
        pulled = [[], []]
        for _ in range(max(map(len, alone)) + 1):
            for stream, instances in zip(streams, pulled):
                instance = next(stream, None)
                if instance is not None:
                    instances.append(instance)
        assert pulled == alone
        assert len(alone[0]) != len(alone[1])

    def test_order_is_dupe_major(self, golden_setup):
        vocab, docs, config = golden_setup
        # dupe 0 instances of every doc come before any dupe 1 instance;
        # verified indirectly: the stream equals the reference replay, whose
        # loop nesting is explicit.  Here check the stream is stable.
        a = list(build_instances(docs, vocab, config))
        b = list(build_instances(docs, vocab, config))
        assert a == b

    def test_finished_streams_agree_across_pool_windows(self, synthetic_docs, synthetic_vocab):
        docs = TokenStore(synthetic_docs[:40])
        config = GenerationConfig(max_seq_length=32, dupe_factor=3, seed=21)
        assert config.dupe_factor * len(docs) > _BLOCK * 2

        def finish(instance):
            return serialize_example(instance, synthetic_vocab, config)

        expected = [finish(inst) for inst in build_instances(docs, synthetic_vocab, config)]
        for workers in (1, 2, 4):
            assert list(build_instances(docs, synthetic_vocab, config, workers, finish)) == expected

    @pytest.mark.parametrize("workers", [1, 2])
    def test_finish_error_past_first_window_reaches_parent(
        self, workers, synthetic_docs, synthetic_vocab
    ):
        docs = TokenStore(synthetic_docs[:40])
        config = GenerationConfig(max_seq_length=32, dupe_factor=2, seed=21)
        serial = list(build_instances(docs, synthetic_vocab, config))
        tasks = [(dupe, index) for dupe in range(2) for index in range(len(docs))]
        per_task = [len(_instances_for_doc(docs, synthetic_vocab, config, *t)) for t in tasks]
        # the last instance comes from the last task, task 79, past the first block of each worker
        assert len(tasks) > _BLOCK * workers and per_task[-1] > 0 and sum(per_task) == len(serial)
        assert serial.count(serial[-1]) == 1

        def finish(instance):
            if instance == serial[-1]:
                raise IdOutOfRange("id 999 outside vocabulary of 505 pieces")
            return instance

        got = []
        with _within(60), pytest.raises(IdOutOfRange) as exc:
            for instance in build_instances(docs, synthetic_vocab, config, workers, finish):
                got.append(instance)
        assert exc.type is IdOutOfRange
        assert str(exc.value) == "id 999 outside vocabulary of 505 pieces"
        # every instance of the first _BLOCK x workers tasks reached the parent before the error
        assert got == serial[: len(got)] and len(got) >= sum(per_task[: _BLOCK * workers])
        _assert_no_child_left()

    def test_pairs_are_made_as_they_are_taken(self, synthetic_docs, synthetic_vocab):
        # 400,000 (dupe, document) pairs: about 30 MB if listed before the first instance
        config = GenerationConfig(max_seq_length=32, dupe_factor=200_000, seed=3)
        stream = build_instances(TokenStore(synthetic_docs[:2]), synthetic_vocab, config)
        tracemalloc.start()
        try:
            assert next(stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            stream.close()
        assert peak < 1 << 20

    def test_write_examples_shards_agree_across_worker_counts(self, tmp_path, fixture_docs):
        vocab = train_bpe(fixture_docs, 300)
        config = GenerationConfig(max_seq_length=32, dupe_factor=8, shards=3, seed=5)
        assert config.dupe_factor * len(fixture_docs) > _BLOCK * 2
        written = {}
        for workers in (1, 2):
            out_dir = str(tmp_path / f"workers-{workers}")
            paths, count = write_examples(fixture_docs, vocab, config, out_dir, workers)
            shards = []
            for path in paths:
                with open(path, "rb") as handle:
                    shards.append((os.path.basename(path), handle.read()))
            written[workers] = (count, shards)
        assert written[1][0] > 0
        assert written[2] == written[1]

    def test_dead_worker_raises_naming_it(self, synthetic_docs, synthetic_vocab):
        docs = TokenStore(synthetic_docs[:40])
        config = GenerationConfig(max_seq_length=32, dupe_factor=2, seed=21)
        serial = list(build_instances(docs, synthetic_vocab, config))
        victim, parent = serial[len(serial) // 2], os.getpid()

        def finish(instance):
            if instance == victim and os.getpid() != parent:
                os._exit(3)
            return instance

        got = []
        message = r"^worker pid (\d+) ended before block \d+, exit code 3$"
        with _within(60), pytest.raises(PipelineError, match=message) as exc:
            for instance in build_instances(docs, synthetic_vocab, config, 2, finish):
                got.append(instance)
        assert int(re.match(message, str(exc.value)).group(1)) != parent
        assert serial.count(victim) == 1
        assert got == serial[: len(got)] and len(got) <= serial.index(victim)
        _assert_no_child_left()

    def test_closing_the_stream_early_leaves_no_child(self, synthetic_docs, synthetic_vocab):
        docs = TokenStore(synthetic_docs[:40])
        config = GenerationConfig(max_seq_length=32, dupe_factor=3, seed=21)
        with _within(60):
            stream = build_instances(docs, synthetic_vocab, config, workers=2)
            assert next(stream) == next(build_instances(docs, synthetic_vocab, config))
            stream.close()
        _assert_no_child_left()

    def test_failed_shard_write_leaves_no_child(self, tmp_path, fixture_docs, monkeypatch):
        vocab = train_bpe(fixture_docs, 300)
        config = GenerationConfig(max_seq_length=32, dupe_factor=8, shards=3, seed=5)
        real_open_output, written = pretrain.open_output, []

        @contextmanager
        def failing_output(path, binary=False):
            with real_open_output(path, binary) as handle:
                yield mock.Mock(write=failing_write)

        def failing_write(record):
            written.append(record)
            if len(written) == 10:
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(pretrain, "open_output", failing_output)
        with _within(60), pytest.raises(PipelineError, match="No space left on device"):
            write_examples(fixture_docs, vocab, config, str(tmp_path / "out"), 2)
        assert len(written) == 10
        _assert_no_child_left()

    @pytest.mark.parametrize("local", [False, True])
    def test_error_that_does_not_pickle_reaches_parent(
        self, local, synthetic_docs, synthetic_vocab
    ):
        class LocalError(Exception):  # defined here, so pickle cannot find it by name
            pass

        docs = TokenStore(synthetic_docs[:12])
        config = GenerationConfig(max_seq_length=32, dupe_factor=2, seed=13)

        def finish(instance):
            raise LocalError("shard-3 at 17") if local else _ShortWrite("shard-3", 17)

        name = "LocalError" if local else "_ShortWrite"
        with _within(60), pytest.raises(PipelineError) as exc:
            list(build_instances(docs, synthetic_vocab, config, 2, finish))
        assert str(exc.value) == f"{name}: shard-3 at 17"
        _assert_no_child_left()

    def test_workers_are_reaped_where_sigchld_is_ignored(self, synthetic_docs, synthetic_vocab):
        # the kernel reaps such children itself, so waitpid finds none to wait for
        docs = TokenStore(synthetic_docs[:40])
        config = GenerationConfig(max_seq_length=32, dupe_factor=3, seed=21)
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            with _within(60):
                two = list(build_instances(docs, synthetic_vocab, config, workers=2))
        finally:
            signal.signal(signal.SIGCHLD, previous)
        assert two == list(build_instances(docs, synthetic_vocab, config))
        _assert_no_child_left()

    def test_forked_workers_do_not_repeat_buffered_stdout(self):
        # stdout is a pipe, so the line waits in its buffer when the workers fork
        script = """
from corpusprep.bpe import SPECIALS, Vocab
from corpusprep.config import GenerationConfig
from corpusprep.pretrain import TokenStore, build_instances

vocab = Vocab(pieces=SPECIALS + tuple(f"w{k}" for k in range(40)), merges=())
store = TokenStore((f"d{k}", [[5 + k % 30, 6, 7]] * 4) for k in range(100))
print("before the workers")
count = sum(1 for _ in build_instances(store, vocab, GenerationConfig(dupe_factor=2), 2))
print("instances", count)
"""
        src = os.path.dirname(os.path.dirname(os.path.abspath(pretrain.__file__)))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = src
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "before the workers" and lines.count("before the workers") == 1
        assert len(lines) == 2 and int(lines[1].split()[1]) > 2 * _BLOCK


_SENTENCE = st.lists(st.integers(len(SPECIALS), 504), min_size=1, max_size=10)
_PROBABILITY = st.sampled_from([0.0, 0.5, 1.0])


def _token_corpus(documents: int, seed: int) -> list:
    """Documents of 2-6 lines of 8-16 words drawn from 3,000 random word forms."""
    rng = random.Random(seed)
    words = ["".join(rng.choices("aeiouklmnprstv", k=rng.randint(2, 9))) for _ in range(3000)]
    return [
        Document(
            id=f"m{d}",
            text="\n".join(
                " ".join(rng.choices(words, k=rng.randint(8, 16)))
                for _ in range(rng.randint(2, 6))
            ),
        )
        for d in range(documents)
    ]


class TestTokenStore:
    @settings(max_examples=150, deadline=None)
    @given(
        documents=st.lists(st.lists(_SENTENCE, min_size=1, max_size=5), min_size=2, max_size=6),
        max_seq_length=st.integers(5, 40),
        short_seq_prob=_PROBABILITY,
        random_next_prob=_PROBABILITY,
        dupe_factor=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        workers=st.sampled_from([1, 2, 3]),
        block=st.sampled_from([1, _BLOCK]),  # _BLOCK may hold every task of the stream
    )
    @example(
        documents=[[[5, 300], [256, 7, 504]], [[400]], [[6] * 10, [260, 261], [9]]],
        max_seq_length=12, short_seq_prob=0.5, random_next_prob=0.5, dupe_factor=3, seed=9,
        workers=2, block=1,
    )
    def test_build_instances_matches_oracle(
        self, synthetic_vocab, documents, max_seq_length, short_seq_prob, random_next_prob,
        dupe_factor, seed, workers, block
    ):
        config = GenerationConfig(
            max_seq_length=max_seq_length, short_seq_prob=short_seq_prob,
            random_next_prob=random_next_prob, dupe_factor=dupe_factor, seed=seed,
        )
        docs = [(f"d{k}", sentences) for k, sentences in enumerate(documents)]
        store = TokenStore(docs)
        with mock.patch.object(forked, "_BLOCK", block):
            stream = build_instances(store, synthetic_vocab, config, workers)
            got = _spelled(stream, synthetic_vocab)
        pieces = synthetic_vocab.pieces
        spelled = [(i, [[pieces[t] for t in s] for s in sentences]) for i, sentences in docs]
        assert got == instance_oracle.instances(spelled, config, pieces)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("block", [1, _BLOCK])
    def test_every_worker_count_and_block_matches_oracle(
        self, workers, block, synthetic_docs, synthetic_vocab
    ):
        # 40 documents x dupe 3 = 120 tasks: at _BLOCK, four blocks, the last one short
        docs = TokenStore(synthetic_docs[:40])
        config = GenerationConfig(max_seq_length=32, dupe_factor=3, seed=21)
        expected = instance_oracle.instances(
            _spelled_docs(docs, synthetic_vocab), config, synthetic_vocab.pieces
        )
        with _within(60), mock.patch.object(forked, "_BLOCK", block):
            stream = build_instances(docs, synthetic_vocab, config, workers)
            got = _spelled(stream, synthetic_vocab)
        assert got == expected

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.lists(st.integers(0, 2**32 - 1), max_size=4), max_size=4)))
    def test_holds_no_empty_sentence_or_document(self, documents):
        store = TokenStore((f"d{k}", sentences) for k, sentences in enumerate(documents))
        kept = [
            (f"d{k}", [s for s in sentences if s])
            for k, sentences in enumerate(documents)
            if any(sentences)
        ]
        assert instance_oracle.unpack(store) == kept
        assert len(store) == len(store.docs) - 1 == len(kept)
        assert store.bounds[0] == 0 and store.bounds[-1] == len(store.ids)
        assert all(a < b for a, b in zip(store.bounds, store.bounds[1:]))
        assert store.docs[0] == 0 and store.docs[-1] == len(store.bounds) - 1
        assert all(a < b for a, b in zip(store.docs, store.docs[1:]))

    def test_documents_that_encode_to_nothing_do_not_count(self, synthetic_vocab):
        vocab = train_bpe([Document(id="t", text="aa ab")], vocab_size=12)
        docs = [Document(id="a", text="aa ab"), Document(id="b", text=""),
                Document(id="c", text=" \n\t\n")]
        store = tokenize_documents(docs, vocab)
        assert store.doc_ids == ["a"]
        with pytest.raises(CorpusTooSmall):
            list(build_instances(store, vocab, GenerationConfig()))
        store = TokenStore([("a", [[5]]), ("b", []), ("c", [[], []])])
        assert store.doc_ids == ["a"] and list(store.bounds) == [0, 1]
        with pytest.raises(CorpusTooSmall):
            list(build_instances(store, synthetic_vocab, GenerationConfig()))

    def test_holds_about_four_bytes_per_piece(self):
        docs = _token_corpus(1200, seed=7)
        vocab = train_bpe(docs[:100], vocab_size=200)
        # the first pass leaves the encode memo's per-word tuples on the interpreter's
        # tuple free lists, a fixed cost the second pass reuses
        tokenize_documents(docs, vocab)
        tracemalloc.start()
        try:
            store = tokenize_documents(docs, vocab)
            grown = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        pieces = len(store.ids)
        assert pieces >= 100_000
        buffers = sum(memoryview(a).nbytes for a in (store.ids, store.bounds, store.docs))
        assert buffers <= 4.5 * pieces
        assert grown < 6 * pieces  # a list of id tuples held about 12.9


class TestTokenizeDocuments:
    def test_lines_become_sentences(self):
        from corpusprep.bpe import train_bpe

        vocab = train_bpe([Document(id="t", text="aa ab ba bb")], vocab_size=12)
        docs = tokenize_documents(
            [Document(id="d", text="aa ab\nba"), Document(id="e", text="")], vocab
        )
        assert len(docs) == 1
        assert docs.doc_ids == ["d"]
        [(_, sentences)] = instance_oracle.unpack(docs)
        assert len(sentences) == 2
        joined = [p for s in sentences for p in s]
        assert all(isinstance(p, int) for p in joined)
        assert not vocab.word_ids  # the encode memo is freed after the pass

    def test_blank_lines_skipped(self):
        from corpusprep.bpe import train_bpe

        vocab = train_bpe([Document(id="t", text="aa bb")], vocab_size=12)
        [(_, sentences)] = instance_oracle.unpack(
            tokenize_documents([Document(id="d", text="aa\n\n\nbb")], vocab)
        )
        assert len(sentences) == 2

    @pytest.mark.parametrize(
        "brk", ["\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_sentences_agree_with_corpus_stats(self, brk):
        # every line break str.splitlines knows starts a new sentence in
        # both the report's counts and the NSP sentences
        from corpusprep.bpe import train_bpe
        from corpusprep.ingest import compute_stats

        doc = Document(id="d", text=f"aa ab{brk}ba bb\n{brk}\nbb")
        vocab = train_bpe([doc], vocab_size=12)
        [(_, sentences)] = instance_oracle.unpack(tokenize_documents([doc], vocab))
        assert len(sentences) == compute_stats([doc]).sentences == 3
        assert doc.sentences() == ["aa ab", "ba bb", "bb"]


class TestSerialization:
    def _tiny(self):
        pieces = SPECIALS + ("▁a", "▁b", "▁c")
        vocab = Vocab(pieces=pieces, merges=())
        config = GenerationConfig(max_seq_length=8, seed=1)
        inst = PretrainingInstance(
            tokens=(CLS_ID, 5, SEP_ID, 6, SEP_ID),  # [CLS] ▁a [SEP] ▁b [SEP]
            segment_ids=(0, 0, 0, 1, 1),
            masked_positions=(1,),
            masked_labels=(5,),
            is_random_next=True,
        )
        return vocab, config, inst

    def test_padding_to_fixed_lengths(self):
        vocab, config, inst = self._tiny()
        ex = _read_back(serialize_example(inst, vocab, config))
        assert ex == record_oracle.serialize(inst, vocab, config)
        assert len(ex.input_ids) == 8
        assert len(ex.input_mask) == 8
        assert len(ex.segment_ids) == 8
        budget = masked_budget(8, 0.15)
        assert len(ex.masked_lm_positions) == budget
        assert len(ex.masked_lm_ids) == budget
        assert len(ex.masked_lm_weights) == budget
        assert ex.input_ids[:5] == (2, 5, 3, 6, 3)
        assert ex.input_ids[5:] == (0, 0, 0)
        assert ex.input_mask == (1, 1, 1, 1, 1, 0, 0, 0)
        assert ex.masked_lm_weights[0] == 1.0
        assert ex.next_sentence_labels == 1

    def test_unknown_piece_rejected(self):
        vocab, config, inst = self._tiny()
        for bad_id in (len(vocab), -1):
            bad = PretrainingInstance(
                tokens=(CLS_ID, bad_id, SEP_ID, 6, SEP_ID),
                segment_ids=(0, 0, 0, 1, 1),
                masked_positions=(),
                masked_labels=(),
                is_random_next=False,
            )
            with pytest.raises(IdOutOfRange):
                serialize_example(bad, vocab, config)
            bad_label = dataclasses.replace(inst, masked_labels=(bad_id,))
            with pytest.raises(IdOutOfRange):
                serialize_example(bad_label, vocab, config)

    def test_oversized_instance_rejected(self):
        vocab, config, inst = self._tiny()
        config5 = GenerationConfig(max_seq_length=5, seed=1)
        long_inst = PretrainingInstance(
            tokens=(CLS_ID, 5, 6, 7, SEP_ID, 5, SEP_ID),
            segment_ids=(0, 0, 0, 0, 0, 1, 1),
            masked_positions=(),
            masked_labels=(),
            is_random_next=False,
        )
        with pytest.raises(ValueError):
            serialize_example(long_inst, vocab, config5)

    def test_masked_positions_past_budget_rejected(self):
        # three masked positions against a budget of ceil(0.15 * 8) = 2 would
        # serialize variable-length masked lists
        vocab, config, _ = self._tiny()
        assert masked_budget(8, 0.15) == 2
        over = PretrainingInstance(
            tokens=(CLS_ID, 5, 6, SEP_ID, 7, SEP_ID),
            segment_ids=(0, 0, 0, 0, 1, 1),
            masked_positions=(1, 2, 4),
            masked_labels=(5, 6, 7),
            is_random_next=False,
        )
        with pytest.raises(ValueError):
            serialize_example(over, vocab, config)

    def test_payload_decodes_to_same_example(self):
        vocab, config, inst = self._tiny()
        ex = record_oracle.serialize(inst, vocab, config)
        parsed = parse_example(example_payload(inst, vocab, config))
        assert parsed["input_ids"] == ("int64", list(ex.input_ids))
        assert parsed["next_sentence_labels"] == ("int64", [1])

    def test_payload_bytes_assembled_by_hand(self):
        vocab = Vocab(pieces=SPECIALS + tuple(f"▁w{k}" for k in range(300)), merges=())
        config = GenerationConfig(max_seq_length=8, seed=1)  # masked budget 2
        instance = PretrainingInstance(
            tokens=(CLS_ID, 300, SEP_ID, 5, SEP_ID),
            segment_ids=(0, 0, 0, 1, 1),
            masked_positions=(1,),
            masked_labels=(300,),
            is_random_next=True,
        )

        def int64s(packed):  # Feature field 3: Int64List, its field 1 packed
            return _field(3, _field(1, packed))

        features = [
            ("input_ids", int64s(b"\x02\xac\x02\x03\x05\x03" + bytes(3))),  # 300 is ac 02
            ("input_mask", int64s(b"\x01" * 5 + bytes(3))),
            ("segment_ids", int64s(b"\x00\x00\x00\x01\x01" + bytes(3))),
            ("masked_lm_positions", int64s(b"\x01\x00")),
            ("masked_lm_ids", int64s(b"\xac\x02\x00")),
            # Feature field 2: FloatList, 1.0 and 0.0 as little-endian float32
            ("masked_lm_weights", _field(2, _field(1, b"\x00\x00\x80\x3f" + bytes(4)))),
            ("next_sentence_labels", int64s(b"\x01")),
        ]
        entries = b"".join(
            _field(1, _field(1, name.encode("ascii")) + _field(2, feature))
            for name, feature in features
        )
        assert 128 <= len(entries) < 2**14  # the Example's length is a two-byte varint
        expected = b"\x0a" + bytes([len(entries) & 0x7F | 0x80, len(entries) >> 7]) + entries
        assert example_payload(instance, vocab, config) == expected
        assert serialize_example(instance, vocab, config) == frame_record(expected)


class TestSharding:
    VOCAB = Vocab(pieces=SPECIALS + tuple(f"▁w{k}" for k in range(30)), merges=())
    CONFIG = GenerationConfig(max_seq_length=8, seed=1)

    def _instances(self, n):
        return [
            PretrainingInstance(
                tokens=(CLS_ID, 5, SEP_ID, 6, SEP_ID),  # [CLS] ▁w0 [SEP] ▁w1 [SEP]
                segment_ids=(0, 0, 0, 1, 1),
                masked_positions=(1 + (k % 2) * 2,),
                masked_labels=(5 if k % 2 == 0 else 6,),
                is_random_next=bool(k % 2),
            )
            for k in range(n)
        ]

    def _records(self, instances):
        return [serialize_example(inst, self.VOCAB, self.CONFIG) for inst in instances]

    def _expected(self, instances):
        """The oracle's examples: what reading the records back must give."""
        return [record_oracle.serialize(inst, self.VOCAB, self.CONFIG) for inst in instances]

    def test_ten_examples_over_four_shards(self, tmp_path):
        records = self._records(self._instances(10))
        paths, _ = write_tfrecords(records, str(tmp_path), shards=4)
        from corpusprep.tfrecord import read_framed

        counts = [sum(1 for _ in read_framed(p)) for p in paths]
        assert counts == [3, 3, 2, 2]

    def test_shard_names(self, tmp_path):
        paths = shard_paths("out", 4)
        assert paths == [
            os.path.join("out", "pretrain-0-of-4.tfrecord"),
            os.path.join("out", "pretrain-1-of-4.tfrecord"),
            os.path.join("out", "pretrain-2-of-4.tfrecord"),
            os.path.join("out", "pretrain-3-of-4.tfrecord"),
        ]

    def test_default_shard_count_is_four(self):
        assert GenerationConfig().shards == 4

    def test_write_read_round_trip_preserves_order(self, tmp_path):
        instances = self._instances(11)
        paths, _ = write_tfrecords(self._records(instances), str(tmp_path), shards=3)
        assert list(read_tfrecords(paths)) == self._expected(instances)

    def test_single_shard_round_trip(self, tmp_path):
        instances = self._instances(5)
        paths, _ = write_tfrecords(self._records(instances), str(tmp_path), shards=1)
        assert len(paths) == 1
        assert list(read_tfrecords(paths)) == self._expected(instances)

    def test_sorted_glob_reads_in_arrival_order(self, tmp_path):
        # a sorted glob lists pretrain-10 and -11 before pretrain-2
        instances = [
            dataclasses.replace(inst, masked_labels=(k,))
            for k, inst in enumerate(self._instances(30))
        ]
        paths, _ = write_tfrecords(self._records(instances), str(tmp_path), shards=12)
        globbed = sorted(glob.glob(str(tmp_path / "pretrain-*.tfrecord")))
        assert globbed != paths
        assert list(read_tfrecords(globbed)) == list(read_tfrecords(paths))
        assert list(read_tfrecords(paths)) == self._expected(instances)

    def test_multi_byte_ids_match_oracle_frames(self, tmp_path):
        # 400 pieces and 160 positions: ids and masked positions past 127 take
        # the multi-byte varint path that a vocabulary under 128 pieces never does
        pieces = SPECIALS + tuple(f"▁w{k}" for k in range(400 - len(SPECIALS)))
        vocab = Vocab(pieces=pieces, merges=())
        config = GenerationConfig(max_seq_length=160, seed=1)
        rng = random.Random(11)
        instances = []
        for k in range(10):
            a, b = rng.randint(60, 100), rng.randint(30, 57)
            tokens = (CLS_ID, *rng.choices(range(300, 400), k=a), SEP_ID)
            tokens += (*rng.choices(range(len(SPECIALS), 400), k=b), SEP_ID)
            maskable = [i for i, t in enumerate(tokens) if t not in (CLS_ID, SEP_ID)]
            positions = tuple(sorted(rng.sample(maskable, min(len(maskable), 24))))
            instances.append(
                PretrainingInstance(
                    tokens=tokens,
                    segment_ids=(0,) * (a + 2) + (1,) * (b + 1),
                    masked_positions=positions,
                    masked_labels=tuple(tokens[i] for i in positions),
                    is_random_next=bool(k % 2),
                )
            )
        examples = [record_oracle.serialize(inst, vocab, config) for inst in instances]
        assert max(max(ex.masked_lm_positions) for ex in examples) >= 128

        records = [serialize_example(inst, vocab, config) for inst in instances]
        paths, count = write_tfrecords(records, str(tmp_path), shards=3)
        assert count == 10
        for i, path in enumerate(paths):
            expected = b"".join(
                record_oracle.record(inst, vocab, config) for inst in instances[i::3]
            )
            with open(path, "rb") as handle:
                assert handle.read() == expected
        assert list(read_tfrecords(paths)) == examples

    def test_creates_missing_output_directory(self, tmp_path):
        target = str(tmp_path / "uus" / "kaust")
        paths, _ = write_tfrecords(self._records(self._instances(2)), target, shards=2)
        assert all(os.path.exists(p) for p in paths)

    def test_failure_mid_stream_leaves_no_shard(self, tmp_path):
        def failing():
            yield from self._records(self._instances(5))
            raise CorpusTooSmall("stream ended early")

        with pytest.raises(CorpusTooSmall):
            write_tfrecords(failing(), str(tmp_path), shards=2)
        assert os.listdir(tmp_path) == []


# ids whose varints change width (1, 2 and 3 bytes), plus [UNK] and [MASK]
_EDGE_IDS = (1, 4, 127, 128, 2**14 - 1, 2**14)


@functools.lru_cache(maxsize=1)
def _wide_vocab() -> Vocab:
    return Vocab(pieces=SPECIALS + tuple(f"▁w{k}" for k in range(2**14 - 3)), merges=())


def _random_instance(rng, length, budget, vocab_size, random_next):
    """A valid instance of at most length tokens and at most budget masked positions."""

    def ids(count):
        wide = range(len(SPECIALS), vocab_size)
        return [rng.choice(_EDGE_IDS if rng.random() < 0.5 else wide) for _ in range(count)]

    total = rng.randint(2, length - 3)  # tokens of segments A and B together
    a = rng.randint(1, total - 1)
    tokens = (CLS_ID, *ids(a), SEP_ID, *ids(total - a), SEP_ID)
    maskable = [i for i, t in enumerate(tokens) if t not in (CLS_ID, SEP_ID)]
    positions = tuple(sorted(rng.sample(maskable, rng.randint(0, min(budget, len(maskable))))))
    return PretrainingInstance(
        tokens=tokens,
        segment_ids=(0,) * (a + 2) + (1,) * (total - a + 1),
        masked_positions=positions,
        masked_labels=tuple(ids(len(positions))),
        is_random_next=random_next,
    )


@settings(max_examples=150, deadline=None)
@given(
    length=st.sampled_from([5, 8, 127, 128, 129, 160, 300]),
    prob=st.sampled_from([0.0, 0.15, 0.5, 1.0]),
    random_next=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(length=300, prob=0.0, random_next=False, seed=0)  # empty masked lists
@example(length=300, prob=0.15, random_next=True, seed=1)
def test_serialize_example_matches_record_oracle(length, prob, random_next, seed):
    # lists longer than 128 take a two-byte length varint; ids and masked
    # positions past 127 take multi-byte varints
    vocab = _wide_vocab()
    assert len(vocab) == 2**14 + 2
    config = GenerationConfig(max_seq_length=length, masked_lm_prob=prob, seed=1)
    budget = masked_budget(length, prob)
    instance = _random_instance(random.Random(seed), length, budget, len(vocab), random_next)
    expected = record_oracle.record(instance, vocab, config)
    assert serialize_example(instance, vocab, config) == expected
    example = _read_back(expected)
    assert len(example.input_ids) == length and len(example.masked_lm_ids) == budget
    assert example.next_sentence_labels == int(random_next)


def _read_corrupt(tmp_path, payloads):
    """The CorruptRecord that reading a shard of these payloads raises."""
    path = tmp_path / "corrupt.tfrecord"
    path.write_bytes(b"".join(frame_record(p) for p in payloads))
    with pytest.raises(CorruptRecord) as exc:
        list(read_tfrecords([str(path)]))
    return exc.value


def _valid_payload():
    return record_oracle.payload(
        SerializedExample(
            input_ids=(1, 2),
            input_mask=(1, 1),
            segment_ids=(0, 0),
            masked_lm_positions=(1,),
            masked_lm_ids=(2,),
            masked_lm_weights=(1.0,),
            next_sentence_labels=0,
        )
    )


class TestReadValidation:
    def test_unknown_feature_rejected(self, tmp_path):
        valid = _valid_payload()
        payload = codec_oracle.encode_example(
            {"mystery": ("int64", [1, 2])}, ["mystery"]
        )
        # the second record starts after the first one's 16 framing bytes
        assert _read_corrupt(tmp_path, [valid, payload]).offset == len(valid) + 16

    def test_missing_feature_rejected(self, tmp_path):
        payload = codec_oracle.encode_example({"input_ids": ("int64", [1])}, ["input_ids"])
        assert _read_corrupt(tmp_path, [payload]).offset == 0

    def test_wrong_kind_rejected(self, tmp_path):
        valid = _valid_payload()
        features = {name: ("int64", [0]) for name in FEATURE_ORDER}
        features["masked_lm_weights"] = ("int64", [1])  # must be float
        payload = codec_oracle.encode_example(features, FEATURE_ORDER)
        assert _read_corrupt(tmp_path, [valid, payload]).offset == len(valid) + 16


class TestReadMessages:
    """The exact detail of each CorruptRecord raised for a payload that passes its CRCs."""

    def _detail(self, tmp_path, payload):
        text = str(_read_corrupt(tmp_path, [payload]))
        prefix = f"corrupt record in {tmp_path / 'corrupt.tfrecord'} at byte 0: data check failed ("
        assert text.startswith(prefix) and text.endswith(")"), text
        return text[len(prefix) : -1]

    def _payload(self, **changes):
        """The valid payload's features with these replaced or added, new names last."""
        features = {**parse_example(_valid_payload()), **changes}
        return codec_oracle.encode_example(features, [*dict.fromkeys([*FEATURE_ORDER, *changes])])

    def test_malformed_payload(self, tmp_path):
        detail = self._detail(tmp_path, _valid_payload()[:-3])
        assert detail == "malformed payload: truncated field 1 (wire type 2)"

    def test_unexpected_feature(self, tmp_path):
        payload = self._payload(mystery=("int64", [1, 2]))
        assert self._detail(tmp_path, payload) == "unexpected feature(s): ['mystery']"

    def test_missing_features(self, tmp_path):
        payload = codec_oracle.encode_example({"input_ids": ("int64", [1])}, ["input_ids"])
        assert self._detail(tmp_path, payload) == (
            "missing feature(s): ['input_mask', 'masked_lm_ids', 'masked_lm_positions', "
            "'masked_lm_weights', 'next_sentence_labels', 'segment_ids']"
        )

    def test_float_feature_of_another_kind(self, tmp_path):
        payload = self._payload(masked_lm_weights=("int64", [1]))
        assert self._detail(tmp_path, payload) == "feature masked_lm_weights must be float"

    @pytest.mark.parametrize("labels", [[], [1, 0]])
    def test_label_count_other_than_one(self, tmp_path, labels):
        payload = self._payload(next_sentence_labels=("int64", labels))
        assert self._detail(tmp_path, payload) == (
            f"feature next_sentence_labels holds {len(labels)} values, not 1"
        )

    @pytest.mark.parametrize(
        "name, block, detail",
        [
            ("masked_lm_weights", b"\x00\x00\x80", "packed float block not a multiple of 4 bytes"),
            ("input_ids", b"\x01\x80", "truncated varint"),
            ("input_ids", b"\xff" * 9 + b"\x7f", "varint exceeds 64 bits"),
        ],
    )
    def test_block_that_does_not_decode(self, tmp_path, name, block, detail):
        # the payload is in the written layout; only the one block is at fault
        example = record_oracle.decode(_valid_payload())
        assert _layout_payload(_blocks(example)) == _valid_payload()
        payload = _layout_payload({**_blocks(example), name: block})
        assert self._detail(tmp_path, payload) == f"malformed payload: {detail}"


def _layout_payload(blocks):
    """A payload in the writer's layout holding these raw packed blocks, by feature name."""
    ld = codec_oracle.length_delimited
    return ld(1, b"".join(
        ld(1, ld(1, name.encode("ascii")) + ld(2, ld(2 if name == "masked_lm_weights" else 3, ld(1, blocks[name]))))
        for name in FEATURE_ORDER
    ))


def _blocks(example):
    """The packed blocks of an example's features, by name, packed by the oracle."""
    return {
        name: struct.pack(f"<{len(values)}f", *values) if name == "masked_lm_weights"
        else b"".join(map(codec_oracle.varint, values if isinstance(values, tuple) else (values,)))
        for name, values in ((name, getattr(example, name)) for name in FEATURE_ORDER)
    }


# ids across the varint width edges (127/128, 2**14 - 1/2**14) and well past them
_ids = st.one_of(st.sampled_from([0, 1, 127, 128, 2**14 - 1, 2**14]), st.integers(0, 2**35))
_examples = st.builds(
    SerializedExample,
    input_ids=st.lists(_ids, max_size=160).map(tuple),
    input_mask=st.lists(st.integers(0, 1), max_size=160).map(tuple),
    segment_ids=st.lists(st.integers(0, 1), max_size=160).map(tuple),
    masked_lm_positions=st.lists(_ids, max_size=24).map(tuple),
    masked_lm_ids=st.lists(_ids, max_size=24).map(tuple),
    masked_lm_weights=st.lists(st.floats(width=32), max_size=24).map(tuple),
    next_sentence_labels=_ids,
)
# a byte flipped (xor), inserted or dropped at a position taken modulo the payload's length
_edits = st.lists(st.tuples(st.sampled_from("xid"), st.integers(0, 2**16), st.integers(1, 255)), max_size=3)


def _edited(payload: bytes, edits) -> bytes:
    data = bytearray(payload)
    for op, where, byte in edits:
        where %= len(data) + (op == "i")
        if op == "x":
            data[where] ^= byte
        elif op == "i":
            data.insert(where, byte)
        else:
            del data[where]
    return bytes(data)


def _lists(example: SerializedExample) -> list:
    """An example's features as the layout reader returns them: one tuple each."""
    return [*(getattr(example, name) for name in FEATURE_ORDER[:-1]), (example.next_sentence_labels,)]


@settings(max_examples=300, deadline=None)
@given(example=_examples, edits=_edits)
@example(example=SerializedExample((2, 5, 3), (1, 1, 1), (0, 0, 0), (), (), (), 0), edits=[])
def test_layout_reader_matches_the_general_decode(example, edits):
    # on any payload the layout reader gives what parse_example and the checks after it
    # give, or None; _decode_payload then gives that same example or names the same fault
    payload = _edited(record_oracle.payload(example), edits)
    lists = _READ_EXAMPLE(payload)
    if not edits:
        assert repr(lists) == repr(_lists(example))
    try:
        expected = record_oracle.decode(payload)
    except ValueError as exc:
        assert lists is None or len(lists[-1]) != 1
        with pytest.raises(CorruptRecord) as error:
            _decode_payload(payload, "p", 0)
        assert str(error.value) == f"corrupt record in p at byte 0: data check failed ({exc})"
    else:
        assert lists is None or repr(lists) == repr(_lists(expected))
        assert repr(_decode_payload(payload, "p", 0)) == repr(expected)


def _layout_reader():
    return example_reader([(name, "float" if name == "masked_lm_weights" else "int64")
                           for name in FEATURE_ORDER])


class TestLayoutMemo:
    BASE = SerializedExample((2, 1, 3), (1, 1, 1), (0, 0, 0), (1,), (5, 6), (1.0, 0.0), 1)

    def test_payloads_of_one_length_and_other_layouts(self):
        one = dataclasses.replace(self.BASE, input_ids=(2, 300, 3))
        # the two-byte id moves from input_ids to masked_lm_ids: the same length, other heads
        moved = dataclasses.replace(self.BASE, masked_lm_ids=(300, 6))
        payloads = [record_oracle.payload(example) for example in (one, moved)]
        renamed = payloads[0].replace(b"input_ids", b"input_idz")
        assert len({len(payload) for payload in (*payloads, renamed)}) == 1
        read = _layout_reader()
        for _ in range(2):
            assert read(payloads[0]) == _lists(one)
            assert read(renamed) is None
            assert read(payloads[1]) == _lists(moved)
        assert len(read.memo) == 1

    def test_memo_stays_within_its_bound(self):
        read = _layout_reader()
        examples = [dataclasses.replace(self.BASE, input_ids=(2,) * n) for n in range(_LAYOUTS + 40)]
        for example in examples + examples[:5]:  # the first lengths again, after their eviction
            assert read(record_oracle.payload(example)) == _lists(example)
            assert len(read.memo) <= _LAYOUTS
        assert len(read.memo) == _LAYOUTS


def _field(number: int, payload: bytes) -> bytes:
    """One length-delimited protobuf field (payloads under 128 bytes)."""
    assert len(payload) < 128
    return bytes([number << 3 | 2, len(payload)]) + payload


class TestCorruptRecordNamesShard:
    def test_crc_failure_names_shard(self, tmp_path):
        valid = _valid_payload()
        data = bytearray(frame_record(valid) * 3)
        data[len(data) - 20] ^= 0x01  # a payload byte of the third record
        path = tmp_path / "pretrain-0-of-1.tfrecord"
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptRecord) as exc:
            list(read_tfrecords([str(path)]))
        assert exc.value.path == str(path)
        assert exc.value.offset == 2 * (len(valid) + 16)
        assert str(exc.value).startswith(
            f"corrupt record in {path} at byte {exc.value.offset}: data check failed"
        )

    def test_malformed_payload_names_shard(self, tmp_path):
        valid = _valid_payload()
        error = _read_corrupt(tmp_path, [valid, valid[:-3]])
        path = str(tmp_path / "corrupt.tfrecord")
        assert error.path == path
        assert f"corrupt record in {path} at byte {len(valid) + 16}: " in str(error)


class TestCorruptPayload:
    """Records whose CRCs hold but whose payload does not parse."""

    def test_truncated_length_delimited_field(self, tmp_path):
        valid = _valid_payload()
        error = _read_corrupt(tmp_path, [valid, valid[:-3]])
        # the second record starts after the first one's 16 framing bytes
        assert error.offset == len(valid) + 16

    def test_invalid_utf8_feature_name(self, tmp_path):
        valid = _valid_payload()
        payload = valid.replace(b"input_ids", b"input_id\xff")
        assert len(payload) == len(valid)
        assert _read_corrupt(tmp_path, [payload]).offset == 0

    def test_short_unpacked_float(self, tmp_path):
        float_list = b"\x0d\x00\x00"  # field 1, wire type 5, two of four bytes
        entry = _field(1, b"masked_lm_weights") + _field(2, _field(2, float_list))
        _read_corrupt(tmp_path, [_field(1, _field(1, entry))])

    def test_truncated_fixed_width_field(self, tmp_path):
        valid = _valid_payload()
        # field 2 as fixed64 with 3 of its 8 bytes, then as fixed32 with 1 of 4
        for tail in (b"\x11\x00\x00\x00", b"\x15\x00"):
            error = _read_corrupt(tmp_path, [valid, valid + tail])
            assert error.offset == len(valid) + 16

    @pytest.mark.parametrize("labels", [[], [1, 0, 1]])
    def test_label_count_other_than_one(self, tmp_path, labels):
        valid = _valid_payload()
        features = parse_example(valid)
        features["next_sentence_labels"] = ("int64", labels)
        payload = codec_oracle.encode_example(features, FEATURE_ORDER)
        assert _read_corrupt(tmp_path, [valid, payload]).offset == len(valid) + 16

    def test_varint_past_64_bits(self, tmp_path):
        valid = _valid_payload()
        features = parse_example(valid)
        features["input_ids"] = ("int64", [1, 2**70 - 1])  # nine 0xff bytes, then 0x7f
        payload = codec_oracle.encode_example(features, FEATURE_ORDER)
        error = _read_corrupt(tmp_path, [valid, payload])
        path = tmp_path / "corrupt.tfrecord"
        assert (error.path, error.offset) == (str(path), len(valid) + 16)
        assert "varint exceeds 64 bits" in str(error)
