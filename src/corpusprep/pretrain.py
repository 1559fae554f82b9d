"""MLM+NSP pretraining instances and sharded TFRecord output.

Instance generation follows the standard BERT data tool: sentences
accumulate into chunks up to a target length, each chunk splits into segment
A and segment B, B is either the document's continuation or sentences from a
random other document, the pair is truncated to fit and 15% of the
non-special tokens are masked 80/10/10.

Tokens and masked labels are piece ids from encode to the record; that
tool keeps piece strings and looks each one up as it writes, which gives the
same ids because a Vocab maps pieces to ids one to one.  example_payload
encodes an instance straight to payload bytes, padding as it encodes, and
serialize_example frames them.  read_tfrecords returns SerializedExamples,
each decoded by the schema's layout reader or, for any other layout and to
name a fault, by parse_example.
Random-next sampling may draw from any document, so the whole tokenized
corpus is held in memory while instances are generated, as one TokenStore:
three flat arrays, about 4 bytes per piece, which forked workers share with
the parent.  With more than one worker, at most one _POOL_WINDOW of finished
instances is held as well.

Two deliberate departures from that tool, both needed for reproducibility
guarantees:

- The next-sentence decision is a pure coin flip with random_next_prob.  A
  chunk that drew "actual next" but has only one segment produces no
  instance instead of being forced to the random branch, so probability 0
  or 1 yields exactly 0% or 100% random-next labels.
- Randomness is derived per (document, duplication index), not from one
  shared generator, so any worker count produces byte-identical output in
  a fixed (dupe, document) order.
"""

from __future__ import annotations

import math
import os
import random
import re
from array import array
from bisect import bisect_left
from collections import deque
from contextlib import ExitStack
from dataclasses import dataclass, fields
from itertools import islice
from typing import Callable, Iterable, Iterator, List, Tuple, get_type_hints

from .bpe import CLS_ID, MASK_ID, PAD_ID, SEP_ID, SPECIALS, Vocab, encode
from .config import GenerationConfig
from .errors import CorpusTooSmall, CorruptRecord, IdOutOfRange, NoMaskableTokens
from .ingest import Document, blake2b_digest, make_output_dir, open_output, writing
from .tfrecord import example_reader, example_writer, frame_record, parse_example, read_framed


def masked_budget(max_seq_length: int, masked_lm_prob: float) -> int:
    """Masked-slot capacity per sequence: ceil(prob * length).

    The inner round guards against float noise like 0.15 * 20 being a hair
    above 3.0, which would otherwise inflate the ceiling.
    """
    if max_seq_length < 1:
        raise ValueError("max_seq_length must be >= 1")
    return math.ceil(round(masked_lm_prob * max_seq_length, 9))


def round_half_up(x: float) -> int:
    """round(0.5) == 1, unlike banker's rounding; float noise guarded."""
    return math.floor(round(x + 0.5, 9))


class TokenStore:
    """The tokenized corpus as three arrays and the document ids.

    Sentence k is ids[bounds[k]:bounds[k + 1]] and document d is sentences
    docs[d] to docs[d + 1]; no sentence and no document is empty.
    """

    def __init__(self, documents: Iterable[Tuple[str, Iterable[List[int]]]]) -> None:
        """Store each (id, sentences) pair, a sentence a list of piece ids; drop empty
        sentences and documents."""
        self.ids, self.bounds, self.docs = array("I"), array("Q", [0]), array("Q", [0])
        self.doc_ids: List[str] = []
        for doc_id, sentences in documents:
            for sentence in sentences:
                if sentence:
                    self.ids.fromlist(sentence)
                    self.bounds.append(len(self.ids))
            if len(self.bounds) - 1 > self.docs[-1]:
                self.docs.append(len(self.bounds) - 1)
                self.doc_ids.append(doc_id)

    def __len__(self) -> int:
        return len(self.doc_ids)


def tokenize_documents(docs: Iterable[Document], vocab: Vocab) -> TokenStore:
    """Encode each of a document's sentences into one store."""
    store = TokenStore((doc.id, (encode(line, vocab) for line in doc.sentences())) for doc in docs)
    vocab.word_ids.clear()  # the encode memo is not needed after this pass
    return store


@dataclass(frozen=True)
class PretrainingInstance:
    """One [CLS] A [SEP] B [SEP] sequence; tokens and labels are piece ids."""

    tokens: Tuple[int, ...]
    segment_ids: Tuple[int, ...]
    masked_positions: Tuple[int, ...]
    masked_labels: Tuple[int, ...]
    is_random_next: bool

    def __post_init__(self) -> None:
        if not self.tokens or self.tokens[0] != CLS_ID:
            raise ValueError("tokens must start with [CLS]")
        if self.tokens.count(SEP_ID) != 2:
            raise ValueError("tokens must contain exactly two [SEP]")
        if len(self.segment_ids) != len(self.tokens):
            raise ValueError("segment_ids must align with tokens")
        zeros = self.segment_ids.count(0)
        if tuple(self.segment_ids) != (0,) * zeros + (1,) * (len(self.segment_ids) - zeros):
            raise ValueError("segment_ids must be zeros followed by ones")
        if len(self.masked_positions) != len(self.masked_labels):
            raise ValueError("masked_positions and masked_labels must align")
        if any(a >= b for a, b in zip(self.masked_positions, self.masked_positions[1:])):
            raise ValueError("masked_positions must be strictly increasing")
        for pos in self.masked_positions:
            if not 0 <= pos < len(self.tokens):
                raise ValueError(f"masked position {pos} out of range")
            if self.tokens[pos] in (CLS_ID, SEP_ID):
                raise ValueError("masked positions must not index [CLS] or [SEP]")


def _doc_rng(seed: int, doc_id: str, dupe: int) -> random.Random:
    digest = blake2b_digest(f"{doc_id}\x00{dupe}".encode("utf-8"), 8)
    return random.Random(seed ^ int.from_bytes(digest, "little"))


def _pick_foreign_doc(rng: random.Random, doc_count: int, current: int) -> int:
    while True:
        candidate = rng.randint(0, doc_count - 1)
        if candidate != current:
            return candidate


def _truncate_pair(
    tokens_a: List[int], tokens_b: List[int], max_num_tokens: int, rng: random.Random
) -> None:
    """Trim the longer side, dropping from front or back with equal odds."""
    while len(tokens_a) + len(tokens_b) > max_num_tokens:
        trunc = tokens_a if len(tokens_a) > len(tokens_b) else tokens_b
        if rng.random() < 0.5:
            del trunc[0]
        else:
            trunc.pop()


def _instances_for_doc(
    store: TokenStore, vocab: Vocab, config: GenerationConfig, dupe: int, doc_index: int
) -> List[PretrainingInstance]:
    rng = _doc_rng(config.seed, store.doc_ids[doc_index], dupe)
    ids, bounds, docs = store.ids, store.bounds, store.docs
    end = docs[doc_index + 1]
    max_num_tokens = config.max_seq_length - 3
    target_seq_length = max_num_tokens
    if rng.random() < config.short_seq_prob:
        target_seq_length = rng.randint(2, max_num_tokens)

    instances: List[PretrainingInstance] = []
    first = i = docs[doc_index]  # the current chunk is sentences first to i
    while i < end:
        if i == end - 1 or bounds[i + 1] - bounds[first] >= target_seq_length:
            a_end = first + 1
            if i > first:
                a_end = first + rng.randint(1, i - first)
            tokens_a = ids[bounds[first]:bounds[a_end]].tolist()

            is_random_next = rng.random() < config.random_next_prob
            tokens_b: List[int] = []
            if is_random_next:
                target_b_length = target_seq_length - len(tokens_a)
                foreign = _pick_foreign_doc(rng, len(store), doc_index)
                foreign_first, foreign_end = docs[foreign], docs[foreign + 1]
                start = foreign_first + rng.randint(0, foreign_end - foreign_first - 1)
                # whole sentences from start on, until target_b_length is reached
                stop = bisect_left(bounds, bounds[start] + target_b_length, start + 1, foreign_end)
                tokens_b = ids[bounds[start]:bounds[stop]].tolist()
                i = a_end - 1  # sentences from a_end on were not consumed; rewind them
            elif i > first:
                tokens_b = ids[bounds[a_end]:bounds[i + 1]].tolist()
            if tokens_b:
                _truncate_pair(tokens_a, tokens_b, max_num_tokens, rng)
                tokens = [CLS_ID, *tokens_a, SEP_ID, *tokens_b, SEP_ID]
                positions, labels = apply_masking(tokens, vocab, config, rng)
                instances.append(
                    PretrainingInstance(
                        tokens=tuple(tokens),
                        segment_ids=(0,) * (len(tokens_a) + 2) + (1,) * (len(tokens_b) + 1),
                        masked_positions=positions,
                        masked_labels=labels,
                        is_random_next=is_random_next,
                    )
                )
            first = i + 1
        i += 1
    return instances


def apply_masking(
    tokens: List[int], vocab: Vocab, config: GenerationConfig, rng: random.Random
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Mask non-special positions of tokens in place: 80% [MASK], 10% random
    piece, 10% kept.  Returns the masked positions and their original ids."""
    candidates = [idx for idx, token in enumerate(tokens) if token >= len(SPECIALS)]
    if not candidates:
        raise NoMaskableTokens("instance has no non-special tokens")
    budget = masked_budget(config.max_seq_length, config.masked_lm_prob)
    num = min(budget, max(1, round_half_up(config.masked_lm_prob * len(candidates))))
    positions = sorted(rng.sample(candidates, num))

    labels = []
    for pos in positions:
        labels.append(tokens[pos])
        roll = rng.random()
        if roll < 0.8:
            tokens[pos] = MASK_ID
        elif roll < 0.9:
            tokens[pos] = rng.randint(len(SPECIALS), len(vocab) - 1)
        # else: token stays, label still recorded
    return tuple(positions), tuple(labels)


# --- parallel generation ---------------------------------------------------

# (store, vocab, config, finish), filled by the pool's initializer in workers only;
# the parent keeps no generation state
_WORKER_ARGS: list = []

# (dupe, document) tasks handed to the pool, 8 to a chunk, and not yet taken by the
# writer: the parent buffers each finished result until the writer takes it, so
# unbounded, the parent's peak memory grows with how far the workers run ahead
_POOL_WINDOW = 64


def _run_tasks(chunk: List[Tuple[int, int]]) -> list:
    store, vocab, config, finish = _WORKER_ARGS
    return [finish(instance) for task in chunk
            for instance in _instances_for_doc(store, vocab, config, *task)]


def build_instances(
    store: TokenStore,
    vocab: Vocab,
    config: GenerationConfig,
    workers: int = 1,
    finish: Callable[[PretrainingInstance], object] = lambda instance: instance,
) -> Iterator:
    """Yield finish(instance) for the instances of each (dupe, document) pair in turn.

    Randomness comes only from config.seed and the pair identity, so the
    stream is identical for any worker count.  finish runs in the process that
    built the instance; forked workers inherit it and the store's arrays, and
    pickle finish's results and errors.
    """
    if len(store) < 2:
        raise CorpusTooSmall("need at least 2 documents for random-next sampling")
    # made as they are taken: itertools.product would first store its ranges as tuples
    tasks = ((dupe, idx) for dupe in range(config.dupe_factor) for idx in range(len(store)))

    if workers <= 1:
        for dupe, doc_index in tasks:
            yield from map(finish, _instances_for_doc(store, vocab, config, dupe, doc_index))
        return

    import multiprocessing  # only a pool needs it, and it loads pickle and socket

    context = multiprocessing.get_context("fork")
    with context.Pool(
        workers, initializer=_WORKER_ARGS.extend, initargs=((store, vocab, config, finish),)
    ) as pool:
        pending = deque()  # a sliding window of chunks, oldest first
        for chunk in iter(lambda: list(islice(tasks, 8)), []):
            pending.append(pool.apply_async(_run_tasks, (chunk,)))
            if len(pending) == _POOL_WINDOW // 8:
                yield from pending.popleft().get()
        for result in pending:
            yield from result.get()


# --- serialization ----------------------------------------------------------


@dataclass(frozen=True)
class SerializedExample:
    """One record's features, in wire order.  A float tuple is a float
    feature; an int tuple is an int64 feature, and an int a one-value one."""

    input_ids: Tuple[int, ...]
    input_mask: Tuple[int, ...]
    segment_ids: Tuple[int, ...]
    masked_lm_positions: Tuple[int, ...]
    masked_lm_ids: Tuple[int, ...]
    masked_lm_weights: Tuple[float, ...]
    next_sentence_labels: int


FEATURE_ORDER = tuple(field.name for field in fields(SerializedExample))
_TYPES = get_type_hints(SerializedExample)  # feature name -> field type
# feature name -> "float" or "int64", the list kind of its Feature message
_KINDS = {name: "float" if _TYPES[name] == Tuple[float, ...] else "int64" for name in FEATURE_ORDER}
_WRITE_EXAMPLE = example_writer([(name, _KINDS[name]) for name in FEATURE_ORDER])
_READ_EXAMPLE = example_reader([(name, _KINDS[name]) for name in FEATURE_ORDER])


def example_payload(instance: PretrainingInstance, vocab: Vocab, config: GenerationConfig) -> bytes:
    """The instance's Example payload, every list padded to its fixed length."""
    length = config.max_seq_length
    budget = masked_budget(length, config.masked_lm_prob)
    ids = tuple(instance.tokens)
    if len(ids) > length:
        raise ValueError(f"instance of {len(ids)} tokens exceeds {length}")
    for idx in (min(ids), max(ids), *instance.masked_labels):
        if not 0 <= idx < len(vocab):
            raise IdOutOfRange(f"id {idx} outside vocabulary of {len(vocab)} pieces")
    pad = length - len(ids)
    mask_pad = budget - len(instance.masked_positions)
    if mask_pad < 0:
        raise ValueError(f"{len(instance.masked_positions)} masked positions exceed {budget}")
    return _WRITE_EXAMPLE(  # the features in FEATURE_ORDER
        ids + (PAD_ID,) * pad,
        (1,) * len(ids) + (0,) * pad,
        tuple(instance.segment_ids) + (0,) * pad,
        tuple(instance.masked_positions) + (0,) * mask_pad,
        tuple(instance.masked_labels) + (0,) * mask_pad,
        (1.0,) * len(instance.masked_positions) + (0.0,) * mask_pad,
        (1 if instance.is_random_next else 0,),
    )


def serialize_example(
    instance: PretrainingInstance, vocab: Vocab, config: GenerationConfig
) -> bytes:
    """The instance's framed shard record: its payload behind length and CRCs."""
    return frame_record(example_payload(instance, vocab, config))


_SHARD_NAME = re.compile(r"pretrain-(\d+)-of-\d+\.tfrecord")


def shard_paths(out_dir: str, shards: int) -> List[str]:
    return [
        os.path.join(out_dir, f"pretrain-{i}-of-{shards}.tfrecord") for i in range(shards)
    ]


def write_tfrecords(records: Iterable[bytes], out_dir: str, shards: int) -> Tuple[List[str], int]:
    """Write framed records round-robin by arrival index over shard files; (paths, count).

    Every shard appears together once the stream is exhausted; a failure
    mid-stream leaves no new shard and the earlier ones as they were.  Only
    then are shard files of an earlier run with another shard count removed,
    so the pretrain-*.tfrecord glob matches only this run's shards.
    """
    paths = shard_paths(out_dir, shards)
    make_output_dir(out_dir)
    count = 0
    with ExitStack() as stack:
        handles = [stack.enter_context(open_output(path, binary=True)) for path in paths]
        for count, record in enumerate(records, start=1):
            handles[(count - 1) % shards].write(record)
    with writing(out_dir):
        for name in os.listdir(out_dir):
            path = os.path.join(out_dir, name)
            if _SHARD_NAME.fullmatch(name) and path not in paths:
                os.remove(path)
    return paths, count


def read_tfrecords(paths: Iterable[str]) -> Iterator[SerializedExample]:
    """Decode shard files back to examples, validating CRCs and feature names.

    Records interleave round-robin across the paths, one record per file
    per round, which inverts write_tfrecords' assignment: reading the shard
    list back yields the original arrival order.  Paths named
    pretrain-<i>-of-<n>.tfrecord are read in index order i (a sorted glob
    lists -10 before -2), after any other paths in the order given.  A
    payload that passes its CRC but does not parse raises CorruptRecord at
    its offset.
    """

    def index(path: str) -> int:
        match = _SHARD_NAME.fullmatch(os.path.basename(path))
        return int(match.group(1)) if match else -1

    streams = [(path, read_framed(path)) for path in sorted(paths, key=index)]
    while streams:
        for entry in list(streams):
            path, records = entry
            record = next(records, None)
            if record is None:
                streams.remove(entry)
                continue
            offset, payload = record
            yield _decode_payload(payload, path, offset)


def _decode_payload(payload: bytes, path: str, offset: int) -> SerializedExample:
    lists = _READ_EXAMPLE(payload)
    if lists is not None and len(lists[-1]) == 1:  # the last feature, the label, is one value
        return SerializedExample(*lists[:-1], *lists[-1])

    # any other layout, or a fault to name
    def corrupt(message: str) -> CorruptRecord:
        return CorruptRecord(path, offset, "data", message)

    try:
        features = parse_example(payload)
    except ValueError as exc:
        raise corrupt(f"malformed payload: {exc}") from exc
    unknown = set(features) - set(FEATURE_ORDER)
    if unknown:
        raise corrupt(f"unexpected feature(s): {sorted(unknown)}")
    missing = set(FEATURE_ORDER) - set(features)
    if missing:
        raise corrupt(f"missing feature(s): {sorted(missing)}")

    decoded = {}
    for name in FEATURE_ORDER:
        kind, values = features[name]
        if kind != _KINDS[name]:
            raise corrupt(f"feature {name} must be {_KINDS[name]}")
        if _TYPES[name] is not int:
            decoded[name] = tuple(values)
        elif len(values) == 1:
            decoded[name] = values[0]
        else:
            raise corrupt(f"feature {name} holds {len(values)} values, not 1")
    return SerializedExample(**decoded)
