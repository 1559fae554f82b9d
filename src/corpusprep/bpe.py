"""Byte-pair-encoding subword vocabulary: training, encode, decode.

Character-level BPE in the sentencepiece style: text is NFKC-normalized and
whitespace-split, every word gets a separate "▁" boundary symbol before its
characters, and training repeatedly merges the most frequent adjacent symbol
pair.  Five special pieces occupy ids 0-4 and never take part in merges.
Unknown characters encode to [UNK]; there is no byte fallback.

Training is incremental (Sennrich et al. 2016): pair counts and a
pair-to-word index persist across merges, each merge rewrites only the word
types that hold the merged pair, and a lazy max-heap yields the next pair.
Encoding replays merges by rank from a table built once per Vocab and
memoizes piece ids per word in the Vocab's ``word_ids``, an ``ingest.Memo``,
so encoder memory stays bounded.
"""

from __future__ import annotations

import heapq
import unicodedata
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import EmptyCorpus, IdOutOfRange, MalformedRecord, VocabSizeTooSmall
from .ingest import Document, Memo, open_output, read_lines

SPECIALS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]")
PAD_ID, UNK_ID, CLS_ID, SEP_ID, MASK_ID = range(5)
MARKER = "▁"  # U+2581, the word-boundary symbol before each word's characters


@dataclass(frozen=True)
class Vocab:
    """An ordered piece inventory plus the merge list that produced it."""

    pieces: Tuple[str, ...]
    merges: Tuple[Tuple[str, str], ...]
    piece_to_id: Dict[str, int] = field(init=False, repr=False, compare=False)
    word_ids: Memo = field(init=False, repr=False, compare=False)  # word -> its piece ids

    def __post_init__(self) -> None:
        if self.pieces[: len(SPECIALS)] != SPECIALS:
            raise ValueError("pieces must start with the five special tokens")
        mapping = {}
        for idx, piece in enumerate(self.pieces):
            if piece in mapping:
                raise ValueError(f"duplicate piece {piece!r}")
            mapping[piece] = idx
        for left, right in self.merges:
            if left in SPECIALS or right in SPECIALS:
                raise ValueError("special tokens cannot appear in merges")
        object.__setattr__(self, "piece_to_id", mapping)
        ranks = {pair: rank for rank, pair in enumerate(self.merges)}  # a later listing wins
        encode_word = partial(_encode_word, ranks=ranks, piece_to_id=mapping)
        object.__setattr__(self, "word_ids", Memo(encode_word))

    def __reduce__(self):
        # rebuild the derived maps on unpickling instead of shipping encode's memo
        return (type(self), (self.pieces, self.merges))

    def __len__(self) -> int:
        return len(self.pieces)

    def save(self, vocab_path: str, merges_path: str) -> None:
        """vocab file: one piece per line, line number = id; merges: "left right"."""
        with open_output(vocab_path) as vocab_out, open_output(merges_path) as merges_out:
            for piece in self.pieces:
                vocab_out.write(piece + "\n")
            for left, right in self.merges:
                merges_out.write(f"{left} {right}\n")

    @classmethod
    def load(cls, vocab_path: str, merges_path: str) -> "Vocab":
        pieces = tuple(line for _, line in read_lines(vocab_path) if line)
        merges: List[Tuple[str, str]] = []
        for line_no, line in read_lines(merges_path):
            if not line:
                continue
            parts = line.split(" ")
            if len(parts) != 2:
                raise MalformedRecord(line_no, 'merge line must be "left right"')
            merges.append((parts[0], parts[1]))
        return cls(pieces=pieces, merges=tuple(merges))


def _word_counts(docs: Iterable[Document]) -> Counter:
    counts: Counter = Counter()
    for doc in docs:
        counts.update(unicodedata.normalize("NFKC", doc.text).split())
    return counts


def train_bpe(docs: Iterable[Document], vocab_size: int) -> Vocab:
    """Learn a BPE vocabulary of exactly vocab_size pieces where possible.

    Ties on pair frequency break by lexicographic order of the concatenated
    piece, then of the pair itself, so training is deterministic for a given
    corpus.  Stops early only when the corpus has no pairs left to merge.

    The max-heap of (-count, concat, pair) is lazy: an entry whose pair has
    lost count since it was pushed goes back in at its current count, and
    one whose pair has gained count is dropped, since every net gain pushes
    a fresh entry.
    """
    words = _word_counts(docs)
    if not words:
        raise EmptyCorpus("no words in training stream")

    alphabet = {MARKER}
    for word in words:
        alphabet.update(word)
    floor = len(SPECIALS) + len(alphabet)
    if vocab_size <= floor:
        raise VocabSizeTooSmall(
            f"vocab_size must exceed specials+alphabet = {floor}, got {vocab_size}"
        )

    pieces: List[str] = list(SPECIALS) + sorted(alphabet)
    known = set(pieces)
    merges: List[Tuple[str, str]] = []
    symbolized: List[Tuple[str, ...]] = [(MARKER, *word) for word in words]
    freqs: List[int] = list(words.values())

    # counts: live pair frequencies; where: word indices that contained each
    # pair at some point (duplicates and stale entries are checked on use)
    counts: Dict[Tuple[str, str], int] = defaultdict(int)
    where: Dict[Tuple[str, str], array] = defaultdict(lambda: array("I"))
    for index, symbols in enumerate(symbolized):
        for pair in zip(symbols, symbols[1:]):
            counts[pair] += freqs[index]
            where[pair].append(index)
    heap = [
        (-count, pair[0] + pair[1], pair)
        for pair, count in counts.items()
        if pair[0] + pair[1] not in SPECIALS
    ]
    heapq.heapify(heap)

    while len(pieces) < vocab_size:
        best = _pop_best(heap, counts)
        if best is None:
            break
        merges.append(best)
        merged = best[0] + best[1]
        if merged not in known:
            known.add(merged)
            pieces.append(merged)
        deltas: Dict[Tuple[str, str], int] = defaultdict(int)
        for index in sorted(set(where.pop(best))):
            symbols = symbolized[index]
            old = list(zip(symbols, symbols[1:]))
            if best not in old:
                continue
            symbols = symbolized[index] = _apply_merge(symbols, best)
            new = list(zip(symbols, symbols[1:]))
            freq = freqs[index]
            for pair in old:
                deltas[pair] -= freq
            for pair in new:
                deltas[pair] += freq
            for pair in set(new).difference(old):
                where[pair].append(index)
        for pair, delta in deltas.items():
            if not delta:
                continue
            count = counts[pair] = counts[pair] + delta
            if not count:
                del counts[pair]
                where.pop(pair, None)
            elif delta > 0 and pair[0] + pair[1] not in SPECIALS:
                heapq.heappush(heap, (-count, pair[0] + pair[1], pair))

    return Vocab(pieces=tuple(pieces), merges=tuple(merges))


def _pop_best(heap: list, counts: Dict[Tuple[str, str], int]) -> Optional[Tuple[str, str]]:
    """Pop heap entries until one carries its pair's current count."""
    while heap:
        neg_count, concat, pair = heapq.heappop(heap)
        count = counts.get(pair, 0)
        if count == -neg_count:
            return pair
        if 0 < count < -neg_count:
            heapq.heappush(heap, (-count, concat, pair))
    return None


def _apply_merge(symbols: Sequence[str], pair: Tuple[str, str]) -> Tuple[str, ...]:
    """Replace non-overlapping occurrences of pair, scanning left to right."""
    out: List[str] = []
    i = 0
    while i < len(symbols):
        if i + 1 < len(symbols) and (symbols[i], symbols[i + 1]) == pair:
            out.append(symbols[i] + symbols[i + 1])
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return tuple(out)


def encode(text: str, vocab: Vocab) -> List[int]:
    """NFKC-normalize, split on whitespace, replay merges per word by rank.

    Piece ids per word come from the vocab's bounded memo, ``word_ids``.
    """
    memo = vocab.word_ids
    ids: List[int] = []
    for word in unicodedata.normalize("NFKC", text).split():
        ids.extend(memo[word])
    return ids


def _encode_word(
    word: str, ranks: Dict[Tuple[str, str], int], piece_to_id: Dict[str, int]
) -> Tuple[int, ...]:
    symbols: Tuple[str, ...] = (MARKER, *word)
    while len(symbols) > 1:
        best_rank = None
        best_pair = None
        for pair in zip(symbols, symbols[1:]):
            rank = ranks.get(pair)
            if rank is not None and (best_rank is None or rank < best_rank):
                best_rank, best_pair = rank, pair
        if best_pair is None:
            break
        symbols = _apply_merge(symbols, best_pair)
    return tuple(piece_to_id.get(symbol, UNK_ID) for symbol in symbols)


def decode(ids: Sequence[int], vocab: Vocab) -> str:
    """Concatenate pieces, turn boundary markers into spaces, trim."""
    out = []
    for idx in ids:
        if not 0 <= idx < len(vocab.pieces):
            raise IdOutOfRange(f"id {idx} outside vocabulary of {len(vocab.pieces)} pieces")
        out.append(vocab.pieces[idx])
    return "".join(out).replace(MARKER, " ").strip()
