"""Byte-pair-encoding subword vocabulary: training, encode, decode.

Character-level BPE in the sentencepiece style: text is NFKC-normalized and
whitespace-split, every word gets a separate "▁" boundary symbol before its
characters, and training repeatedly merges the most frequent adjacent symbol
pair.  Five special pieces occupy ids 0-4 and never take part in merges.
Unknown characters encode to [UNK]; there is no byte fallback.

Training is incremental (Sennrich et al. 2016): pair counts and a
pair-to-word index persist across merges, each merge rewrites only the word
types that hold the merged pair, and a lazy max-heap yields the next pair.
Training and encoding share one spelling, ``_spell``: a word is one str of
piece-id code points, the marker's first, and a merge is ``str.replace`` of
a two-code-point pair.  Encoding replays merges by rank from a table built
once per Vocab and memoizes piece ids per word in the Vocab's ``word_ids``,
an ``ingest.Memo``, so encoder memory stays bounded.
"""

from __future__ import annotations

import heapq
import unicodedata
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import partial
from operator import add
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
        ranks = {}  # spelled pair -> (rank, pair, merged piece's code point); a later listing wins
        for rank, (left, right) in enumerate(self.merges):
            if left in SPECIALS or right in SPECIALS:
                raise ValueError("special tokens cannot appear in merges")
            if not all(piece in mapping for piece in (left, right, left + right)):
                raise ValueError(f"merge {left!r} {right!r} names a piece not in the vocabulary")
            pair = chr(mapping[left]) + chr(mapping[right])
            ranks[pair] = rank, pair, chr(mapping[left + right])
        object.__setattr__(self, "piece_to_id", mapping)
        ids = tuple(mapping.values())  # the ids' own int objects, shared by every memo value
        encode_word = partial(_encode_word, ranks=ranks, piece_ids=mapping, ids=ids)
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
        pieces = [line for _, line in read_lines(vocab_path)]
        while pieces and not pieces[-1]:
            pieces.pop()
        if "" in pieces:  # a blank line would shift every later id off its line number
            raise MalformedRecord(pieces.index("") + 1, "blank line in the vocabulary")
        merges: List[Tuple[str, str]] = []
        for line_no, line in read_lines(merges_path):
            if not line:
                continue
            parts = line.split(" ")
            if len(parts) != 2:
                raise MalformedRecord(line_no, 'merge line must be "left right"')
            merges.append((parts[0], parts[1]))
        return cls(pieces=tuple(pieces), merges=tuple(merges))


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

    A merge is ``str.replace`` on ``_spell``'s code points: non-overlapping, left to right.

    The max-heap holds (-count, concat, left piece, pair): a concatenation
    and its left piece fix the right one, so this orders as (-count, concat,
    pair).  It is lazy: an entry whose pair has lost count since it was
    pushed goes back in at its current count, and one whose pair has gained
    count is dropped, since every net gain pushes a fresh entry.
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
    piece_ids = {piece: idx for idx, piece in enumerate(pieces)}
    merges: List[Tuple[str, str]] = []
    spelled: List[str] = [_spell(word, piece_ids) for word in words]
    freqs: List[int] = list(words.values())
    del words

    # counts: live pair frequencies; where: word indices that contained each
    # pair at some point (duplicates and stale entries are checked on use)
    counts: Dict[str, int] = defaultdict(int)
    where: Dict[str, array] = defaultdict(lambda: array("I"))
    for index, word in enumerate(spelled):
        for pair in map(add, word, word[1:]):
            counts[pair] += freqs[index]
            where[pair].append(index)

    def entry(pair: str, count: int) -> Optional[Tuple[int, str, str, str]]:
        left = pieces[ord(pair[0])]
        concat = left + pieces[ord(pair[1])]
        return None if concat in SPECIALS else (-count, concat, left, pair)

    heap = [item for item in map(entry, counts, counts.values()) if item]
    heapq.heapify(heap)

    while len(pieces) < vocab_size:
        best = _pop_best(heap, counts)
        if best is None:
            break
        left, right = pieces[ord(best[0])], pieces[ord(best[1])]
        merges.append((left, right))
        symbol = chr(piece_ids.setdefault(left + right, len(pieces)))  # or an existing piece's id
        if ord(symbol) == len(pieces):
            pieces.append(left + right)
        deltas: Dict[str, int] = defaultdict(int)
        for index in sorted(set(where.pop(best))):
            word = spelled[index]
            if best not in word:
                continue
            merged = spelled[index] = word.replace(best, symbol)
            # pairs change only from the symbol before the first match to the one after the last
            start, stop = max(word.find(best) - 1, 0), word.rfind(best) + 3
            old, new = word[start:stop], merged[start : stop - len(word) + len(merged)]
            old, new = list(map(add, old, old[1:])), list(map(add, new, new[1:]))
            freq = freqs[index]
            for pair in old:
                deltas[pair] -= freq
            for pair in new:
                deltas[pair] += freq
            for pair in set(new).difference(old):
                where[pair].append(index)
        for pair, delta in deltas.items():  # a pair with a zero delta is live and stays
            count = counts[pair] = counts[pair] + delta
            if not count:
                del counts[pair]
                where.pop(pair, None)
            elif delta > 0 and (item := entry(pair, count)):
                heapq.heappush(heap, item)

    return Vocab(pieces=tuple(pieces), merges=tuple(merges))


def _pop_best(heap: list, counts: Dict[str, int]) -> Optional[str]:
    """Pop heap entries until one carries its pair's current count."""
    while heap:
        neg_count, concat, left, pair = heapq.heappop(heap)
        count = counts.get(pair, 0)
        if count == -neg_count:
            return pair
        if 0 < count < -neg_count:
            heapq.heappush(heap, (-count, concat, left, pair))
    return None


def _spell(word: str, piece_ids: Dict[str, int]) -> str:
    """chr(id) of the marker's piece, then of each character's one-character piece or [UNK]."""
    spelled = [chr(piece_ids.get(char, UNK_ID)) for char in word]
    return chr(piece_ids.get(MARKER, UNK_ID)) + "".join(spelled)


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
    word: str, ranks: Dict[str, tuple], piece_ids: Dict[str, int], ids: Tuple[int, ...]
) -> Tuple[int, ...]:
    spelled = _spell(word, piece_ids)
    while True:
        best = None  # the lowest-ranked (rank, pair, merged) among the word's pairs
        for pair in map(add, spelled, spelled[1:]):
            merge = ranks.get(pair)
            if merge is not None and (best is None or merge < best):
                best = merge
        if best is None:
            return tuple(map(ids.__getitem__, map(ord, spelled)))
        spelled = spelled.replace(best[1], best[2])


def decode(ids: Sequence[int], vocab: Vocab) -> str:
    """Concatenate pieces, turn boundary markers into spaces, trim."""
    out = []
    for idx in ids:
        if not 0 <= idx < len(vocab.pieces):
            raise IdOutOfRange(f"id {idx} outside vocabulary of {len(vocab.pieces)} pieces")
        out.append(vocab.pieces[idx])
    return "".join(out).replace(MARKER, " ").strip()
