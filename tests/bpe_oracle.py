"""Slow reference BPE: the full-recount trainer and the uncached encoder.

Every merge recounts every pair of every word type, and every encode call
rebuilds the merge ranks.  This is O(merges x types), far too slow for real
corpora, and kept only as the oracle that ``corpusprep.bpe.train_bpe`` and
``corpusprep.bpe.encode`` must match piece for piece, merge for merge and
id for id.  It shares no code with them beyond ``Vocab`` and reads the
boundary marker, ``bpe.MARKER``, when it is called.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from typing import Dict, Iterable, List, Sequence, Tuple

from corpusprep import bpe
from corpusprep.bpe import SPECIALS, UNK_ID, Vocab
from corpusprep.errors import EmptyCorpus, VocabSizeTooSmall
from corpusprep.ingest import Document


def _word_counts(docs: Iterable[Document]) -> Counter:
    counts: Counter = Counter()
    for doc in docs:
        counts.update(unicodedata.normalize("NFKC", doc.text).split())
    return counts


def oracle_train_bpe(docs: Iterable[Document], vocab_size: int) -> Vocab:
    words = _word_counts(docs)
    if not words:
        raise EmptyCorpus("no words in training stream")

    alphabet = {bpe.MARKER}
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
    symbolized: Dict[Tuple[str, ...], int] = {
        (bpe.MARKER, *word): freq for word, freq in words.items()
    }

    while len(pieces) < vocab_size:
        pair_counts: Counter = Counter()
        for symbols, freq in symbolized.items():
            for left, right in zip(symbols, symbols[1:]):
                pair_counts[(left, right)] += freq
        candidates = {
            pair: count for pair, count in pair_counts.items() if pair[0] + pair[1] not in SPECIALS
        }
        if not candidates:
            break
        best = min(candidates, key=lambda p: (-candidates[p], p[0] + p[1], p))
        merges.append(best)
        merged = best[0] + best[1]
        if merged not in known:
            known.add(merged)
            pieces.append(merged)
        symbolized = {
            _apply_merge(symbols, best): freq for symbols, freq in symbolized.items()
        }

    return Vocab(pieces=tuple(pieces), merges=tuple(merges))


def _apply_merge(symbols: Sequence[str], pair: Tuple[str, str]) -> Tuple[str, ...]:
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


def oracle_encode(text: str, vocab: Vocab) -> List[int]:
    ranks = {pair: rank for rank, pair in enumerate(vocab.merges)}
    ids: List[int] = []
    for word in unicodedata.normalize("NFKC", text).split():
        symbols: Tuple[str, ...] = (bpe.MARKER, *word)
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
        ids.extend(vocab.piece_to_id.get(symbol, UNK_ID) for symbol in symbols)
    return ids
