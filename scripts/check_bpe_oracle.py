"""Train the slow reference BPE and train_bpe on one corpus and compare them.

    python3 scripts/check_bpe_oracle.py .perfbench-work/vocab/out/cleaned.jsonl --vocab-size 400

Prints one line with both training times, the merge count, train_bpe's
tracemalloc peak per word type (from a further, untimed call), the [UNK]
count below, and whether the pieces, the merges and the encoding of every
input line are identical.  Every line is encoded twice: under the
vocabularies trained on all documents, and by ``encode`` and the reference
encoder under one trained on the first half, so that the characters seen
only in the second half encode to [UNK].  Exits 0 when all of it is
identical, 1 when it is not.  The reference lives in ``tests/bpe_oracle.py``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import tracemalloc
import unicodedata

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from bpe_oracle import oracle_encode, oracle_train_bpe  # noqa: E402
from corpusprep.bpe import UNK_ID, encode, train_bpe  # noqa: E402
from corpusprep.ingest import read_documents  # noqa: E402


def _timed(train, docs, vocab_size):
    start = time.perf_counter()
    vocab = train(iter(docs), vocab_size)
    return vocab, time.perf_counter() - start


def _peak_bytes(docs, vocab_size):
    tracemalloc.start()
    try:
        train_bpe(iter(docs), vocab_size)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("corpus", help="json-lines corpus file")
    parser.add_argument("--vocab-size", type=int, required=True)
    args = parser.parse_args(argv)

    docs = list(read_documents(args.corpus, "json-lines"))
    expected, oracle_s = _timed(oracle_train_bpe, docs, args.vocab_size)
    actual, train_s = _timed(train_bpe, docs, args.vocab_size)
    types = len({word for doc in docs for word in unicodedata.normalize("NFKC", doc.text).split()})
    bytes_per_type = _peak_bytes(docs, args.vocab_size) / types
    lines = [line for doc in docs for line in doc.text.splitlines()]
    half = train_bpe(iter(docs[: (len(docs) + 1) // 2]), args.vocab_size)
    half_ids = [oracle_encode(line, half) for line in lines]
    identical = (
        expected.pieces == actual.pieces
        and expected.merges == actual.merges
        and all(oracle_encode(line, expected) == encode(line, actual) for line in lines)
        and all(ids == encode(line, half) for ids, line in zip(half_ids, lines))
    )
    print(
        f"vocab_size={args.vocab_size} merges={len(actual.merges)} "
        f"oracle_s={oracle_s:.3f} train_bpe_s={train_s:.3f} "
        f"train_bpe_bytes_per_type={bytes_per_type:.0f} "
        f"first_half_unknowns={sum(ids.count(UNK_ID) for ids in half_ids)} "
        f"identical={'yes' if identical else 'no'}"
    )
    return 0 if identical else 1


if __name__ == "__main__":
    raise SystemExit(main())
