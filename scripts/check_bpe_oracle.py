"""Train the slow reference BPE and train_bpe on one corpus and compare them.

    python3 scripts/check_bpe_oracle.py .perfbench-work/vocab/out/cleaned.jsonl --vocab-size 400

Prints one line with both training times, the merge count, train_bpe's
tracemalloc peak per word type (from a further, untimed call), and whether
the pieces, the merges and the encoding of every input line are identical.
Exits 0 when they are, 1 when they are not.  The reference lives in
``tests/bpe_oracle.py``.
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
from corpusprep.bpe import encode, train_bpe  # noqa: E402
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
    identical = (
        expected.pieces == actual.pieces
        and expected.merges == actual.merges
        and all(oracle_encode(line, expected) == encode(line, actual) for line in lines)
    )
    print(
        f"vocab_size={args.vocab_size} merges={len(actual.merges)} "
        f"oracle_s={oracle_s:.3f} train_bpe_s={train_s:.3f} "
        f"train_bpe_bytes_per_type={bytes_per_type:.0f} "
        f"identical={'yes' if identical else 'no'}"
    )
    return 0 if identical else 1


if __name__ == "__main__":
    raise SystemExit(main())
