"""Check the packed token store against encode, and its shards against the instance oracle.

    python3 scripts/check_token_store.py .perfbench-work/vocab/out/cleaned.jsonl --vocab-size 400

Trains a vocabulary of that size on the corpus (``bpe-train``), so that piece
ids pass 127 and 255.  Every sentence ``tokenize_documents`` stores must equal
``encode`` of its line, document by document, with blank lines and documents
left out.  Then ``make-examples`` writes shards at ``--workers 1`` and ``2``;
each shard must hold, byte for byte, the records of the instances that
``tests/instance_oracle.py`` replays from those sentences, framed by
``tests/record_oracle.py`` and dealt round-robin.  Prints one line with the
piece, sentence and document counts, the largest id, the store's bytes per
piece and the record count; exits 0 when everything agrees and some id
passes 255, else 1.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import instance_oracle  # noqa: E402
import record_oracle  # noqa: E402
from corpusprep import cli  # noqa: E402
from corpusprep.bpe import Vocab, encode  # noqa: E402
from corpusprep.config import GenerationConfig  # noqa: E402
from corpusprep.ingest import read_documents  # noqa: E402
from corpusprep.pretrain import PretrainingInstance, shard_paths, tokenize_documents  # noqa: E402

DUPE_FACTOR = 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("corpus", help="json-lines corpus file")
    parser.add_argument("--vocab-size", type=int, required=True)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        vocab_path, merges_path = os.path.join(tmp, "vocab.txt"), os.path.join(tmp, "merges.txt")
        code = cli.main(["bpe-train", args.corpus, "--vocab-size", str(args.vocab_size),
                         "--vocab", vocab_path, "--merges", merges_path])
        if code:
            return code
        vocab = Vocab.load(vocab_path, merges_path)
        store = tokenize_documents(read_documents(args.corpus, "json-lines"), vocab)
        expected = []  # (id, sentences) of each document with a non-empty sentence
        for doc in read_documents(args.corpus, "json-lines"):
            sentences = [ids for ids in (encode(line, vocab) for line in doc.sentences()) if ids]
            if sentences:
                expected.append((doc.id, sentences))
        stored = instance_oracle.unpack(store)

        config = GenerationConfig(dupe_factor=DUPE_FACTOR)
        spelled = [(i, [[vocab.pieces[t] for t in s] for s in doc]) for i, doc in expected]
        records = [
            record_oracle.record(PretrainingInstance(
                tuple(vocab.piece_to_id[p] for p in tokens), segment_ids, positions,
                tuple(vocab.piece_to_id[p] for p in labels), is_random,
            ), vocab, config)
            for tokens, segment_ids, positions, labels, is_random
            in instance_oracle.instances(spelled, config, vocab.pieces)
        ]
        shards_agree = []
        for workers in (1, 2):
            out = os.path.join(tmp, f"workers-{workers}")
            code = cli.main(["make-examples", args.corpus, "--vocab", vocab_path,
                             "--merges", merges_path, "--out-dir", out,
                             "--dupe-factor", str(DUPE_FACTOR), "--workers", str(workers)])
            if code:
                return code
            for k, path in enumerate(shard_paths(out, config.shards)):
                with open(path, "rb") as handle:
                    shards_agree.append(handle.read() == b"".join(records[k::config.shards]))

    buffers = sum(memoryview(a).nbytes for a in (store.ids, store.bounds, store.docs))
    pieces = len(store.ids)
    largest = max(store.ids, default=0)
    print(f"vocab_size={args.vocab_size} pieces={pieces} sentences={len(store.bounds) - 1} "
          f"documents={len(store)} max_id={largest} bytes_per_piece={buffers / max(pieces, 1):.2f} "
          f"records={len(records)} sentences_agree={stored == expected} "
          f"shards_agree={sum(shards_agree)}/{len(shards_agree)}")
    return 0 if stored == expected and all(shards_agree) and largest > 255 else 1


if __name__ == "__main__":
    raise SystemExit(main())
