"""Write shards with ids above 127 and read each record back both ways.

    python3 scripts/check_record_reader.py .perfbench-work/vocab/out/cleaned.jsonl --vocab-size 400

Trains a vocabulary of that size on the corpus (``bpe-train``) and writes
shards from it (``make-examples``), so that piece ids pass 127 and int64
blocks hold multi-byte varints.  Every record that ``read_tfrecords`` returns
must equal the general decode of its payload (``parse_example`` and the checks
after it, in ``tests/record_oracle.py``).  Prints one line with the record
count, how many records the layout reader decoded, and how many of those hold
a non-ASCII block; exits 0 when every record agrees, at least one was read by
the layout reader and at least one of those holds a multi-byte varint, and 1
otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import record_oracle  # noqa: E402
from corpusprep import cli  # noqa: E402
from corpusprep.pretrain import _READ_EXAMPLE, read_tfrecords  # noqa: E402
from corpusprep.tfrecord import read_framed  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("corpus", help="json-lines corpus file")
    parser.add_argument("--vocab-size", type=int, required=True)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        vocab, merges, out = (os.path.join(tmp, name) for name in ("vocab.txt", "merges.txt", "out"))
        code = cli.main(["bpe-train", args.corpus, "--vocab-size", str(args.vocab_size),
                         "--vocab", vocab, "--merges", merges])
        code = code or cli.main(["make-examples", args.corpus, "--vocab", vocab, "--merges", merges,
                                 "--out-dir", out, "--dupe-factor", "2"])
        if code:
            return code
        records = agree = by_layout = wide = 0
        for path in sorted(os.listdir(out)):
            path = os.path.join(out, path)
            payloads = [payload for _offset, payload in read_framed(path)]
            for payload, example in zip(payloads, read_tfrecords([path]), strict=True):
                records += 1
                agree += example == record_oracle.decode(payload)
                lists = _READ_EXAMPLE(payload)
                by_layout += lists is not None
                # an id of 0x80 or more is a multi-byte varint (the float weights are 0 or 1)
                wide += lists is not None and max(max(ids, default=0) for ids in lists) >= 0x80
    print(f"vocab_size={args.vocab_size} records={records} agree={agree} "
          f"layout_reader={by_layout} non_ascii={wide}")
    return 0 if records == agree and wide > 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
