"""Run the full pipeline on a small self-generated demo corpus.

Synthesizes a few hundred documents with the usual defects baked in
(markup, near-duplicates, other languages, too-short fragments), runs
every stage, and prints the before/after statistics, the drop tally, and
the piece ids of a handful of pretraining examples read back from the
shards.  Point --input at a real json-lines corpus to run on your own
data instead.

    python3 scripts/run_demo_pipeline.py --out-dir /tmp/demo
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from corpusprep.config import GenerationConfig, PipelineConfig
from corpusprep.ingest import json_line
from corpusprep.pipeline import run_pipeline
from corpusprep.pretrain import read_tfrecords

_WORDS = (
    "maja mets järv meri linn tänav kool laps õpetaja raamat sõna keel "
    "päike vihm lumi tuul kevad suvi sügis talv hommik õhtu päev öö aeg "
    "pere ema isa vend õde sõber töö puhkus toit vesi leib piim kala liha "
    "tallinn eesti"
).split()

_ENGLISH = "the quick brown fox jumps over the lazy dog near the riverbank".split()

# stand-in for a morphologically annotated subsample: proper nouns carry
# capitalized lemmas, everything else lemmatizes to its lowercase form
_PROPER_LEMMAS = {"tallinn": "Tallinn", "eesti": "Eesti"}


def _lemma(token: str) -> str:
    core = token.strip(".").lower()
    return _PROPER_LEMMAS.get(core, token.lower())


def synthesize_corpus(path: str, n_docs: int, seed: int) -> None:
    rng = random.Random(seed)
    with open(path, "w", encoding="utf-8") as out:
        previous_text = None
        for i in range(n_docs):
            row = {"id": f"demo-{i:05d}"}
            roll = rng.random()
            if roll < 0.08 and previous_text is not None:
                # near-duplicate: same content, shouty casing
                row["text"] = previous_text.upper()
            elif roll < 0.14:
                row["text"] = " ".join(rng.choice(_ENGLISH) for _ in range(rng.randint(12, 20)))
            elif roll < 0.20:
                row["text"] = " ".join(rng.choice(_WORDS) for _ in range(rng.randint(2, 6)))
            else:
                sentences = []
                for _ in range(rng.randint(1, 4)):
                    words = [rng.choice(_WORDS) for _ in range(rng.randint(8, 16))]
                    words[0] = words[0].capitalize()
                    sentences.append(" ".join(words) + ".")
                text = "\n".join(sentences)
                previous_text = text
                row["text"] = text
                if rng.random() < 0.3:
                    row["text"] = f"<p>{text}</p>"
                elif rng.random() < 0.5:
                    row["lemmas"] = [_lemma(token) for token in text.split()]
            out.write(json_line(row))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--input", default=None, help="existing json-lines corpus")
    parser.add_argument("--out-dir", default="demo-out")
    parser.add_argument("--n-docs", type=int, default=400, help="synthetic corpus size")
    parser.add_argument("--vocab-size", type=int, default=800)
    parser.add_argument("--max-seq-length", type=int, default=64)
    parser.add_argument("--dupe-factor", type=int, default=2)
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--show", type=int, default=3, help="examples to print")
    args = parser.parse_args(argv)

    os.makedirs(args.out_dir, exist_ok=True)
    input_path = args.input
    if input_path is None:
        input_path = os.path.join(args.out_dir, "demo-corpus.jsonl")
        synthesize_corpus(input_path, args.n_docs, args.seed)
        print(f"synthesized {args.n_docs} documents -> {input_path}")

    config = PipelineConfig(
        input_path=input_path,
        out_dir=args.out_dir,
        vocab_size=args.vocab_size,
        generation=GenerationConfig(
            max_seq_length=args.max_seq_length,
            dupe_factor=args.dupe_factor,
            seed=args.seed,
        ),
    )
    report = run_pipeline(config)

    print()
    print(report.table())
    print()
    drops = ", ".join(f"{k}: {v}" for k, v in report.drops_by_reason.items()) or "none"
    print(f"drops:     {drops}")
    print(f"instances: {report.instances} over {len(report.artifacts['shards'])} shards")

    print(f"\nfirst {args.show} serialized examples (ids truncated to 16):")
    for i, example in enumerate(read_tfrecords(report.artifacts["shards"])):
        if i >= args.show:
            break
        print(f"  input_ids[:16]={list(example.input_ids[:16])} "
              f"next_sentence={example.next_sentence_labels} "
              f"masked_at={list(example.masked_lm_positions[:6])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
