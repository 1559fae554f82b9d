"""Chain the cleaning subcommands over a corpus and compare the result with ``run``'s.

    python3 scripts/check_stage_parity.py .perfbench-work/clean/corpus.jsonl .perfbench-work/clean/out

Runs ``clean``, ``filter --no-heuristics``, ``dedup``, ``filter
--no-language`` and ``truecase`` in turn, each on the previous one's
output, in a temporary directory.  The second argument is the output
directory of a ``corpusprep run`` over the same json-lines corpus with the
default stage settings.  Prints one line with the document and drop counts
and whether the chained output is byte-identical to its ``cleaned.jsonl``
and the chained ``--report`` lines, sorted, equal its ``drops.jsonl`` lines,
sorted.  Exits 0 when both hold, 1 when they do not.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from corpusprep.cli import main as corpusprep  # noqa: E402

# the stages of run's cleaning, in its order, as subcommands
STEPS = [
    ["clean"],
    ["filter", "--no-heuristics"],
    ["dedup"],
    ["filter", "--no-language"],
    ["truecase"],
]


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("corpus", help="json-lines corpus file")
    parser.add_argument("run_out_dir", help="output directory of corpusprep run on the corpus")
    args = parser.parse_args(argv)

    drops = []
    with tempfile.TemporaryDirectory() as work:
        src = args.corpus
        for step, (command, *flags) in enumerate(STEPS):
            dst = os.path.join(work, f"{step}-{command}.jsonl")
            report = os.path.join(work, f"{step}-drops.jsonl")
            argv = [command, src, dst, *flags]
            if command in ("dedup", "filter"):
                argv += ["--report", report]
            with contextlib.redirect_stdout(io.StringIO()):
                code = corpusprep(argv)
            if code != 0:
                print(f"{' '.join([command, *flags])} exited {code}")
                return 1
            if os.path.exists(report):
                drops += _read(report).splitlines()
            src = dst
        chained = _read(src)

    cleaned = chained == _read(os.path.join(args.run_out_dir, "cleaned.jsonl"))
    run_drops = _read(os.path.join(args.run_out_dir, "drops.jsonl")).splitlines()
    same_drops = sorted(drops) == sorted(run_drops)
    print(
        f"documents={len(chained.splitlines())} drops={len(drops)} run_drops={len(run_drops)} "
        f"cleaned={'identical' if cleaned else 'different'} "
        f"drops={'same' if same_drops else 'different'}"
    )
    return 0 if cleaned and same_drops else 1


if __name__ == "__main__":
    raise SystemExit(main())
