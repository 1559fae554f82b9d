"""One measured process of the benchmark; ``run.py`` starts a fresh one each time.

    python3 perfbench/child.py setup
    python3 perfbench/child.py run [--trace] -- <corpusprep run arguments>
    python3 perfbench/child.py readback [--trace] <passes> <shard> ...

``setup`` times importing corpusprep and loading its packaged resources.
``run`` times ``cli.main(["run", ...])``; ``readback`` times reading every
shard record through ``read_tfrecords``, ``passes`` times over.  With ``--trace`` the public
functions of each layer are wrapped first (see tracer.py).  The result is
one JSON object on the last line of standard output.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer, install, own_peak_mb  # noqa: E402


def _rusage():
    """CPU seconds of this process and its reaped children, and peak RSS in MB.

    The peak is the larger of this process's own high-water mark and that
    of its largest child (pool workers).
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(own_peak_mb(), kids.ru_maxrss / 1024.0)


def _run_hooks(tracer: Tracer):
    from corpusprep import bpe, cli, pipeline, pretrain

    def merges(vocab):
        tracer.count("bpe.merges", len(vocab.merges))
        tracer.mark_peak("bpe.train")

    def frame_bytes(record):
        tracer.count("tfrecord.bytes_written", len(record))

    return [
        (cli, "main", "cli.main", False, None),
        (cli, "run_pipeline", "pipeline.run", False, None),
        (pipeline, "_clean_stream", "pipeline.clean_stream", True, None),
        (pipeline, "read_documents", "ingest.read", True, None),
        (pipeline, "write_documents", "ingest.write", False, None),
        (pipeline, "strip_markup", "cleaning.strip", False, None),
        (pipeline, "dedup_key", "cleaning.dedup", False, None),
        (pipeline, "heuristic_filter", "cleaning.heuristics", False, None),
        (pipeline, "default_stopwords", "cleaning.stopwords", False, None),
        (pipeline, "detect_language", "langid.detect", False, None),
        (pipeline, "default_profiles", "langid.profiles", False, None),
        (pipeline, "build_casing_lexicon", "truecase.lexicon", False, None),
        (pipeline, "truecase", "truecase.apply", False, None),
        (pipeline, "train_bpe", "bpe.train", False, merges),
        (bpe.Vocab, "save", "bpe.save", False, None),
        (pretrain, "encode", "bpe.encode", False, None),
        (pipeline, "tokenize_documents", "pretrain.tokenize", False,
         lambda _docs: tracer.mark_peak("pretrain.tokenize")),
        (pipeline, "build_instances", "pretrain.instances", True, None),
        (pipeline, "serialize_example", "pretrain.serialize", False, None),
        (pipeline, "write_tfrecords", "pretrain.write", False, None),
        (pretrain, "example_payload", "pretrain.payload", False, None),
        (pretrain, "frame_record", "tfrecord.frame", False, frame_bytes),
    ]


def _readback_hooks(tracer: Tracer):
    from corpusprep import pretrain

    return [
        (pretrain, "read_framed", "tfrecord.read", True, None),
        (pretrain, "parse_example", "tfrecord.parse", False, None),
    ]


def _trace_result(tracer: Tracer) -> dict:
    return {"spans": tracer.spans, "counts": tracer.counts, "peak_mb": tracer.peak_mb}


def setup() -> dict:
    start = time.perf_counter()
    import corpusprep  # noqa: F401
    from corpusprep.cleaning import default_stopwords
    from corpusprep.langid import default_profiles

    default_profiles()
    default_stopwords()
    return {"setup_s": time.perf_counter() - start}


def run(argv, traced: bool) -> dict:
    from corpusprep import cli

    tracer = Tracer()
    if traced:
        install(tracer, _run_hooks(tracer))
    cpu0, _ = _rusage()
    start = time.perf_counter()
    code = cli.main(argv)
    wall = time.perf_counter() - start
    cpu1, peak = _rusage()
    result = {"exit": code, "wall_s": wall, "cpu_s": cpu1 - cpu0, "peak_rss_mb": peak}
    if traced:
        result["trace"] = _trace_result(tracer)
    return result


def readback(passes: int, paths, traced: bool) -> dict:
    """Seconds per pass over every record of ``paths``, averaged over ``passes``."""
    from corpusprep import pretrain

    tracer = Tracer()
    if traced:
        install(tracer, _readback_hooks(tracer))
    records = 0
    start = time.perf_counter()
    for _ in range(passes):
        records = 0
        for _example in pretrain.read_tfrecords(paths):
            records += 1
    seconds = (time.perf_counter() - start) / passes
    _, peak = _rusage()
    result = {"records": records, "readback_s": seconds, "readback_rss_mb": peak}
    if traced:
        result["trace"] = _trace_result(tracer)
    return result


def main(argv) -> int:
    mode, rest = argv[0], argv[1:]
    traced = bool(rest) and rest[0] == "--trace"
    if traced:
        rest = rest[1:]
    if mode == "setup":
        result = setup()
    elif mode == "run":
        result = run(rest[1:] if rest[:1] == ["--"] else rest, traced)
    elif mode == "readback":
        result = readback(int(rest[0]), rest[1:], traced)
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
