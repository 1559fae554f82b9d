"""Command-line interface: every pipeline stage as a subcommand.

Exit codes: 0 on success, 1 for validation problems (bad flags, bad config,
malformed values), 2 for runtime failures (unreadable inputs, corrupt
records, stage errors).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

from . import bpe, metrics
from .config import (
    FilterThresholds, GenerationConfig, PipelineConfig, bound_errors, numeric_fields,
    validate_config,
)
from .errors import ConfigError, MalformedRecord, PipelineError, StageError
from .ingest import (
    FORMATS, compute_stats, open_output, read_documents, read_lines, refuse_shared_files,
    write_jsonl,
)
from .pipeline import clean_file, run_pipeline, truecase_file, with_stopwords, write_examples
from .pretrain import read_tfrecords


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad arguments; flag problems are validation (1)."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _path(value: str) -> str:
    if not value:  # as for an empty config value
        raise argparse.ArgumentTypeError("must not be empty")
    return value


# flags several subcommands take; each subcommand names the ones its handler reads
_SHARED_FLAGS: Dict[str, dict] = {
    "--format": dict(choices=FORMATS, default=PipelineConfig.input_format, help="input format"),
    "--report": dict(type=_path, help="json-lines report path"),
    "--workers": dict(type=int, default=1, help="parallel workers"),
}


def _add_field_flags(parser: argparse.ArgumentParser, cls) -> None:
    """One --flag per numeric field of the dataclass, typed and defaulted by it."""
    for f in numeric_fields(cls):
        flag = "--" + f.name.replace("_", "-")
        parser.add_argument(flag, type=type(f.default), default=f.default)


def _from_args(cls, args):
    return cls(**{f.name: getattr(args, f.name) for f in numeric_fields(cls)})


def _write_report_lines(path: Optional[str], records: List[dict]) -> None:
    if path is not None:
        write_jsonl(records, path)


def _cmd_stats(args) -> int:
    refuse_shared_files([("input", args.input)], [("report", args.report)])
    stats = compute_stats(read_documents(args.input, args.format))
    _write_report_lines(args.report, [{"type": "stats", **stats.as_dict()}])
    print(f"documents {stats.documents}  sentences {stats.sentences}  words {stats.words}")
    return 0


def _clean_file(args, stages, thresholds=FilterThresholds(), target_lang=None) -> Tuple[int, int]:
    """Run cleaning stages over args.input into args.output, drops to --report; (kept, dropped)."""
    kept, drops = clean_file(args.input, args.format, args.output, args.output_format, stages,
                             thresholds, target_lang, getattr(args, "report", None))
    return kept, sum(drops.values())


def _cmd_clean(args) -> int:
    count, _ = _clean_file(args, ["strip"])
    print(f"cleaned {count} documents -> {args.output}")
    return 0


def _cmd_dedup(args) -> int:
    kept, dropped = _clean_file(args, ["dedup"])
    print(f"kept {kept} documents, dropped {dropped} duplicates -> {args.output}")
    return 0


def _cmd_filter(args) -> int:
    refuse_shared_files([("stopword list", args.stopwords)],
                        [("output", args.output), ("drop log", args.report)])
    thresholds = _from_args(FilterThresholds, args)
    stages = [] if args.no_language else ["langfilter"]
    if not args.no_heuristics:  # a disabled heuristics stage loads no stopword list
        thresholds = with_stopwords(thresholds, args.stopwords)
        stages.append("heuristics")
    kept, dropped = _clean_file(args, stages, thresholds, args.target_lang)
    print(f"kept {kept} documents, dropped {dropped} -> {args.output}")
    return 0


def _cmd_truecase(args) -> int:
    refuse_shared_files([("input", args.input), ("output", args.output)],
                        [("saved lexicon", args.save_lexicon)])
    # the output may be the input, not the lexicon it is cased by
    refuse_shared_files([("lexicon", args.lexicon)], [("output", args.output)])
    # the lexicon file is opened first, so it and the output appear together or not at all
    with open_output(args.save_lexicon or os.devnull) as lexicon_out:
        count, lexicon = truecase_file(
            args.input, args.format, args.output, args.output_format, args.lexicon
        )
        if args.save_lexicon:
            lexicon.write(lexicon_out)
    print(f"truecased {count} documents with {len(lexicon)} lexicon entries -> {args.output}")
    return 0


def _cmd_bpe_train(args) -> int:
    errors = bound_errors(PipelineConfig, vars(args))
    if errors:
        raise ValueError("; ".join(errors))
    refuse_shared_files([("input", args.input)], [("vocab", args.vocab), ("merges", args.merges)])
    vocab = bpe.train_bpe(read_documents(args.input, args.format), args.vocab_size)
    vocab.save(args.vocab, args.merges)
    print(f"trained {len(vocab)} pieces, {len(vocab.merges)} merges -> {args.vocab}")
    return 0


def _cmd_bpe_encode(args) -> int:
    if not args.text and not args.input:
        print("bpe-encode: give text arguments or --input FILE", file=sys.stderr)
        return 1
    vocab = bpe.Vocab.load(args.vocab, args.merges)
    lines = [" ".join(args.text)] if args.text else [line for _, line in read_lines(args.input)]
    for line in lines:
        ids = bpe.encode(line, vocab)
        if args.pieces:
            print(" ".join(vocab.pieces[i] for i in ids))
        else:
            print(" ".join(str(i) for i in ids))
    return 0


def _cmd_make_examples(args) -> int:
    config = _from_args(GenerationConfig, args)
    vocab = bpe.Vocab.load(args.vocab, args.merges)
    docs = read_documents(args.input, args.format)
    paths, count = write_examples(docs, vocab, config, args.out_dir, args.workers)
    print(f"wrote {count} examples into {len(paths)} shards under {args.out_dir}")
    return 0


def _cmd_read_examples(args) -> int:
    if args.limit < 0:
        raise ValueError(f"--limit must be >= 0, got {args.limit}")
    shown = 0
    for example in read_tfrecords(args.shards):
        print(json.dumps(dataclasses.asdict(example)))
        shown += 1
        if args.limit and shown >= args.limit:
            break
    return 0


def _cmd_score_tags(args) -> int:
    refuse_shared_files([("input", args.input)], [("report", args.report)])
    sequences = metrics.read_conll(args.input)
    gold = [g for _, g, _ in sequences]
    pred = [p for _, _, p in sequences]
    accuracy = metrics.tagging_accuracy(gold, pred)
    _write_report_lines(args.report, [{"type": "tagging", "accuracy": round(accuracy, 6)}])
    print(f"accuracy: {100.0 * accuracy:.2f}%")
    return 0


def _cmd_score_ner(args) -> int:
    refuse_shared_files([("input", args.input)], [("report", args.report)])
    sequences = metrics.read_conll(args.input)
    gold = [g for _, g, _ in sequences]
    pred = [p for _, _, p in sequences]
    report = metrics.ner_span_f1(gold, pred)
    tokens = sum(len(g) for g in gold)
    _write_report_lines(args.report, metrics.span_report_records(report))
    sys.stdout.write(metrics.render_span_report(report, tokens))
    return 0


def _cmd_score_cls(args) -> int:
    refuse_shared_files([("input", args.input)], [("report", args.report)])
    pairs: List[List[str]] = []
    for line_no, line in read_lines(args.input):
        if not line.strip():
            continue
        pairs.append(line.split("\t"))
        if len(pairs[-1]) != 2:
            raise MalformedRecord(line_no, "expected gold<TAB>pred")
    accuracy = metrics.classification_accuracy([g for g, _ in pairs], [p for _, p in pairs])
    _write_report_lines(args.report, [{"type": "classification", "accuracy": round(accuracy, 6)}])
    print(f"accuracy: {100.0 * accuracy:.2f}%")
    return 0


# run flag -> the config key it overrides when given
_OVERRIDE_FLAGS: Dict[str, Tuple[str, str]] = {
    "input": ("input", "path"),
    "out_dir": ("output", "dir"),
    "vocab_size": ("vocab", "vocab_size"),
    "max_seq_length": ("examples", "max_seq_length"),
    "dupe_factor": ("examples", "dupe_factor"),
    "shards": ("examples", "shards"),
    "report": ("output", "report"),
    "seed": ("examples", "seed"),
}


def _cmd_run(args) -> int:
    overrides = {
        key: getattr(args, flag)
        for flag, key in _OVERRIDE_FLAGS.items()
        if getattr(args, flag) is not None
    }
    config = validate_config(args.config, overrides)
    report = run_pipeline(config, workers=args.workers)
    print(report.table())
    drops = ", ".join(f"{k}: {v}" for k, v in report.drops_by_reason.items()) or "none"
    print(f"drops: {drops}")
    print(f"instances: {report.instances}")
    print(f"report: {report.artifacts['report']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="corpusprep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str, shared=()) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        for flag in shared:
            p.add_argument(flag, **_SHARED_FLAGS[flag])
        p.set_defaults(func=func)
        return p

    p = add("stats", _cmd_stats, "corpus document/sentence/word counts", ["--format", "--report"])
    p.add_argument("input")

    for name, func, help_text, shared in [
        ("clean", _cmd_clean, "strip markup from every document", ["--format"]),
        ("dedup", _cmd_dedup, "drop exact duplicates after lowercasing", ["--format", "--report"]),
        ("filter", _cmd_filter, "language and quality filtering", ["--format", "--report"]),
        ("truecase", _cmd_truecase, "rewrite tokens to canonical casing", ["--format"]),
    ]:
        p = add(name, func, help_text, shared)
        p.add_argument("input")
        p.add_argument("output")
        p.add_argument("--output-format", choices=FORMATS, default="json-lines")
        if name == "filter":
            p.add_argument("--target-lang", default=PipelineConfig.target_lang)
            _add_field_flags(p, FilterThresholds)
            p.add_argument("--stopwords", type=_path, help="stopword list path")
            p.add_argument("--no-language", action="store_true")
            p.add_argument("--no-heuristics", action="store_true")
        if name == "truecase":
            p.add_argument("--lexicon", type=_path, help="casing lexicon TSV")
            p.add_argument("--save-lexicon", type=_path)

    p = add("bpe-train", _cmd_bpe_train, "learn a subword vocabulary", ["--format"])
    p.add_argument("input")
    _add_field_flags(p, PipelineConfig)  # --vocab-size
    p.add_argument("--vocab", type=_path, default="vocab.txt")
    p.add_argument("--merges", type=_path, default="merges.txt")

    p = add("bpe-encode", _cmd_bpe_encode, "encode text to piece ids")
    p.add_argument("text", nargs="*")
    p.add_argument("--input", type=_path, help="file of lines to encode")
    p.add_argument("--vocab", type=_path, required=True)
    p.add_argument("--merges", type=_path, required=True)
    p.add_argument("--pieces", action="store_true", help="print pieces, not ids")

    shared = ["--format", "--workers"]
    p = add("make-examples", _cmd_make_examples, "generate MLM/NSP TFRecord shards", shared)
    p.add_argument("input")
    p.add_argument("--vocab", type=_path, required=True)
    p.add_argument("--merges", type=_path, required=True)
    p.add_argument("--out-dir", type=_path, default=PipelineConfig.out_dir)
    _add_field_flags(p, GenerationConfig)

    p = add("read-examples", _cmd_read_examples, "decode shard files to json-lines")
    p.add_argument("shards", nargs="+")
    p.add_argument("--limit", type=int, default=0)

    for name, func in [
        ("score-tags", _cmd_score_tags),
        ("score-ner", _cmd_score_ner),
        ("score-cls", _cmd_score_cls),
    ]:
        p = add(name, func, f"evaluate predictions ({name.split('-')[1]})", ["--report"])
        p.add_argument("input")

    p = add("run", _cmd_run, "full pipeline from a config file", ["--workers"])
    p.add_argument("--config", required=True)
    for flag in _OVERRIDE_FLAGS:
        p.add_argument("--" + flag.replace("_", "-"))

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "workers", 1) < 1:
            raise ValueError(f"--workers must be >= 1, got {args.workers}")
        return args.func(args)
    except ConfigError as exc:
        for diagnostic in exc.diagnostics:
            print(f"config error: {diagnostic}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"invalid value: {exc}", file=sys.stderr)
        return 1
    except StageError as exc:
        print(f"stage {exc.stage} failed: {exc.cause}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except PipelineError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
