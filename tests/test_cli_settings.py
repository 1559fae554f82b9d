"""Each setting is declared once: subcommands take only the flags they read,
and every default comes from its dataclass."""

from __future__ import annotations

import argparse
import os

import pytest

from corpusprep.cli import build_parser, main
from corpusprep.config import PipelineConfig, parse_config_text

# every subcommand's option strings (without -h/--help), in parser order; a
# shared flag added to a subcommand whose handler ignores it fails here
OPTIONS = {
    "stats": ["--format", "--report"],
    "clean": ["--format", "--output-format"],
    "dedup": ["--format", "--report", "--output-format"],
    "filter": [
        "--format", "--report", "--output-format", "--target-lang", "--min-words",
        "--max-stopword-ratio", "--max-punct-ratio", "--lang-confidence-min", "--stopwords",
        "--no-language", "--no-heuristics",
    ],
    "truecase": ["--format", "--output-format", "--lexicon", "--save-lexicon"],
    "bpe-train": ["--format", "--vocab-size", "--vocab", "--merges"],
    "bpe-encode": ["--input", "--vocab", "--merges", "--pieces"],
    "make-examples": [
        "--format", "--workers", "--vocab", "--merges", "--out-dir", "--max-seq-length",
        "--masked-lm-prob", "--random-next-prob", "--short-seq-prob", "--dupe-factor",
        "--shards", "--seed",
    ],
    "read-examples": ["--limit"],
    "score-tags": ["--report"],
    "score-ner": ["--report"],
    "score-cls": ["--report"],
    "run": [
        "--workers", "--config", "--input", "--out-dir", "--vocab-size", "--max-seq-length",
        "--dupe-factor", "--shards", "--report", "--seed",
    ],
}


def _write_config(tmp_path, input_path) -> str:
    config = tmp_path / "job.conf"
    config.write_text(
        f"[input]\npath = {input_path}\n[output]\ndir = {tmp_path / 'out'}\n"
        "[vocab]\nvocab_size = 300\n"
        "[examples]\nmax_seq_length = 32\ndupe_factor = 2\nshards = 2\nseed = 7\n",
        encoding="utf-8",
    )
    return str(config)


def test_subcommand_option_strings():
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    found = {
        name: [s for a in sub._actions for s in a.option_strings if s not in ("-h", "--help")]
        for name, sub in subparsers.choices.items()
    }
    assert found == OPTIONS


@pytest.mark.parametrize(
    "argv",
    [
        ["clean", "{corpus}", "{tmp}/cleaned.jsonl", "--report", "{tmp}/r.jsonl"],
        ["run", "--config", "{config}", "--format", "vert-xml"],
        ["read-examples", "{tmp}/absent.tfrecord", "--seed", "1"],
    ],
    ids=["clean-report", "run-format", "read-examples-seed"],
)
def test_removed_flag_exits_1_and_writes_nothing(argv, capsys, tmp_path, fixture_corpus_path):
    config = _write_config(tmp_path, fixture_corpus_path)
    before = sorted(os.listdir(tmp_path))
    argv = [a.format(corpus=fixture_corpus_path, tmp=tmp_path, config=config) for a in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "unrecognized arguments" in captured.err
    assert captured.out == ""
    assert sorted(os.listdir(tmp_path)) == before


def test_run_honors_abbreviated_seed(capsys, tmp_path, fixture_corpus_path):
    config = _write_config(tmp_path, fixture_corpus_path)
    shards = {}
    for name, extra in {
        "default": [],
        "seed": ["--seed", "99"],
        "abbreviated": ["--se", "99"],
    }.items():
        out_dir = str(tmp_path / name)
        assert main(["run", "--config", config, "--out-dir", out_dir, *extra]) == 0
        capsys.readouterr()
        with open(os.path.join(out_dir, "pretrain-0-of-2.tfrecord"), "rb") as handle:
            shards[name] = handle.read()
    assert shards["abbreviated"] == shards["seed"]
    assert shards["abbreviated"] != shards["default"]


def test_minimal_config_takes_every_default_from_the_dataclasses():
    config = parse_config_text("[input]\npath = corpus.jsonl\n")
    assert config == PipelineConfig(input_path="corpus.jsonl")


@pytest.mark.parametrize(
    "argv, messages",
    [
        (
            ["filter", "{corpus}", "{tmp}/kept.jsonl", "--min-words", "0",
             "--max-punct-ratio", "2"],
            ["max_punct_ratio must be in [0, 1], got 2", "min_words must be >= 1, got 0"],
        ),
        (
            ["make-examples", "{corpus}", "--vocab", "{tmp}/absent.txt", "--merges",
             "{tmp}/absent.txt", "--out-dir", "{tmp}/shards", "--shards", "0",
             "--masked-lm-prob", "1.5", "--max-seq-length", "4"],
            ["masked_lm_prob must be in [0, 1], got 1.5", "max_seq_length must be >= 5, got 4",
             "shards must be in [1, 512], got 0"],
        ),
    ],
    ids=["filter", "make-examples"],
)
def test_out_of_range_flags_listed_together(argv, messages, capsys, tmp_path,
                                            fixture_corpus_path):
    argv = [a.format(corpus=fixture_corpus_path, tmp=tmp_path) for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"invalid value: {'; '.join(messages)}\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "argv, err",
    [
        (["run", "--config", "{config}", "--shards", "513"],
         "config error: examples.shards must be in [1, 512], got 513\n"),
        (["make-examples", "{corpus}", "--vocab", "{tmp}/absent.txt", "--merges",
          "{tmp}/absent.txt", "--out-dir", "{tmp}/shards", "--shards", "513"],
         "invalid value: shards must be in [1, 512], got 513\n"),
    ],
    ids=["run", "make-examples"],
)
def test_shard_count_above_512_exits_1_before_any_work(argv, err, capsys, tmp_path,
                                                       fixture_corpus_path):
    config = _write_config(tmp_path, fixture_corpus_path)
    argv = [a.format(corpus=fixture_corpus_path, tmp=tmp_path, config=config) for a in argv]
    assert main(argv) == 1
    assert capsys.readouterr().err == err
    assert os.listdir(tmp_path) == ["job.conf"]


def test_non_utf8_config_exits_1_naming_it(capsys, tmp_path):
    config = tmp_path / "job.conf"
    config.write_bytes(b"[input]\npath = caf\xe9.jsonl\n")
    assert main(["run", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config file: cannot decode {config}: ")
