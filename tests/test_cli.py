"""Command-line behaviour: every subcommand, exit codes, printed output.

Commands run in-process through ``main(argv)`` so the suite stays fast; a
single subprocess check at the end proves the installed console script is
wired to the same entry point.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import stat
import subprocess
import sys
import tracemalloc

import pytest

from corpusprep.cli import main


def _write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, ensure_ascii=False) + "\n")
    return str(path)


def _read_lines(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


ET_SENTENCE = "Meie pere elab väikeses majas metsa serval järve lähedal vaikuses ja rahus."


class TestStats:
    def test_prints_counts_and_writes_report(self, capsys, tmp_path, fixture_corpus_path):
        report = str(tmp_path / "stats.jsonl")
        assert main(["stats", fixture_corpus_path, "--report", report]) == 0
        out = capsys.readouterr().out
        assert out.strip() == "documents 12  sentences 20  words 206"
        assert _read_lines(report) == [
            {"type": "stats", "documents": 12, "sentences": 20, "words": 206}
        ]

    def test_missing_input_exits_2(self, capsys, tmp_path):
        assert main(["stats", str(tmp_path / "absent.jsonl")]) == 2
        assert "error" in capsys.readouterr().err


class TestClean:
    def test_strips_markup(self, capsys, tmp_path):
        src = _write_jsonl(
            tmp_path / "in.jsonl",
            [
                {"id": "a", "text": "<p>tere <b>kallis</b> sõber</p>"},
                {"id": "b", "text": "puhas tekst siin"},
            ],
        )
        dst = str(tmp_path / "out.jsonl")
        assert main(["clean", src, dst]) == 0
        assert f"cleaned 2 documents -> {dst}" in capsys.readouterr().out
        rows = _read_lines(dst)
        assert rows[0]["text"] == "tere kallis sõber"
        assert rows[1]["text"] == "puhas tekst siin"


class TestDedup:
    def test_drops_case_variants_and_reports(self, capsys, tmp_path):
        src = _write_jsonl(
            tmp_path / "in.jsonl",
            [
                {"id": "a", "text": "Tere tulemast koju"},
                {"id": "b", "text": "hoopis teine jutt"},
                {"id": "c", "text": "TERE  tulemast   koju"},
            ],
        )
        dst = str(tmp_path / "out.jsonl")
        report = str(tmp_path / "drops.jsonl")
        assert main(["dedup", src, dst, "--report", report]) == 0
        assert "kept 2 documents, dropped 1 duplicates" in capsys.readouterr().out
        assert [row["id"] for row in _read_lines(dst)] == ["a", "b"]
        (drop,) = _read_lines(report)
        assert drop["id"] == "c"
        assert drop["reason"] == "Duplicate"


class TestFilter:
    def test_language_and_heuristics(self, capsys, tmp_path):
        src = _write_jsonl(
            tmp_path / "in.jsonl",
            [
                {"id": "et-long", "text": ET_SENTENCE},
                {"id": "en", "text": "The quick brown fox jumps over the lazy dog again today."},
                {"id": "short", "text": "Tere kallid sõbrad!"},
            ],
        )
        dst = str(tmp_path / "out.jsonl")
        report = str(tmp_path / "drops.jsonl")
        assert main(["filter", src, dst, "--report", report]) == 0
        assert [row["id"] for row in _read_lines(dst)] == ["et-long"]
        drops = {row["id"]: row for row in _read_lines(report)}
        assert drops["en"]["reason"] == "NonTargetLanguage"
        assert drops["en"]["detail"]["lang"] == "en"
        assert drops["short"]["reason"] == "TooFewWords"
        capsys.readouterr()

    def test_no_language_flag_skips_detection(self, capsys, tmp_path):
        src = _write_jsonl(
            tmp_path / "in.jsonl",
            [{"id": "en", "text": "The quick brown fox jumps over the lazy dog again today."}],
        )
        dst = str(tmp_path / "out.jsonl")
        assert main(["filter", src, dst, "--no-language"]) == 0
        assert [row["id"] for row in _read_lines(dst)] == ["en"]
        capsys.readouterr()

    def test_min_words_override(self, capsys, tmp_path):
        src = _write_jsonl(tmp_path / "in.jsonl", [{"id": "short", "text": "Tere kallid sõbrad!"}])
        dst = str(tmp_path / "out.jsonl")
        assert main(["filter", src, dst, "--min-words", "2", "--no-language"]) == 0
        assert [row["id"] for row in _read_lines(dst)] == ["short"]
        capsys.readouterr()


class TestTruecase:
    def test_builds_lexicon_from_lemmas_and_saves_it(self, capsys, tmp_path):
        src = _write_jsonl(
            tmp_path / "in.jsonl",
            [
                {
                    "id": "a",
                    "text": "Täna paistab päike ja Tallinn särab",
                    "lemmas": ["täna", "paistma", "päike", "ja", "Tallinn", "särama"],
                }
            ],
        )
        dst = str(tmp_path / "out.jsonl")
        lex = str(tmp_path / "casing.tsv")
        assert main(["truecase", src, dst, "--save-lexicon", lex]) == 0
        (row,) = _read_lines(dst)
        assert row["text"] == "täna paistab päike ja Tallinn särab"
        with open(lex, encoding="utf-8") as handle:
            entries = dict(line.split("\t")[:2] for line in handle)
        assert entries["tallinn"] == "Tallinn"
        assert entries["täna"] == "täna"
        assert capsys.readouterr().out == f"truecased 1 documents with 6 lexicon entries -> {dst}\n"

    def test_external_lexicon_flag(self, capsys, tmp_path):
        lex = tmp_path / "casing.tsv"
        lex.write_text("tallinn\tTallinn\t3\n", encoding="utf-8")
        src = _write_jsonl(tmp_path / "in.jsonl", [{"id": "a", "text": "nägin tallinn eile"}])
        dst = str(tmp_path / "out.jsonl")
        assert main(["truecase", src, dst, "--lexicon", str(lex)]) == 0
        (row,) = _read_lines(dst)
        assert row["text"] == "nägin Tallinn eile"
        capsys.readouterr()

    def test_unannotated_input_without_lexicon_exits_2(self, capsys, tmp_path,
                                                        fixture_corpus_path):
        rows = _no_lemmas(_read_lines(fixture_corpus_path))
        src = _write_jsonl(tmp_path / "in.jsonl", rows)
        dst = tmp_path / "out.jsonl"
        assert main(["truecase", src, str(dst)]) == 2
        assert "stage truecase failed" in capsys.readouterr().err
        assert not dst.exists()


class TestBpe:
    def test_train_then_encode_ids_and_pieces(self, capsys, tmp_path):
        src = _write_jsonl(
            tmp_path / "corpus.jsonl",
            [{"id": "a", "text": "kala maja kala maja kala jala"}],
        )
        vocab_path = str(tmp_path / "vocab.txt")
        merges_path = str(tmp_path / "merges.txt")
        assert main([
            "bpe-train", src,
            "--vocab-size", "20",
            "--vocab", vocab_path,
            "--merges", merges_path,
        ]) == 0
        assert "trained 20 pieces" in capsys.readouterr().out

        assert main([
            "bpe-encode", "kala", "maja",
            "--vocab", vocab_path, "--merges", merges_path,
        ]) == 0
        ids_line = capsys.readouterr().out.strip()
        ids = [int(tok) for tok in ids_line.split()]
        assert ids, "encoder printed no ids"

        assert main([
            "bpe-encode", "kala", "maja",
            "--vocab", vocab_path, "--merges", merges_path, "--pieces",
        ]) == 0
        pieces_line = capsys.readouterr().out.strip()
        assert "".join(pieces_line.split()).replace("▁", " ").strip() == "kala maja"

    def test_encode_from_file(self, capsys, tmp_path):
        src = _write_jsonl(tmp_path / "corpus.jsonl", [{"id": "a", "text": "aa ab aa ab"}])
        vocab_path = str(tmp_path / "vocab.txt")
        merges_path = str(tmp_path / "merges.txt")
        assert main(["bpe-train", src, "--vocab-size", "12",
                     "--vocab", vocab_path, "--merges", merges_path]) == 0
        capsys.readouterr()
        lines = tmp_path / "lines.txt"
        lines.write_text("aa ab\nab aa\n", encoding="utf-8")
        assert main(["bpe-encode", "--input", str(lines),
                     "--vocab", vocab_path, "--merges", merges_path]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 2 and out[0] != out[1]

    def test_encode_without_text_or_input_exits_1(self, capsys, tmp_path):
        vocab_path = str(tmp_path / "vocab.txt")
        merges_path = str(tmp_path / "merges.txt")
        src = _write_jsonl(tmp_path / "corpus.jsonl", [{"id": "a", "text": "aa bb"}])
        assert main(["bpe-train", src, "--vocab-size", "12",
                     "--vocab", vocab_path, "--merges", merges_path]) == 0
        capsys.readouterr()
        assert main(["bpe-encode", "--vocab", vocab_path, "--merges", merges_path]) == 1
        assert "give text arguments or --input" in capsys.readouterr().err


class TestExamples:
    def test_make_then_read_examples(self, capsys, tmp_path, fixture_corpus_path):
        vocab_path = str(tmp_path / "vocab.txt")
        merges_path = str(tmp_path / "merges.txt")
        assert main(["bpe-train", fixture_corpus_path, "--vocab-size", "300",
                     "--vocab", vocab_path, "--merges", merges_path]) == 0
        out_dir = str(tmp_path / "shards")
        assert main([
            "make-examples", fixture_corpus_path,
            "--vocab", vocab_path, "--merges", merges_path,
            "--out-dir", out_dir,
            "--max-seq-length", "32", "--dupe-factor", "2", "--shards", "2",
            "--seed", "7",
        ]) == 0
        out = capsys.readouterr().out
        assert "shards under" in out
        shard_files = sorted(os.listdir(out_dir))
        assert shard_files == ["pretrain-0-of-2.tfrecord", "pretrain-1-of-2.tfrecord"]

        paths = [os.path.join(out_dir, name) for name in shard_files]
        assert main(["read-examples", *paths, "--limit", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        record = json.loads(lines[0])
        assert set(record) == {
            "input_ids", "input_mask", "segment_ids",
            "masked_lm_positions", "masked_lm_ids", "masked_lm_weights",
            "next_sentence_labels",
        }
        assert len(record["input_ids"]) == 32
        assert record["next_sentence_labels"] in (0, 1)


class TestScorers:
    def test_score_tags_hand_arithmetic(self, capsys, tmp_path):
        path = tmp_path / "tags.tsv"
        path.write_text(
            "koer\tN\tN\njookseb\tV\tV\nkiiresti\tA\tV\n\nkass\tN\tN\nmagab\tV\tV\n",
            encoding="utf-8",
        )
        report = str(tmp_path / "tags.jsonl")
        assert main(["score-tags", str(path), "--report", report]) == 0
        assert capsys.readouterr().out.strip() == "accuracy: 80.00%"
        assert _read_lines(report) == [{"type": "tagging", "accuracy": 0.8}]

    def test_score_ner_matches_reference_rendering(self, capsys, data_dir, tmp_path):
        fixture = os.path.join(data_dir, "ner_fixture.tsv")
        golden = os.path.join(data_dir, "ner_golden.txt")
        report = str(tmp_path / "ner.jsonl")
        assert main(["score-ner", fixture, "--report", report]) == 0
        with open(golden, encoding="utf-8") as handle:
            assert capsys.readouterr().out == handle.read()
        rows = _read_lines(report)
        assert rows[-1]["type"] == "ALL"
        assert rows[-1]["f1"] == 55.56

    def test_score_cls_hand_arithmetic(self, capsys, tmp_path):
        path = tmp_path / "cls.tsv"
        path.write_text("pos\tpos\nneg\tpos\npos\tpos\nneg\tneg\n", encoding="utf-8")
        assert main(["score-cls", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "accuracy: 75.00%"

    @pytest.mark.parametrize("line", ["pos", "pos\tneg\tneg", "pos neg"])
    def test_score_cls_rejects_a_line_that_is_not_gold_tab_pred(self, capsys, tmp_path, line):
        path = tmp_path / "cls.tsv"
        path.write_text(f"pos\tpos\n\n{line}\nneg\tneg\n", encoding="utf-8")
        assert main(["score-cls", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: MalformedRecord: line 3: expected gold<TAB>pred\n"


def _write_config(path, input_path, out_dir) -> str:
    path.write_text(
        "\n".join(
            [
                "[input]",
                f"path = {input_path}",
                "[output]",
                f"dir = {out_dir}",
                "[vocab]",
                "vocab_size = 300",
                "[examples]",
                "max_seq_length = 32",
                "dupe_factor = 2",
                "shards = 2",
                "seed = 7",
                "",
            ]
        ),
        encoding="utf-8",
    )
    return str(path)


class TestRun:
    def test_full_pipeline_from_config(self, capsys, tmp_path, fixture_corpus_path):
        out_dir = str(tmp_path / "out")
        config = _write_config(tmp_path / "job.conf", fixture_corpus_path, out_dir)
        assert main(["run", "--config", config]) == 0
        out = capsys.readouterr().out
        assert f"{'metric':<12}{'before':>14}{'after':>14}" in out
        assert "instances:" in out
        assert "Duplicate: 2" in out
        for name in ("cleaned.jsonl", "drops.jsonl", "report.jsonl", "vocab.txt", "merges.txt"):
            assert os.path.exists(os.path.join(out_dir, name)), name

    def test_flag_overrides_win_over_config(self, capsys, tmp_path, fixture_corpus_path):
        out_a = str(tmp_path / "a")
        config = _write_config(tmp_path / "job.conf", fixture_corpus_path, out_a)
        out_b = str(tmp_path / "b")
        assert main(["run", "--config", config, "--out-dir", out_b, "--shards", "3"]) == 0
        capsys.readouterr()
        assert not os.path.exists(out_a)
        shard_names = sorted(
            name for name in os.listdir(out_b) if name.endswith(".tfrecord")
        )
        assert shard_names == [f"pretrain-{i}-of-3.tfrecord" for i in range(3)]

    def test_rerun_with_fewer_shards_removes_stale_shards(
        self, capsys, tmp_path, fixture_corpus_path
    ):
        out_dir = str(tmp_path / "out")
        config = _write_config(tmp_path / "job.conf", fixture_corpus_path, out_dir)
        assert main(["run", "--config", config, "--shards", "3"]) == 0
        assert main(["run", "--config", config, "--shards", "2"]) == 0
        capsys.readouterr()
        shards = sorted(glob.glob(os.path.join(out_dir, "pretrain-*.tfrecord")))
        assert [os.path.basename(path) for path in shards] == [
            "pretrain-0-of-2.tfrecord", "pretrain-1-of-2.tfrecord",
        ]
        summary = next(
            row for row in _read_lines(os.path.join(out_dir, "report.jsonl"))
            if row["type"] == "summary"
        )
        assert main(["read-examples", *shards]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == summary["instances"] > 0

    def test_seed_flag_only_counts_when_given(self, capsys, tmp_path, fixture_corpus_path):
        # same config seed spelled implicitly and explicitly must agree;
        # a different explicit seed must change the generated shards
        outs = {}
        for name, argv_extra in {
            "implicit": [],
            "explicit": ["--seed", "7"],
            "reseeded": ["--seed", "99"],
        }.items():
            out_dir = str(tmp_path / name)
            config = _write_config(tmp_path / f"{name}.conf", fixture_corpus_path, out_dir)
            assert main(["run", "--config", config, *argv_extra]) == 0
            capsys.readouterr()
            shard = os.path.join(out_dir, "pretrain-0-of-2.tfrecord")
            with open(shard, "rb") as handle:
                outs[name] = handle.read()
        assert outs["implicit"] == outs["explicit"]
        assert outs["implicit"] != outs["reseeded"]

    def test_bad_config_exits_1_with_diagnostics(self, capsys, tmp_path):
        config = tmp_path / "bad.conf"
        config.write_text("[input]\npath = x\nmaxseq = 4\n", encoding="utf-8")
        assert main(["run", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "config error:" in err
        assert "unknown key" in err

    def test_non_integer_override_is_a_config_error(self, capsys, tmp_path,
                                                    fixture_corpus_path):
        config = _write_config(tmp_path / "job.conf", fixture_corpus_path, tmp_path / "out")
        assert main(["run", "--config", config, "--vocab-size", "abc"]) == 1
        err = capsys.readouterr().err
        assert "config error:" in err
        assert "vocab_size" in err
        assert not (tmp_path / "out").exists()

    def test_stage_failure_exits_2_with_stage_name(self, capsys, tmp_path, fixture_corpus_path):
        config = tmp_path / "job.conf"
        config.write_text(
            f"[input]\npath = {fixture_corpus_path}\n"
            f"[output]\ndir = {tmp_path / 'out'}\n"
            f"[filter]\nstopwords = {tmp_path / 'absent.txt'}\n",
            encoding="utf-8",
        )
        assert main(["run", "--config", str(config)]) == 2
        assert "stage heuristics failed" in capsys.readouterr().err


def _no_lemmas(rows):
    return [{k: v for k, v in row.items() if k != "lemmas"} for row in rows]


# case -> (config lines appended, corpus rewrite, make out/cleaned.jsonl a directory, stage)
STAGE_FAILURES = {
    "stopwords-missing": (["[filter]", "stopwords = /nonexistent"], None, False, "heuristics"),
    "vocab-too-small": (["[vocab]", "vocab_size = 7"], None, False, "bpe"),
    "lexicon-missing": (["[truecase]", "lexicon = /nonexistent"], None, False, "truecase"),
    "no-lemmas-no-lexicon": ([], _no_lemmas, False, "truecase"),
    "cleaned-is-directory": (["[stages]", "truecase = false"], None, True, "output"),
    "one-document": (
        ["[filter]", "min_words = 1", "lang_confidence_min = 0"], lambda rows: rows[:1], False,
        "examples",
    ),
    "malformed-line": ([], lambda rows: rows + ["not json"], False, "ingest"),
}


@pytest.mark.parametrize("case", sorted(STAGE_FAILURES))
def test_run_names_failing_stage(case, capsys, tmp_path, fixture_corpus_path):
    extra, rewrite, cleaned_is_dir, stage = STAGE_FAILURES[case]
    corpus = fixture_corpus_path
    if rewrite is not None:
        rows = rewrite(_read_lines(fixture_corpus_path))
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            "".join((row if isinstance(row, str) else json.dumps(row)) + "\n" for row in rows),
            encoding="utf-8",
        )
    out_dir = tmp_path / "out"
    if cleaned_is_dir:
        os.makedirs(out_dir / "cleaned.jsonl")
    config = _write_config(tmp_path / "job.conf", corpus, out_dir)
    with open(config, "a", encoding="utf-8") as handle:
        handle.write("\n".join(extra) + "\n")
    assert main(["run", "--config", config]) == 2
    assert f"stage {stage} failed" in capsys.readouterr().err


NOT_UTF8 = {
    "json-lines": b'{"id": "a", "text": "\xff"}\n',
    "vert-xml": b'<doc id="a">\ntere \xff\n</doc>\n',
    "blankline-text": b"tere \xff\n",
}


@pytest.mark.parametrize("fmt", sorted(NOT_UTF8))
def test_non_utf8_corpus_exits_2(fmt, capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(NOT_UTF8[fmt])
    assert main(["stats", str(corpus), "--format", fmt]) == 2
    assert "UnreadableFile" in capsys.readouterr().err
    assert main(["clean", str(corpus), str(tmp_path / "clean.jsonl"), "--format", fmt]) == 2
    assert "stage ingest failed" in capsys.readouterr().err
    config = _write_config(tmp_path / "job.conf", corpus, tmp_path / "out")
    with open(config, "a", encoding="utf-8") as handle:
        handle.write(f"[input]\nformat = {fmt}\n")
    assert main(["run", "--config", config]) == 2
    assert "stage ingest failed" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, stage", [
    ("filter", "stopwords", "heuristics"),
    ("truecase", "lexicon", "truecase"),
])
def test_non_utf8_resource_names_its_stage(section, key, stage, capsys, tmp_path,
                                           fixture_corpus_path):
    resource = tmp_path / "resource.txt"
    resource.write_bytes(b"\xff\n")
    config = _write_config(tmp_path / "job.conf", fixture_corpus_path, tmp_path / "out")
    with open(config, "a", encoding="utf-8") as handle:
        handle.write(f"[{section}]\n{key} = {resource}\n")
    assert main(["run", "--config", config]) == 2
    assert f"stage {stage} failed" in capsys.readouterr().err


# subcommand -> argv whose {bad} text input is missing or not UTF-8
TEXT_INPUTS = {
    "stats": ["stats", "{bad}"],
    "filter-stopwords": ["filter", "{corpus}", "{tmp}/out.jsonl", "--stopwords", "{bad}"],
    "truecase-lexicon": ["truecase", "{corpus}", "{tmp}/out.jsonl", "--lexicon", "{bad}"],
    "bpe-encode-vocab": ["bpe-encode", "tere", "--vocab", "{bad}", "--merges", "{merges}"],
    "bpe-encode-merges": ["bpe-encode", "tere", "--vocab", "{vocab}", "--merges", "{bad}"],
    "bpe-encode-input": [
        "bpe-encode", "--input", "{bad}", "--vocab", "{vocab}", "--merges", "{merges}",
    ],
    "make-examples-vocab": [
        "make-examples", "{corpus}", "--vocab", "{bad}", "--merges", "{merges}",
        "--out-dir", "{tmp}/shards",
    ],
    "make-examples-merges": [
        "make-examples", "{corpus}", "--vocab", "{vocab}", "--merges", "{bad}",
        "--out-dir", "{tmp}/shards",
    ],
    "score-tags": ["score-tags", "{bad}"],
    "score-ner": ["score-ner", "{bad}"],
    "score-cls": ["score-cls", "{bad}"],
}


@pytest.mark.parametrize("fault", ["missing", "not-utf8"])
@pytest.mark.parametrize("case", sorted(TEXT_INPUTS))
def test_unreadable_text_input_exits_2_naming_it(case, fault, capsys, tmp_path,
                                                 fixture_corpus_path):
    vocab, merges = str(tmp_path / "vocab.txt"), str(tmp_path / "merges.txt")
    assert main(["bpe-train", fixture_corpus_path, "--vocab-size", "60",
                 "--vocab", vocab, "--merges", merges]) == 0
    bad = tmp_path / "bad.txt"
    if fault == "not-utf8":
        bad.write_bytes(b"tere\t\xff\n")
    argv = [
        arg.format(bad=bad, corpus=fixture_corpus_path, tmp=tmp_path, vocab=vocab, merges=merges)
        for arg in TEXT_INPUTS[case]
    ]
    capsys.readouterr()
    assert main(argv) == 2
    assert str(bad) in capsys.readouterr().err


class TestStageParity:
    def test_subcommand_chain_matches_run(self, capsys, tmp_path, fixture_corpus_path):
        # run's cleaning stages, one subcommand per stage, must give the same bytes
        out_dir = str(tmp_path / "out")
        config = _write_config(tmp_path / "job.conf", fixture_corpus_path, out_dir)
        assert main(["run", "--config", config]) == 0

        def step(*argv):
            assert main(list(argv)) == 0

        stripped, tagged, unique, kept, cased = (
            str(tmp_path / f"{stage}.jsonl") for stage in ("strip", "lang", "dedup", "heur", "case")
        )
        reports = [str(tmp_path / f"drops-{stage}.jsonl") for stage in ("lang", "dedup", "heur")]
        step("clean", fixture_corpus_path, stripped)
        step("filter", stripped, tagged, "--no-heuristics", "--report", reports[0])
        step("dedup", tagged, unique, "--report", reports[1])
        step("filter", unique, kept, "--no-language", "--report", reports[2])
        step("truecase", kept, cased)
        capsys.readouterr()

        with open(cased, "rb") as a, open(os.path.join(out_dir, "cleaned.jsonl"), "rb") as b:
            assert a.read() == b.read()
        chained = []
        for report in reports:
            with open(report, encoding="utf-8") as handle:
                chained.extend(handle)
        with open(os.path.join(out_dir, "drops.jsonl"), encoding="utf-8") as handle:
            logged = list(handle)
        assert logged
        assert sorted(chained) == sorted(logged)

    def test_clean_names_failing_stage(self, capsys, tmp_path):
        src = tmp_path / "bad.jsonl"
        src.write_text('{"id": "a", "text": "tere"}\nnot json\n', encoding="utf-8")
        assert main(["clean", str(src), str(tmp_path / "out.jsonl")]) == 2
        assert "stage ingest failed" in capsys.readouterr().err


# subcommand -> argv that rewrites {src}; truecase builds its lexicon from the lemmas
IN_PLACE = {
    "clean": ["clean", "{src}", "{dst}"],
    "dedup": ["dedup", "{src}", "{dst}"],
    "filter": ["filter", "{src}", "{dst}"],
    "truecase": ["truecase", "{src}", "{dst}"],
}


@pytest.mark.parametrize("case", sorted(IN_PLACE))
def test_input_may_be_its_own_output(case, capsys, tmp_path, fixture_corpus_path):
    fresh, src = str(tmp_path / "fresh.jsonl"), str(tmp_path / "corpus.jsonl")
    shutil.copyfile(fixture_corpus_path, src)
    argv = IN_PLACE[case]
    assert main([arg.format(src=fixture_corpus_path, dst=fresh) for arg in argv]) == 0
    assert main([arg.format(src=src, dst=src) for arg in argv]) == 0
    capsys.readouterr()
    with open(fresh, "rb") as a, open(src, "rb") as b:
        assert a.read() == b.read()
    assert sorted(os.listdir(tmp_path)) == ["corpus.jsonl", "fresh.jsonl"]


@pytest.mark.parametrize("case", sorted(IN_PLACE))
def test_symlinked_input_may_be_its_own_output(case, capsys, tmp_path, fixture_corpus_path):
    fresh, src, link = (str(tmp_path / name) for name in ("fresh.jsonl", "src.jsonl", "link.jsonl"))
    shutil.copyfile(fixture_corpus_path, src)
    os.symlink(src, link)
    argv = IN_PLACE[case]
    assert main([arg.format(src=fixture_corpus_path, dst=fresh) for arg in argv]) == 0
    assert main([arg.format(src=link, dst=link) for arg in argv]) == 0
    capsys.readouterr()
    assert os.path.islink(link) and os.readlink(link) == src
    with open(fresh, "rb") as a, open(src, "rb") as b:
        assert a.read() == b.read()
    assert sorted(os.listdir(tmp_path)) == ["fresh.jsonl", "link.jsonl", "src.jsonl"]


def test_run_writes_through_a_symlinked_cleaned_file(capsys, tmp_path, fixture_corpus_path):
    config = _write_config(tmp_path / "job.conf", fixture_corpus_path, tmp_path / "plain")
    assert main(["run", "--config", config]) == 0
    out_dir, target = tmp_path / "out", tmp_path / "target.jsonl"
    os.makedirs(out_dir)
    target.write_text("stale\n", encoding="utf-8")
    (out_dir / "cleaned.jsonl").symlink_to(target)
    assert main(["run", "--config", config, "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    assert (out_dir / "cleaned.jsonl").is_symlink()
    assert target.read_bytes() == (tmp_path / "plain" / "cleaned.jsonl").read_bytes()
    for name in os.listdir(tmp_path / "plain"):
        if name != "report.jsonl":
            assert (out_dir / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


def test_run_out_dir_that_is_a_file_names_output_stage(capsys, tmp_path, fixture_corpus_path):
    afile = tmp_path / "afile"
    afile.write_text("kept\n", encoding="utf-8")
    config = _write_config(tmp_path / "job.conf", fixture_corpus_path, afile)
    assert main(["run", "--config", config]) == 2
    assert capsys.readouterr().err.startswith(f"stage output failed: cannot write {afile}: ")
    assert afile.read_text(encoding="utf-8") == "kept\n"


def test_run_keeps_a_token_whose_capital_lowercases_elsewhere(capsys, tmp_path,
                                                               fixture_corpus_path):
    # "ﬁ" (U+FB01) capitalizes to "FI", which lowercases to "fi": the lemma gives no vote
    text = "ﬁnland on meie naaber ja seal elab palju inimesi kes räägivad soome keelt."
    lemmas = ["Finland"] + [word.strip(".") for word in text.split()[1:]]
    corpus = _write_jsonl(tmp_path / "corpus.jsonl", _read_lines(fixture_corpus_path) + [
        {"id": "fin", "text": text, "lang": "et", "lemmas": lemmas}])
    config = _write_config(tmp_path / "job.conf", corpus, tmp_path / "out")
    assert main(["run", "--config", config]) == 0
    assert main(["truecase", corpus, str(tmp_path / "cased.jsonl")]) == 0
    capsys.readouterr()
    for cased in (tmp_path / "out" / "cleaned.jsonl", tmp_path / "cased.jsonl"):
        assert [row["text"] for row in _read_lines(cased) if row["id"] == "fin"] == [text]


@pytest.mark.parametrize("case", ["config", "flag", "symlink"])
def test_run_refuses_a_report_path_that_is_its_input(case, capsys, tmp_path, fixture_corpus_path):
    corpus = tmp_path / "corpus.jsonl"
    shutil.copyfile(fixture_corpus_path, corpus)
    original, report = corpus.read_bytes(), corpus
    if case == "symlink":
        report = tmp_path / "link.jsonl"
        report.symlink_to(corpus)
    config = _write_config(tmp_path / "job.conf", corpus, tmp_path / "out")
    argv = ["run", "--config", config]
    if case == "flag":
        argv += ["--report", str(report)]
    else:
        with open(config, "a", encoding="utf-8") as handle:
            handle.write(f"[output]\nreport = {report}\n")
    assert main(argv) == 1
    assert capsys.readouterr().err == f"invalid value: report path {report} is the input file\n"
    assert corpus.read_bytes() == original
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["dedup", "filter"])
@pytest.mark.parametrize("report, role", [
    ("c.jsonl", "input"), ("d.jsonl", "output"), ("link.jsonl", "input"),
])
def test_cleaning_refuses_a_drop_log_that_is_its_input_or_output(command, report, role, capsys,
                                                                 tmp_path, fixture_corpus_path):
    corpus = tmp_path / "c.jsonl"
    shutil.copyfile(fixture_corpus_path, corpus)
    original = corpus.read_bytes()
    os.link(corpus, tmp_path / "link.jsonl")  # a hard link: only samefile sees it
    report = str(tmp_path / report)
    assert main([command, str(corpus), str(tmp_path / "d.jsonl"), "--report", report]) == 1
    assert capsys.readouterr().err == f"invalid value: drop log path {report} is the {role} file\n"
    assert corpus.read_bytes() == original
    assert sorted(os.listdir(tmp_path)) == ["c.jsonl", "link.jsonl"]


def test_cleaning_writes_output_and_drop_log_to_one_device(capsys, tmp_path, fixture_corpus_path):
    corpus = tmp_path / "c.jsonl"
    shutil.copyfile(fixture_corpus_path, corpus)
    original = corpus.read_bytes()
    assert main(["dedup", str(corpus), os.devnull, "--report", os.devnull]) == 0
    assert capsys.readouterr().out == f"kept 10 documents, dropped 2 duplicates -> {os.devnull}\n"
    assert corpus.read_bytes() == original
    assert os.listdir(tmp_path) == ["c.jsonl"]
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


@pytest.mark.parametrize("name, artifact", [
    ("drops", "drops.jsonl"), ("cleaned", "cleaned.jsonl"), ("vocab", "vocab.txt"),
    ("merges", "merges.txt"), ("shard", "pretrain-1-of-2.tfrecord"),
])
def test_run_refuses_an_input_that_is_one_of_its_artifacts(name, artifact, capsys, tmp_path,
                                                           fixture_corpus_path):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    corpus = out_dir / artifact
    shutil.copyfile(fixture_corpus_path, corpus)
    original = corpus.read_bytes()
    config = _write_config(tmp_path / "job.conf", corpus, out_dir)
    assert main(["run", "--config", config]) == 1
    assert capsys.readouterr().err == f"invalid value: {name} path {corpus} is the input file\n"
    assert corpus.read_bytes() == original
    assert os.listdir(out_dir) == [artifact]


# case -> (argv, message): an output path that names an input or another output of the command
SHARED_FILES = {
    "stats-report-input": (["stats", "{t}/c.jsonl", "--report", "{t}/c.jsonl"],
                           "report path {t}/c.jsonl is the input file"),
    "score-tags-report-input": (["score-tags", "{t}/p.tsv", "--report", "{t}/p.tsv"],
                                "report path {t}/p.tsv is the input file"),
    "score-ner-report-input": (["score-ner", "{t}/p.tsv", "--report", "{t}/p.tsv"],
                               "report path {t}/p.tsv is the input file"),
    "score-cls-report-input": (["score-cls", "{t}/g.tsv", "--report", "{t}/g.tsv"],
                               "report path {t}/g.tsv is the input file"),
    "bpe-train-vocab-input": (
        ["bpe-train", "{t}/c.jsonl", "--vocab-size", "90", "--vocab", "{t}/c.jsonl",
         "--merges", "{t}/m.txt"],
        "vocab path {t}/c.jsonl is the input file"),
    "bpe-train-merges-vocab": (
        ["bpe-train", "{t}/c.jsonl", "--vocab-size", "90", "--vocab", "{t}/v.txt",
         "--merges", "{t}/v.txt"],
        "merges path {t}/v.txt is the vocab file"),
    "truecase-lexicon-input": (
        ["truecase", "{t}/c.jsonl", "{t}/o.jsonl", "--save-lexicon", "{t}/c.jsonl"],
        "saved lexicon path {t}/c.jsonl is the input file"),
    "truecase-lexicon-output": (
        ["truecase", "{t}/c.jsonl", "{t}/o.jsonl", "--save-lexicon", "{t}/o.jsonl"],
        "saved lexicon path {t}/o.jsonl is the output file"),
    "truecase-in-place-lexicon-input": (
        ["truecase", "{t}/c.jsonl", "{t}/c.jsonl", "--save-lexicon", "{t}/c.jsonl"],
        "saved lexicon path {t}/c.jsonl is the input file"),
    "truecase-output-lexicon": (
        ["truecase", "{t}/c.jsonl", "{t}/l.tsv", "--lexicon", "{t}/l.tsv"],
        "output path {t}/l.tsv is the lexicon file"),
    "filter-output-stopwords": (
        ["filter", "{t}/c.jsonl", "{t}/s.txt", "--stopwords", "{t}/s.txt"],
        "output path {t}/s.txt is the stopword list file"),
    "filter-report-stopwords": (
        ["filter", "{t}/c.jsonl", "{t}/o.jsonl", "--stopwords", "{t}/s.txt", "--report",
         "{t}/s.txt"],
        "drop log path {t}/s.txt is the stopword list file"),
}


@pytest.mark.parametrize("case", sorted(SHARED_FILES))
def test_command_refuses_an_output_that_is_another_of_its_files(case, capsys, tmp_path, data_dir,
                                                                 fixture_corpus_path):
    shutil.copyfile(fixture_corpus_path, tmp_path / "c.jsonl")
    shutil.copyfile(os.path.join(data_dir, "ner_fixture.tsv"), tmp_path / "p.tsv")
    (tmp_path / "g.tsv").write_text("pos\tpos\nneg\tpos\n", encoding="utf-8")
    (tmp_path / "l.tsv").write_text("tallinn\tTallinn\t3\n", encoding="utf-8")
    (tmp_path / "s.txt").write_text("ja\non\n", encoding="utf-8")
    argv, message = SHARED_FILES[case]
    before = _tree_bytes(tmp_path)
    assert main([arg.format(t=tmp_path) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"invalid value: {message.format(t=tmp_path)}\n"
    assert captured.out == ""
    assert _tree_bytes(tmp_path) == before


@pytest.mark.parametrize("name, artifact", [
    ("vocab", "vocab.txt"), ("drops", "drops.jsonl"), ("shard", "pretrain-1-of-2.tfrecord"),
])
def test_run_refuses_a_report_path_that_is_another_artifact(name, artifact, capsys, tmp_path,
                                                            fixture_corpus_path):
    out_dir = tmp_path / "out"
    config = _write_config(tmp_path / "job.conf", fixture_corpus_path, out_dir)
    assert main(["run", "--config", config]) == 0
    before = _tree_bytes(out_dir)
    report = out_dir / artifact
    capsys.readouterr()
    assert main(["run", "--config", config, "--report", str(report)]) == 1
    assert capsys.readouterr().err == f"invalid value: report path {report} is the {name} file\n"
    assert _tree_bytes(out_dir) == before


@pytest.mark.parametrize("section, key, role, artifact", [
    ("filter", "stopwords", "stopword list", "vocab.txt"),
    ("truecase", "lexicon", "lexicon", "drops.jsonl"),
])
def test_run_refuses_an_artifact_that_is_a_file_it_reads(section, key, role, artifact, capsys,
                                                         tmp_path, fixture_corpus_path):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    read = out_dir / artifact
    read.write_text("tallinn\tTallinn\t3\n", encoding="utf-8")
    config = _write_config(tmp_path / "job.conf", fixture_corpus_path, out_dir)
    with open(config, "a", encoding="utf-8") as handle:
        handle.write(f"[{section}]\n{key} = {read}\n")
    assert main(["run", "--config", config]) == 1
    name = artifact.split(".")[0]
    assert capsys.readouterr().err == f"invalid value: {name} path {read} is the {role} file\n"
    assert os.listdir(out_dir) == [artifact]
    assert read.read_text(encoding="utf-8") == "tallinn\tTallinn\t3\n"


@pytest.mark.parametrize("command", ["run", "filter"])
def test_disabled_heuristics_stage_loads_no_stopword_list(command, capsys, tmp_path,
                                                          fixture_corpus_path):
    missing, out = tmp_path / "missing.txt", tmp_path / "out"
    outputs = []
    for stopwords in (None, missing):  # the same bytes with the list as without it
        if command == "run":
            config = _write_config(tmp_path / "job.conf", fixture_corpus_path, out)
            with open(config, "a", encoding="utf-8") as handle:
                handle.write("[stages]\nheuristics = false\n")
                if stopwords is not None:
                    handle.write(f"[filter]\nstopwords = {stopwords}\n")
            argv = ["run", "--config", config]
        else:
            argv = ["filter", fixture_corpus_path, str(out), "--no-heuristics"]
            if stopwords is not None:
                argv += ["--stopwords", str(stopwords)]
        assert main(argv) == 0
        outputs.append(_tree_bytes(out) if command == "run" else out.read_bytes())
    capsys.readouterr()
    assert outputs[0] == outputs[1]


def test_make_examples_out_dir_that_is_a_file_names_it(capsys, tmp_path, fixture_corpus_path):
    vocab, merges = str(tmp_path / "vocab.txt"), str(tmp_path / "merges.txt")
    assert main(["bpe-train", fixture_corpus_path, "--vocab-size", "60",
                 "--vocab", vocab, "--merges", merges]) == 0
    afile = tmp_path / "afile"
    afile.write_text("kept\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["make-examples", fixture_corpus_path, "--vocab", vocab, "--merges", merges,
                 "--out-dir", str(afile)]) == 2
    assert capsys.readouterr().err == f"error: IoError: cannot write {afile}: File exists\n"
    assert afile.read_text(encoding="utf-8") == "kept\n"


def test_failed_rerun_leaves_no_report_or_empty_shard(capsys, tmp_path, fixture_corpus_path):
    out_dir = tmp_path / "out"
    config = _write_config(tmp_path / "job.conf", fixture_corpus_path, out_dir)
    assert main(["run", "--config", config]) == 0
    corpus = tmp_path / "one.jsonl"
    with open(fixture_corpus_path, encoding="utf-8") as handle:
        corpus.write_text(handle.readline(), encoding="utf-8")
    config = _write_config(tmp_path / "one.conf", corpus, out_dir)
    with open(config, "a", encoding="utf-8") as handle:
        handle.write("[filter]\nmin_words = 1\nlang_confidence_min = 0\n")
    capsys.readouterr()
    assert main(["run", "--config", config]) == 2
    assert "stage examples failed" in capsys.readouterr().err
    names = sorted(os.listdir(out_dir))
    assert "report.jsonl" not in names
    assert not [name for name in names if name.endswith(".tmp")]
    shards = [name for name in names if name.startswith("pretrain-")]
    assert shards and all(os.path.getsize(out_dir / name) > 0 for name in shards)


def _tree_bytes(root):
    """Every file under root, by its path relative to root, with its bytes."""
    files = {}
    for folder, _, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as handle:
                files[os.path.relpath(path, root)] = handle.read()
    return files


def _shard_bytes(out_dir):
    return {name: data for name, data in _tree_bytes(out_dir).items() if name.startswith("pretrain-")}


@pytest.mark.parametrize("command", ["make-examples", "run"])
def test_failed_rerun_with_other_shard_count_keeps_earlier_shards(command, capsys, tmp_path,
                                                                  fixture_corpus_path):
    out_dir = tmp_path / "out"
    corpus = tmp_path / "one.jsonl"  # too small for a pretraining instance
    with open(fixture_corpus_path, encoding="utf-8") as handle:
        corpus.write_text(handle.readline(), encoding="utf-8")
    if command == "run":
        config = _write_config(tmp_path / "job.conf", fixture_corpus_path, out_dir)
        first = ["run", "--config", config, "--shards", "2"]
        config = _write_config(tmp_path / "one.conf", corpus, out_dir)
        with open(config, "a", encoding="utf-8") as handle:
            handle.write("[filter]\nmin_words = 1\nlang_confidence_min = 0\n")
        rerun = ["run", "--config", config, "--shards", "4"]
    else:
        vocab, merges = str(tmp_path / "vocab.txt"), str(tmp_path / "merges.txt")
        assert main(["bpe-train", fixture_corpus_path, "--vocab-size", "60",
                     "--vocab", vocab, "--merges", merges]) == 0
        common = ["--vocab", vocab, "--merges", merges, "--out-dir", str(out_dir)]
        first = ["make-examples", fixture_corpus_path, *common, "--shards", "2"]
        rerun = ["make-examples", str(corpus), *common, "--shards", "4"]
    assert main(first) == 0
    shards = _shard_bytes(out_dir)
    assert sorted(shards) == ["pretrain-0-of-2.tfrecord", "pretrain-1-of-2.tfrecord"]
    capsys.readouterr()
    assert main(rerun) == 2
    assert "need at least 2 documents" in capsys.readouterr().err
    assert _shard_bytes(out_dir) == shards
    assert not [name for name in os.listdir(out_dir) if name.endswith(".tmp")]


def test_dedup_report_streams_its_drops(capsys, tmp_path):
    copies = 10_000
    corpus = _write_jsonl(
        tmp_path / "in.jsonl", [{"id": f"d{i}", "text": "sama tekst"} for i in range(copies)]
    )
    report = tmp_path / "drops.jsonl"
    argv = ["dedup", corpus, str(tmp_path / "unique.jsonl"), "--report", str(report)]
    assert main(["dedup", corpus, os.devnull]) == 0  # first-use imports and caches
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert f"dropped {copies - 1} duplicates" in capsys.readouterr().out
    assert len(_read_lines(report)) == copies - 1
    # the drop records are written as they occur, not held until the end
    assert peak < report.stat().st_size / 4


def test_truncated_input_rerun_keeps_earlier_artifacts(capsys, tmp_path, fixture_corpus_path):
    out_dir = tmp_path / "out"
    config = _write_config(tmp_path / "job.conf", fixture_corpus_path, out_dir)
    assert main(["run", "--config", config]) == 0
    first = {}
    for name in sorted(os.listdir(out_dir)):
        with open(out_dir / name, "rb") as handle:
            first[name] = handle.read()
    with open(fixture_corpus_path, "rb") as handle:
        lines = handle.readlines()
    corpus = tmp_path / "cut.jsonl"  # the last object ends before its "lemmas" key
    corpus.write_bytes(b"".join(lines[:-1]) + lines[-1][: lines[-1].index(b', "lemmas"')])
    config = _write_config(tmp_path / "cut.conf", corpus, out_dir)
    capsys.readouterr()
    assert main(["run", "--config", config]) == 2
    err = capsys.readouterr().err
    assert f"stage ingest failed: line {len(lines)}: invalid JSON" in err
    del first["report.jsonl"]
    after = {}
    for name in sorted(os.listdir(out_dir)):
        with open(out_dir / name, "rb") as handle:
            after[name] = handle.read()
    assert after == first


def test_failed_clean_creates_no_output(capsys, tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(NOT_UTF8["json-lines"])
    assert main(["clean", str(corpus), str(tmp_path / "clean.jsonl")]) == 2
    assert "stage ingest failed" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["corpus.jsonl"]


# subcommand -> argv whose {bad} output path lies in a directory that does not exist
OUTPUTS = {
    "bpe-train-vocab": [
        "bpe-train", "{corpus}", "--vocab-size", "90", "--vocab", "{bad}", "--merges", "{merges}",
    ],
    "bpe-train-merges": [
        "bpe-train", "{corpus}", "--vocab-size", "90", "--vocab", "{vocab}", "--merges", "{bad}",
    ],
    "truecase-save-lexicon": [
        "truecase", "{corpus}", "{tmp}/cased.jsonl", "--save-lexicon", "{bad}",
    ],
    "dedup-report": ["dedup", "{corpus}", "{tmp}/unique.jsonl", "--report", "{bad}"],
    "filter-report": ["filter", "{corpus}", "{tmp}/kept.jsonl", "--report", "{bad}"],
    "stats-report": ["stats", "{corpus}", "--report", "{bad}"],
    "score-ner-report": ["score-ner", "{data}/ner_fixture.tsv", "--report", "{bad}"],
    "make-examples-out-dir": [
        "make-examples", "{corpus}", "--vocab", "{vocab}", "--merges", "{merges}",
        "--out-dir", "{bad}",
    ],
}


@pytest.mark.parametrize("case", sorted(OUTPUTS))
def test_unwritable_output_exits_2_naming_it(case, capsys, tmp_path, fixture_corpus_path):
    vocab, merges = str(tmp_path / "vocab.txt"), str(tmp_path / "merges.txt")
    assert main(["bpe-train", fixture_corpus_path, "--vocab-size", "60",
                 "--vocab", vocab, "--merges", merges]) == 0
    bad = str(tmp_path / "absent" / "out")
    if case == "make-examples-out-dir":
        bad = os.path.join(vocab, "x")  # under a file, not a directory
    argv = [
        arg.format(bad=bad, corpus=fixture_corpus_path, data=os.path.dirname(fixture_corpus_path),
                   tmp=tmp_path, vocab=vocab, merges=merges)
        for arg in OUTPUTS[case]
    ]
    before = _tree_bytes(tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"cannot write {bad}" in captured.err
    assert captured.out == ""
    # the command's other outputs are absent, and the files it would replace are as they were
    assert _tree_bytes(tmp_path) == before


@pytest.mark.parametrize("command", ["clean", "dedup", "filter"])
def test_unwritable_cleaning_output_names_output_stage(command, capsys, tmp_path,
                                                       fixture_corpus_path):
    bad = str(tmp_path / "absent" / "out.jsonl")
    assert main([command, fixture_corpus_path, bad]) == 2
    err = capsys.readouterr().err
    assert f"stage output failed: cannot write {bad}" in err


def test_missing_stopwords_fail_filter_heuristics_stage(capsys, tmp_path, fixture_corpus_path):
    out = str(tmp_path / "kept.jsonl")
    assert main(["filter", fixture_corpus_path, out, "--stopwords", "/nonexistent"]) == 2
    assert "stage heuristics failed" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_report_to_device_is_written_in_place(capsys, fixture_corpus_path):
    assert main(["stats", fixture_corpus_path, "--report", os.devnull]) == 0
    capsys.readouterr()
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_report_to_symlink_writes_its_target(capsys, tmp_path, fixture_corpus_path):
    target, link = tmp_path / "target.jsonl", tmp_path / "link.jsonl"
    target.write_text("stale\n", encoding="utf-8")
    link.symlink_to(target)
    assert main(["stats", fixture_corpus_path, "--report", str(link)]) == 0
    capsys.readouterr()
    assert link.is_symlink()
    assert _read_lines(target) == [
        {"type": "stats", "documents": 12, "sentences": 20, "words": 206}
    ]


@pytest.mark.parametrize("size", ["0", "5"])
def test_bpe_train_vocab_size_below_six_exits_1(size, capsys, tmp_path, fixture_corpus_path):
    vocab, merges = str(tmp_path / "vocab.txt"), str(tmp_path / "merges.txt")
    argv = ["bpe-train", fixture_corpus_path, "--vocab-size", size, "--vocab", vocab,
            "--merges", merges]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"invalid value: vocab_size must be >= 6, got {size}\n"
    assert captured.out == ""
    assert os.listdir(tmp_path) == []


def test_empty_config_values_and_report_flag_exit_1_together(capsys, tmp_path):
    config = tmp_path / "job.conf"
    config.write_text(
        "[input]\npath =\n[output]\ndir =\nreport =\n[filter]\ntarget_lang =\n"
        "stopwords =\n[truecase]\nlexicon =\n",
        encoding="utf-8",
    )
    assert main(["run", "--config", str(config), "--report", ""]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"config error: line {n}: bad value for {key}: must not be empty"
        for n, key in [(2, "path"), (4, "dir"), (5, "report"), (7, "target_lang"),
                       (8, "stopwords"), (10, "lexicon")]
    ] + [
        "config error: override: bad value for report: must not be empty",
        "config error: missing required key: input.path",
    ]
    assert captured.out == ""
    assert os.listdir(tmp_path) == ["job.conf"]


@pytest.mark.parametrize(
    "command, flag",
    [
        (["filter", "in.jsonl", "out.jsonl", "--stopwords", ""], "--stopwords"),
        (["truecase", "in.jsonl", "out.jsonl", "--lexicon", ""], "--lexicon"),
        (["stats", "in.jsonl", "--report", ""], "--report"),
        (["bpe-train", "in.jsonl", "--vocab", ""], "--vocab"),
        (["make-examples", "in.jsonl", "--vocab", "v", "--merges", "m", "--out-dir", ""],
         "--out-dir"),
    ],
)
def test_empty_path_flag_exits_1_naming_it(command, flag, capsys, tmp_path, monkeypatch):
    # an empty path is not "not given": the packaged stopwords or a lexicon
    # built from lemmas would be used silently, and "" is no report file
    monkeypatch.chdir(tmp_path)
    row = {"id": "a", "text": ET_SENTENCE, "lemmas": ET_SENTENCE.split()}
    _write_jsonl(tmp_path / "in.jsonl", [row])
    assert main(command) == 1
    captured = capsys.readouterr()
    assert f"error: argument {flag}: must not be empty" in captured.err
    assert captured.out == ""
    assert os.listdir(tmp_path) == ["in.jsonl"]


class TestReadExamplesErrors:
    def test_missing_shard_exits_2_naming_it(self, capsys, tmp_path):
        shard = str(tmp_path / "absent.tfrecord")
        assert main(["read-examples", shard]) == 2
        assert f"cannot open {shard}" in capsys.readouterr().err

    def test_malformed_payload_exits_2(self, capsys, tmp_path):
        from corpusprep.tfrecord import frame_record

        shard = tmp_path / "bad.tfrecord"
        shard.write_bytes(frame_record(b"\x0a\x05\x0a"))  # outer field claims 5 bytes, has 1
        assert main(["read-examples", str(shard)]) == 2
        assert "CorruptRecord" in capsys.readouterr().err


class TestArgumentErrors:
    def test_unknown_subcommand_exits_1(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_missing_required_flag_exits_1(self, capsys):
        assert main(["run"]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_choice_exits_1(self, capsys, fixture_corpus_path):
        assert main(["stats", fixture_corpus_path, "--format", "parquet"]) == 1
        capsys.readouterr()

    def test_negative_read_limit_exits_1(self, capsys, tmp_path):
        assert main(["read-examples", str(tmp_path / "absent.tfrecord"), "--limit", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "invalid value: --limit must be >= 0, got -1\n"
        assert captured.out == ""

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_run_workers_below_one_exits_1(self, workers, capsys, tmp_path, fixture_corpus_path):
        out_dir = tmp_path / "out"
        config = _write_config(tmp_path / "job.conf", fixture_corpus_path, str(out_dir))
        assert main(["run", "--config", config, "--workers", workers]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"invalid value: --workers must be >= 1, got {workers}\n"
        assert captured.out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_make_examples_workers_below_one_exits_1(self, workers, capsys, tmp_path,
                                                     fixture_corpus_path):
        out_dir = tmp_path / "shards"
        argv = ["make-examples", fixture_corpus_path, "--vocab", str(tmp_path / "absent.txt"),
                "--merges", str(tmp_path / "absent.txt"), "--out-dir", str(out_dir)]
        assert main(argv + ["--workers", workers]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"invalid value: --workers must be >= 1, got {workers}\n"
        assert captured.out == ""
        assert not out_dir.exists()


def test_console_script_is_installed(fixture_corpus_path):
    proc = subprocess.run(
        [sys.executable, "-m", "corpusprep.cli", "stats", fixture_corpus_path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "documents 12" in proc.stdout
