"""End-to-end pipeline runs against the hand-audited fixture manifest.

The twelve-document fixture corpus was audited by hand: the manifest file
records which documents survive, which are dropped at which stage and why,
and the corpus statistics after every stage.  These tests run the real
pipeline and require an exact match, then cover determinism (rerun and
worker-count invariance), stage toggles, the external casing lexicon,
stage attribution of failures, and flat memory use while streaming.
"""

from __future__ import annotations

import hashlib
import json
import itertools
import os
import resource
from collections import defaultdict

import pytest

from corpusprep.cleaning import strip_markup
from corpusprep.config import STAGE_ORDER, FilterThresholds, PipelineConfig, StageToggles
from corpusprep.errors import MalformedRecord, StageError
from corpusprep.ingest import CorpusStats, Document, compute_stats, read_documents
from corpusprep.pipeline import PipelineReport, _clean_stream, run_pipeline
from corpusprep.pretrain import GenerationConfig, read_tfrecords
from corpusprep.truecase import CasingLexicon
from dedup_stage import dedup

# Small generation settings keep the end-to-end runs fast; the statistical
# properties of generation are covered elsewhere on much larger streams.
_GEN = GenerationConfig(
    max_seq_length=32,
    masked_lm_prob=0.15,
    random_next_prob=0.5,
    short_seq_prob=0.1,
    dupe_factor=2,
    shards=2,
    seed=7,
)


def _make_config(input_path: str, out_dir: str, **overrides) -> PipelineConfig:
    settings = dict(
        input_path=input_path,
        input_format="json-lines",
        out_dir=out_dir,
        vocab_size=300,
        generation=_GEN,
    )
    settings.update(overrides)
    return PipelineConfig(**settings)


def _read_jsonl(path: str) -> list:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def _normalized_digest(text: str) -> str:
    collapsed = " ".join(text.lower().split())
    return hashlib.blake2b(collapsed.encode("utf-8"), digest_size=16).hexdigest()


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory, fixture_corpus_path):
    out_dir = str(tmp_path_factory.mktemp("pipeline") / "out")
    config = _make_config(fixture_corpus_path, out_dir)
    report = run_pipeline(config)
    return report, out_dir


class TestFixtureManifest:
    def test_kept_documents_match_manifest(self, pipeline_run, fixture_manifest):
        _, out_dir = pipeline_run
        docs = list(read_documents(os.path.join(out_dir, "cleaned.jsonl"), "json-lines"))
        assert [doc.id for doc in docs] == fixture_manifest["kept_ids"]

    def test_drop_log_matches_manifest(self, pipeline_run, fixture_manifest, fixture_docs):
        _, out_dir = pipeline_run
        rows = _read_jsonl(os.path.join(out_dir, "drops.jsonl"))
        expected = fixture_manifest["drops"]
        texts = {doc.id: doc.text for doc in fixture_docs}

        assert [row["id"] for row in rows] == [drop["id"] for drop in expected]
        for row, drop in zip(rows, expected):
            assert row["stage"] == drop["stage"]
            assert row["reason"] == drop["reason"]
            if drop["reason"] == "Duplicate":
                # the logged detail is the duplicate's content digest, which
                # must equal an independent recomputation over the document
                # it collided with (case and whitespace folded away)
                assert row["detail"] == _normalized_digest(texts[drop["duplicate_of"]])
            elif drop["reason"] == "NonTargetLanguage":
                assert row["detail"]["lang"] == drop["lang"]
                assert row["detail"]["prob"] >= 0.95
            else:
                assert row["detail"] == drop["detail"]

    def test_drop_totals_by_reason(self, pipeline_run, fixture_manifest):
        report, _ = pipeline_run
        assert report.drops_by_reason == fixture_manifest["drops_by_reason"]

    def test_stage_statistics_match_manifest(self, pipeline_run, fixture_manifest):
        report, _ = pipeline_run
        assert [stage.stage for stage in report.stages] == list(STAGE_ORDER)
        for stage in report.stages:
            expected = fixture_manifest["stage_outputs"][stage.stage]
            assert stage.output.as_dict() == expected

    def test_before_and_after_totals(self, pipeline_run, fixture_manifest):
        report, _ = pipeline_run
        assert report.before.as_dict() == fixture_manifest["before"]
        assert report.after.as_dict() == fixture_manifest["after"]

    def test_every_stage_shrinks_or_holds_every_metric(self, pipeline_run):
        report, _ = pipeline_run
        for stage in report.stages:
            assert stage.output <= stage.input, stage.stage
            assert stage.dropped == stage.input.documents - stage.output.documents
        assert report.after <= report.before

    def test_truecase_spot_checks(self, pipeline_run, fixture_manifest):
        _, out_dir = pipeline_run
        docs = {
            doc.id: doc
            for doc in read_documents(os.path.join(out_dir, "cleaned.jsonl"), "json-lines")
        }
        for check in fixture_manifest["truecase_spot_checks"]:
            line = docs[check["id"]].text.splitlines()[check["line"]]
            if "starts_with" in check:
                assert line.startswith(check["starts_with"]), check
            else:
                assert check["contains"] in line, check


class TestReportArtifacts:
    def test_report_file_mirrors_records(self, pipeline_run):
        report, out_dir = pipeline_run
        rows = _read_jsonl(os.path.join(out_dir, "report.jsonl"))
        assert rows == report.records()

    def test_artifact_files_exist(self, pipeline_run):
        report, out_dir = pipeline_run
        for key in ("cleaned", "vocab", "merges", "drops", "report"):
            assert os.path.exists(report.artifacts[key]), key
        shards = report.artifacts["shards"]
        assert [os.path.basename(p) for p in shards] == [
            "pretrain-0-of-2.tfrecord",
            "pretrain-1-of-2.tfrecord",
        ]
        for path in shards:
            assert os.path.exists(path)

    def test_instance_count_matches_shard_contents(self, pipeline_run):
        report, _ = pipeline_run
        stored = sum(1 for _ in read_tfrecords(report.artifacts["shards"]))
        assert stored == report.instances
        assert report.instances > 0
        summary = [row for row in report.records() if row["type"] == "summary"][0]
        assert summary["instances"] == report.instances

    def test_stats_table_layout(self, pipeline_run):
        report, _ = pipeline_run
        lines = report.table().splitlines()
        assert lines[0] == f"{'metric':<12}{'before':>14}{'after':>14}"
        assert lines[1] == f"{'documents':<12}{12:>14}{8:>14}"
        assert lines[3] == f"{'words':<12}{206:>14}{157:>14}"


def _artifact_fingerprint(report: PipelineReport, out_dir: str) -> dict:
    """Everything a run produces, keyed by artifact name, paths folded away."""
    fingerprint = {}
    for name in ("cleaned.jsonl", "drops.jsonl", "vocab.txt", "merges.txt"):
        with open(os.path.join(out_dir, name), "rb") as handle:
            fingerprint[name] = handle.read()
    for path in report.artifacts["shards"]:
        with open(path, "rb") as handle:
            fingerprint[os.path.basename(path)] = handle.read()
    rows = _read_jsonl(os.path.join(out_dir, "report.jsonl"))
    for row in rows:
        if row["type"] == "artifacts":
            for key, value in row.items():
                if key == "type":
                    continue
                row[key] = (
                    [os.path.basename(p) for p in value]
                    if isinstance(value, list)
                    else os.path.basename(value)
                )
    fingerprint["report-rows"] = rows
    return fingerprint


class TestDeterminism:
    def test_rerun_is_byte_identical(self, pipeline_run, tmp_path, fixture_corpus_path):
        report_a, out_a = pipeline_run
        out_b = str(tmp_path / "again")
        report_b = run_pipeline(_make_config(fixture_corpus_path, out_b))
        assert _artifact_fingerprint(report_a, out_a) == _artifact_fingerprint(report_b, out_b)

    def test_worker_count_does_not_change_artifacts(
        self, pipeline_run, tmp_path, fixture_corpus_path
    ):
        report_a, out_a = pipeline_run
        out_b = str(tmp_path / "parallel")
        report_b = run_pipeline(_make_config(fixture_corpus_path, out_b), workers=3)
        assert _artifact_fingerprint(report_a, out_a) == _artifact_fingerprint(report_b, out_b)


class TestCleanStreamTallies:
    def test_each_document_is_split_at_ingest_and_after_strip_only(
        self, monkeypatch, fixture_docs
    ):
        splits = []
        sentences = Document.sentences
        monkeypatch.setattr(Document, "sentences", lambda doc: splits.append(doc) or sentences(doc))
        tallies = defaultdict(CorpusStats)
        stages = ["strip", "langfilter", "dedup", "heuristics"]
        stream = _clean_stream(
            iter(fixture_docs), stages, FilterThresholds(), "et", lambda *drop: None, tallies
        )
        kept = list(stream)
        # counted at ingest and after strip; the later stages add the counts after strip
        assert len(splits) == 2 * len(fixture_docs)
        monkeypatch.undo()
        assert 0 < len(kept) < len(fixture_docs)
        assert tallies["ingest"] == compute_stats(fixture_docs)
        assert tallies["heuristics"] == compute_stats(kept)


class TestStageToggles:
    def test_disabled_dedup_keeps_duplicates(self, tmp_path, fixture_corpus_path):
        out_dir = str(tmp_path / "nodedup")
        config = _make_config(
            fixture_corpus_path, out_dir, stages=StageToggles(dedup=False)
        )
        report = run_pipeline(config)

        assert [stage.stage for stage in report.stages] == [
            "strip",
            "langfilter",
            "heuristics",
            "truecase",
        ]
        kept = [doc.id for doc in read_documents(os.path.join(out_dir, "cleaned.jsonl"), "json-lines")]
        assert "doc-03" in kept and "doc-07" in kept
        drop_ids = [row["id"] for row in _read_jsonl(os.path.join(out_dir, "drops.jsonl"))]
        assert drop_ids == ["doc-04", "doc-06"]
        assert "Duplicate" not in report.drops_by_reason


class TestExternalLexicon:
    def test_external_casing_lexicon_is_used(self, tmp_path, fixture_corpus_path):
        lexicon_path = str(tmp_path / "casing.tsv")
        CasingLexicon(
            entries={
                "tallinn": ("Tallinn", 3),
                "täna": ("täna", 5),
                "meie": ("meie", 4),
            }
        ).save(lexicon_path)
        out_dir = str(tmp_path / "out")
        config = _make_config(
            fixture_corpus_path, out_dir, truecase_lexicon_path=lexicon_path
        )
        run_pipeline(config)

        docs = {
            doc.id: doc
            for doc in read_documents(os.path.join(out_dir, "cleaned.jsonl"), "json-lines")
        }
        lines = docs["doc-01"].text.splitlines()
        assert lines[0].startswith("Tallinn on Eesti")  # listed as capitalized
        assert lines[1].startswith("täna paistab")  # listed as lowercase
        assert docs["doc-05"].text.startswith("meie pere")
        # no entry for this token, so the written form survives even though
        # the lemma-derived lexicon of the default run would capitalize it
        assert "raamatuid eesti keeles" in docs["doc-09"].text


class TestFailureAttribution:
    def test_malformed_input_is_an_ingest_error(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"id": "a", "text": "esimene rida siin"}\nnot json\n')
        with pytest.raises(StageError) as excinfo:
            run_pipeline(_make_config(str(path), str(tmp_path / "out")))
        assert excinfo.value.stage == "ingest"
        assert isinstance(excinfo.value.__cause__, MalformedRecord)
        assert excinfo.value.__cause__.line_no == 2

    def test_missing_stopword_file_is_a_heuristics_error(self, tmp_path, fixture_corpus_path):
        config = _make_config(
            fixture_corpus_path,
            str(tmp_path / "out"),
            stopwords_path=str(tmp_path / "absent.txt"),
        )
        with pytest.raises(StageError) as excinfo:
            run_pipeline(config)
        assert excinfo.value.stage == "heuristics"


def _peak_growth(work):
    """work()'s result and the bytes by which it raised the peak resident set, in a forked child.

    A forked child's peak starts at its resident set at the fork, so the
    parent's own earlier peaks do not count.
    """
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child reports through the pipe; it never returns into the test runner
        try:
            start = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            result = work()
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            os.write(write_end, json.dumps([result, (peak - start) * 1024]).encode())  # KiB on Linux
        finally:
            os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end) as pipe:
        reported = pipe.read()
    os.waitpid(pid, 0)
    assert reported, "the measured pass raised in the child"
    return json.loads(reported)


class TestMemory:
    def test_streaming_keeps_memory_flat(self, tmp_path):
        """A clean+dedup pass raises the peak resident set far less than the corpus size."""
        path = str(tmp_path / "big.jsonl")
        filler = "sõna kala maja puu järv mets vesi lumi tuul päike " * 12
        with open(path, "w", encoding="utf-8") as handle:
            for i in range(20000):
                text = f"<p>lõik {i:05d}</p> {filler}number {i:05d} lõpp"
                handle.write(json.dumps({"id": f"d{i:05d}", "text": text}) + "\n")
        corpus_bytes = os.path.getsize(path)
        assert corpus_bytes > 10_000_000

        def stripped(limit=None):
            for doc in itertools.islice(read_documents(path, "json-lines"), limit):
                yield Document(id=doc.id, text=strip_markup(doc.text))

        assert sum(1 for _ in dedup(stripped(500))) == 500  # first-use costs, before the fork
        count, growth = _peak_growth(lambda: sum(1 for _ in dedup(stripped())))
        assert count == 20000
        assert growth < corpus_bytes / 2
        # the same check fails a pass that holds every document
        count, growth = _peak_growth(lambda: len(list(dedup(stripped()))))
        assert count == 20000
        assert growth > corpus_bytes / 2
