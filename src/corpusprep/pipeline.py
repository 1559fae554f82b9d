"""End-to-end corpus pipeline: clean, vocabulary, pretraining shards.

Stages run in a fixed order (strip, langfilter, dedup, heuristics,
truecase); disabled stages are skipped, never reordered.  Documents stream
through a single driver loop one at a time; only the dedup digest set, one
digest per kept document, grows with the corpus.  ``clean_file`` runs that
loop and commits the cleaned file and its streamed drop log together;
``truecase_file`` reads ``cleaned.jsonl`` twice (casing evidence, then
rewrite) and rewrites it in place.  The subcommands run these two too.
A run refuses an artifact path that names a file it reads or another
artifact, removes a stale ``report.jsonl`` first and writes the report last.
``_stage`` is the one stage boundary: a PipelineError, OSError or ValueError
raised inside a stage leaves it as StageError naming that stage.

Reports are fully deterministic: no timestamps, fixed key order, so a rerun
with the same inputs and seed is byte-identical, report included.
"""

from __future__ import annotations

import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from .bpe import Vocab, train_bpe
from .cleaning import (
    DUPLICATE,
    NON_TARGET_LANGUAGE,
    DropReason,
    dedup_key,
    default_stopwords,
    heuristic_filter,
    load_stopwords,
    stopword_core,
    strip_markup,
)
from .config import FilterThresholds, GenerationConfig, PipelineConfig
from .errors import PipelineError, StageError, TextTooShort
from .ingest import (
    CorpusStats, Document, Memo, json_line, make_output_dir, open_output, read_documents,
    refuse_shared_files, write_documents, write_jsonl,
)
from .langid import default_profiles, detect_language
from .pretrain import (
    build_instances, serialize_example, shard_paths, tokenize_documents, write_tfrecords
)
from .truecase import CasingLexicon, build_casing_lexicon, truecase


@dataclass(frozen=True)
class StageReport:
    stage: str
    input: CorpusStats
    output: CorpusStats
    dropped: int


@dataclass
class PipelineReport:
    stages: List[StageReport]
    before: CorpusStats
    after: CorpusStats
    drops_by_reason: Dict[str, int]
    artifacts: Dict[str, object]
    instances: int

    def table(self) -> str:
        """Before/after corpus statistics as an aligned text table."""
        rows = [
            ("documents", self.before.documents, self.after.documents),
            ("sentences", self.before.sentences, self.after.sentences),
            ("words", self.before.words, self.after.words),
        ]
        lines = [f"{'metric':<12}{'before':>14}{'after':>14}"]
        for name, before, after in rows:
            lines.append(f"{name:<12}{before:>14}{after:>14}")
        return "\n".join(lines)

    def records(self) -> List[dict]:
        """json-lines payload, one record per line, deterministic order."""
        out: List[dict] = []
        for stage in self.stages:
            out.append(
                {
                    "type": "stage",
                    "stage": stage.stage,
                    "in": stage.input.as_dict(),
                    "out": stage.output.as_dict(),
                    "dropped": stage.dropped,
                }
            )
        out.append(
            {
                "type": "summary",
                "before": self.before.as_dict(),
                "after": self.after.as_dict(),
                "drops": dict(sorted(self.drops_by_reason.items())),
                "instances": self.instances,
            }
        )
        out.append({"type": "artifacts", **self.artifacts})
        return out


@contextmanager
def _stage(name: str) -> Iterator[None]:
    """The one stage boundary: failures inside the block carry the stage name."""
    try:
        yield
    except StageError:
        raise
    except (PipelineError, OSError, ValueError) as exc:
        raise StageError(name, exc) from exc


def with_stopwords(thresholds: FilterThresholds, path: Optional[str]) -> FilterThresholds:
    """The heuristics stage's thresholds, with the stopword list at path or the packaged one."""
    with _stage("heuristics"):
        stopwords = load_stopwords(path) if path is not None else default_stopwords()
    return replace(thresholds, stopwords=stopwords)


def write_examples(
    docs: Iterable[Document], vocab: Vocab, generation: GenerationConfig, out_dir: str, workers: int
) -> Tuple[List[str], int]:
    """Tokenize, build and frame instances, each where it is built, into shards; (paths, count)."""
    tokenized = tokenize_documents(docs, vocab)
    records = build_instances(
        tokenized, vocab, generation, workers,
        lambda instance: serialize_example(instance, vocab, generation),
    )
    try:
        return write_tfrecords(records, out_dir, generation.shards)
    finally:  # a failed write's traceback keeps records alive: stop its workers now
        if hasattr(records, "close"):  # perfbench's tracer wraps it in an iterator without one
            records.close()


def truecase_file(
    src: str, src_format: str, dst: str, dst_format: str, lexicon_path: Optional[str]
) -> Tuple[int, CasingLexicon]:
    """The truecase stage: rewrite src into dst (may be src); (documents written, lexicon).

    Uses the lexicon file if given, else a lexicon built from src's lemmas.
    Truecasing changes no document, sentence or word count.
    """
    with _stage("truecase"):
        if lexicon_path is not None:
            lexicon = CasingLexicon.load(lexicon_path)
        else:
            lexicon = build_casing_lexicon(read_documents(src, src_format))
        cased = (truecase(doc, lexicon) for doc in read_documents(src, src_format))
        return write_documents(cased, dst, dst_format), lexicon


def _clean_stream(
    docs: Iterator[Document],
    stages: List[str],
    thresholds: FilterThresholds,
    target_lang: str,
    on_drop: Callable[[Document, str, DropReason], None],
    tallies: Dict[str, CorpusStats],
) -> Iterator[Document]:
    """Drive ingest through heuristics one document at a time.

    Runs the named cleaning stages in canonical order, reports each dropped
    document to on_drop(doc, stage, reason) and adds every stage's output
    to tallies[stage].  A document is counted at ingest and after strip;
    the later stages pass it on unchanged and add those counts.
    """
    profiles = None  # built at the first document that needs identifying
    cores = Memo(stopword_core)
    seen_digests: set = set()
    reader = iter(docs)
    while True:
        with _stage("ingest"):
            doc = next(reader, None)
        if doc is None:
            return
        counts = tallies["ingest"].add_document(doc)

        if "strip" in stages:
            with _stage("strip"):
                text = strip_markup(doc.text)
            # tag removal can change tokenization; lemmas stay only while aligned
            lemmas = doc.lemmas
            if lemmas is not None and len(lemmas) != len(text.split()):
                lemmas = None
            doc = Document(id=doc.id, text=text, lang_tag=doc.lang_tag, lemmas=lemmas)
            counts = tallies["strip"].add_document(doc)

        if "langfilter" in stages:
            if doc.lang_tag != target_lang:
                if profiles is None:
                    profiles = default_profiles()
                try:
                    lang, prob = detect_language(doc.text, profiles)
                except TextTooShort:
                    lang, prob = None, 0.0
                if lang != target_lang or prob < thresholds.lang_confidence_min:
                    on_drop(
                        doc,
                        "langfilter",
                        DropReason(NON_TARGET_LANGUAGE, {"lang": lang, "prob": round(prob, 6)}),
                    )
                    continue
            tallies["langfilter"].add(counts)

        if "dedup" in stages:
            digest = dedup_key(doc.text)
            if digest in seen_digests:
                on_drop(doc, "dedup", DropReason(DUPLICATE, digest.hex()))
                continue
            seen_digests.add(digest)
            tallies["dedup"].add(counts)

        if "heuristics" in stages:
            reason = heuristic_filter(doc, thresholds, cores)
            if reason is not None:
                on_drop(doc, "heuristics", reason)
                continue
            tallies["heuristics"].add(counts)

        yield doc


def clean_file(
    src: str, src_format: str, dst: str, dst_format: str, stages: List[str],
    thresholds: FilterThresholds, target_lang: Optional[str], drops_path: Optional[str],
    tallies: Optional[Dict[str, CorpusStats]] = None,
) -> Tuple[int, Counter]:
    """The cleaning stages over src into dst; (documents kept, drops by kind).

    Each dropped document is one line of the drop log at drops_path (none if
    None).  dst and the drop log appear together once the stages complete; a
    drop log that is src or dst (links count) is refused before either opens.
    """
    refuse_shared_files([("input", src), ("output", dst)], [("drop log", drops_path)])
    drops: Counter = Counter()
    with _stage("output"), open_output(drops_path or os.devnull) as drop_log:

        def on_drop(doc: Document, stage: str, reason: DropReason) -> None:
            drops[reason.kind] += 1
            if drops_path is not None:  # no per-drop encoding for os.devnull
                record = dict(id=doc.id, stage=stage, reason=reason.kind, detail=reason.detail)
                drop_log.write(json_line(record))

        stream = _clean_stream(read_documents(src, src_format), stages, thresholds, target_lang,
                               on_drop, defaultdict(CorpusStats) if tallies is None else tallies)
        return write_documents(stream, dst, dst_format), drops


def run_pipeline(config: PipelineConfig, workers: int = 1) -> PipelineReport:
    """Execute enabled stages, write artifacts, and return the report."""
    out = partial(os.path.join, config.out_dir)
    artifacts = {  # the report's record, in its order, which is the order they are refused in
        "cleaned": out("cleaned.jsonl"),
        "vocab": out("vocab.txt"),
        "merges": out("merges.txt"),
        "shards": shard_paths(config.out_dir, config.generation.shards),
        "drops": out("drops.jsonl"),
        "report": config.report_path or out("report.jsonl"),
    }
    inputs = [("input", config.input_path), ("stopword list", config.stopwords_path),
              ("lexicon", config.truecase_lexicon_path)]
    refuse_shared_files(inputs, [
        ("shard" if name == "shards" else name, path)
        for name, paths in artifacts.items() for path in (paths if name == "shards" else [paths])
    ])
    cleaned_path, report_path = artifacts["cleaned"], artifacts["report"]
    with _stage("output"):
        make_output_dir(config.out_dir)
        if os.path.isfile(report_path) and not os.path.islink(report_path):
            os.remove(report_path)

    enabled = config.stages.enabled()
    tallies = {name: CorpusStats() for name in ["ingest"] + enabled if name != "truecase"}
    thresholds = config.thresholds  # a disabled heuristics stage loads no stopword list
    if config.stages.heuristics:
        thresholds = with_stopwords(thresholds, config.stopwords_path)

    _, drops = clean_file(config.input_path, config.input_format, cleaned_path, "json-lines",
                          enabled, thresholds, config.target_lang, artifacts["drops"], tallies)

    if config.stages.truecase:  # the lexicon is dropped here, or its memo lives on to the end
        truecase_file(cleaned_path, "json-lines", cleaned_path, "json-lines",
                      config.truecase_lexicon_path)

    # stage-by-stage stats: each enabled stage's output is the next input
    stage_reports: List[StageReport] = []
    previous = tallies["ingest"]
    for name in enabled:
        output = tallies.get(name, previous)  # truecase has no tally: it keeps every count
        dropped = previous.documents - output.documents
        stage_reports.append(StageReport(name, previous, output, dropped))
        previous = output

    with _stage("bpe"):
        vocab = train_bpe(read_documents(cleaned_path, "json-lines"), config.vocab_size)
        vocab.save(artifacts["vocab"], artifacts["merges"])

    with _stage("examples"):
        docs = read_documents(cleaned_path, "json-lines")
        _, instance_count = write_examples(docs, vocab, config.generation, config.out_dir, workers)

    report = PipelineReport(
        stages=stage_reports,
        before=tallies["ingest"],
        after=previous,
        drops_by_reason=dict(sorted(drops.items())),
        artifacts=artifacts,
        instances=instance_count,
    )
    with _stage("output"):
        write_jsonl(report.records(), report_path)
    return report
