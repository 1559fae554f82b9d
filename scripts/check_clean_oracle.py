"""Run langid, the quality heuristics and truecasing and their references on one corpus.

    python3 scripts/check_clean_oracle.py .perfbench-work/clean/corpus.jsonl

Strips the markup of every document of the json-lines corpus, then compares
``detect_language`` with the counts-based detector in
``tests/langid_oracle.py`` (language and posterior, bit for bit),
``heuristic_filter`` with the per-token filter in ``tests/cleaning_oracle.py``
(the same verdict and detail, under run's thresholds and under ones where
any stopword, then any punctuation, drops a document with its ratio) and
``truecase_text`` with the per-token truecaser there (the same text), under
a casing lexicon built from the stripped documents' lemmas.  The shipped
functions share one memo each across the documents, as a cleaning run
does: a ``Memo`` of stopword cores and the lexicon's own rewrites.  Prints
one line with the document count, each stage's time on both sides and
whether every result is identical; exits 0 when it is, 1 when it is not.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from cleaning_oracle import oracle_heuristic_filter, oracle_truecase_text  # noqa: E402
from langid_oracle import oracle_detect_language, oracle_profiles, seed_texts  # noqa: E402
from corpusprep.cleaning import (  # noqa: E402
    default_stopwords, heuristic_filter, stopword_core, strip_markup
)
from corpusprep.config import FilterThresholds  # noqa: E402
from corpusprep.errors import TextTooShort  # noqa: E402
from corpusprep.ingest import Document, Memo, read_documents  # noqa: E402
from corpusprep.langid import default_profiles, detect_language  # noqa: E402
from corpusprep.truecase import build_casing_lexicon, truecase_text  # noqa: E402


def _stripped(doc: Document) -> Document:
    """The document after the strip stage: lemmas stay only while aligned."""
    text = strip_markup(doc.text)
    lemmas = doc.lemmas if doc.lemmas is not None and len(doc.lemmas) == len(text.split()) else None
    return Document(id=doc.id, text=text, lang_tag=doc.lang_tag, lemmas=lemmas)


def _timed(fn, docs):
    """fn of each document, and the seconds that took."""
    start = time.perf_counter()
    results = [fn(doc) for doc in docs]
    return results, time.perf_counter() - start


def _language(detect, profiles):
    def run(doc):
        try:
            return detect(doc.text, profiles)
        except TextTooShort:
            return None

    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("corpus", help="json-lines corpus file")
    args = parser.parse_args(argv)

    docs = [_stripped(doc) for doc in read_documents(args.corpus, "json-lines")]
    stopwords = default_stopwords()
    # run's thresholds, then ones under which the measured ratios show in the drop details
    thresholds = [
        FilterThresholds(stopwords=stopwords),
        FilterThresholds(min_words=1, max_stopword_ratio=0.0, stopwords=stopwords),
        FilterThresholds(min_words=1, max_stopword_ratio=1.0, max_punct_ratio=0.0),
    ]
    lexicon = build_casing_lexicon(docs)
    cores = Memo(stopword_core)
    stages = {
        "langid": (
            _language(detect_language, default_profiles()),
            _language(oracle_detect_language, oracle_profiles(seed_texts())),
        ),
        "heuristics": (
            lambda doc: [heuristic_filter(doc, each, cores) for each in thresholds],
            lambda doc: [oracle_heuristic_filter(doc, each) for each in thresholds],
        ),
        "truecase": (
            lambda doc: truecase_text(doc.text, lexicon),
            lambda doc: oracle_truecase_text(doc.text, lexicon),
        ),
    }
    timings, differing = [], []
    for name, (shipped, oracle) in stages.items():
        actual, shipped_s = _timed(shipped, docs)
        expected, oracle_s = _timed(oracle, docs)
        timings.append(f"{name}_s={shipped_s:.3f} oracle_{name}_s={oracle_s:.3f}")
        if actual != expected:
            differing.append(name)
    verdict = f"no ({','.join(differing)})" if differing else "yes"
    print(f"documents={len(docs)} {' '.join(timings)} identical={verdict}")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
