"""Slow reference quality heuristics and truecasing: work per token and per character.

``oracle_heuristic_filter`` is the quality filter ``corpusprep.cleaning``
shipped before it counted characters with a ``Counter`` and memoized each
token's stopword core: one ``_is_punct`` call per non-space character and
one ``split_punct`` call per token.  ``oracle_truecase_text`` is the
truecaser ``corpusprep.truecase`` shipped before it split on whitespace and
memoized each distinct token's rewrite: a ``re.sub`` callback per token.
Both are kept only as the oracles that ``heuristic_filter`` and
``truecase_text`` must match, verdict for verdict and byte for byte.
"""

from __future__ import annotations

import re
from typing import Optional

from corpusprep.cleaning import (
    TOO_FEW_WORDS,
    TOO_MANY_STOPWORDS,
    TOO_MUCH_PUNCTUATION,
    DropReason,
    _is_punct,
    split_punct,
)
from corpusprep.config import FilterThresholds
from corpusprep.ingest import Document
from corpusprep.truecase import CasingLexicon

# a token as str.split() sees it: re's \s and str.split() agree on every code point
_TOKEN = re.compile(r"\S+")


def oracle_heuristic_filter(doc: Document, thresholds: FilterThresholds) -> Optional[DropReason]:
    words = doc.tokens()
    if len(words) < thresholds.min_words:
        return DropReason(TOO_FEW_WORDS, len(words))

    stopword_count = sum(
        1 for word in words if split_punct(word.lower())[1] in thresholds.stopwords
    )
    stopword_ratio = stopword_count / len(words)
    if stopword_ratio > thresholds.max_stopword_ratio:
        return DropReason(TOO_MANY_STOPWORDS, stopword_ratio)

    non_space = [ch for ch in doc.text if not ch.isspace()]
    if non_space:
        punct_ratio = sum(1 for ch in non_space if _is_punct(ch)) / len(non_space)
        if punct_ratio > thresholds.max_punct_ratio:
            return DropReason(TOO_MUCH_PUNCTUATION, punct_ratio)

    return None


def oracle_truecase_text(text: str, lexicon: CasingLexicon) -> str:
    def rewrite(match: re.Match) -> str:
        lead, core, trail = split_punct(match.group(0))
        if core and not any(ch.isupper() for ch in core[1:]):
            canonical = lexicon.lookup(core.lower())
            if canonical is not None:
                return lead + canonical + trail
        return match.group(0)

    return _TOKEN.sub(rewrite, text)
