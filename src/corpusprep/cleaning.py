"""Document cleaning stages: markup stripping, dedup keys, heuristic filters.

Every function here works on one document and is pure: strip_markup,
dedup_key and heuristic_filter.  The stages themselves, including the set of
seen dedup digests and heuristic_filter's memo of stopword cores, run in
pipeline._clean_stream.  Language filtering lives in langid; truecasing in
truecase.
"""

from __future__ import annotations

import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from typing import FrozenSet, Iterable, Optional, Tuple

from .config import FilterThresholds
from .ingest import Document, Memo, blake2b_digest, read_lines

# Drop reason kinds, as written to drop reports.
NON_TARGET_LANGUAGE = "NonTargetLanguage"
DUPLICATE = "Duplicate"
TOO_FEW_WORDS = "TooFewWords"
TOO_MANY_STOPWORDS = "TooManyStopwords"
TOO_MUCH_PUNCTUATION = "TooMuchPunctuation"

DROP_KINDS = frozenset(
    {NON_TARGET_LANGUAGE, DUPLICATE, TOO_FEW_WORDS, TOO_MANY_STOPWORDS, TOO_MUCH_PUNCTUATION}
)


@dataclass(frozen=True)
class DropReason:
    """Why a document was removed, with the measured value that triggered it."""

    kind: str
    detail: object

    def __post_init__(self) -> None:
        if self.kind not in DROP_KINDS:
            raise ValueError(f"unknown drop kind: {self.kind!r}")


# --- markup stripping ---------------------------------------------------

# A junction is one or more complete tags plus any whitespace between and
# around them.  It collapses to a single space when it contained whitespace
# (tags separated words) and to nothing otherwise (tags hugged the text).
_JUNCTION = re.compile(r"\s*(?:<[^>]*>\s*)+")
_ENTITY = re.compile(r"&(amp|lt|gt|quot|apos);|&#(\d+);|&#[xX]([0-9a-fA-F]+);")
_NAMED_ENTITIES = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}


def _junction_repl(match: re.Match) -> str:
    return " " if any(ch.isspace() for ch in match.group(0)) else ""


def _entity_repl(match: re.Match) -> str:
    name, dec, hexa = match.groups()
    if name:
        return _NAMED_ENTITIES[name]
    digits = (dec or hexa).lstrip("0") or "0"
    if len(digits) > 7:
        return match.group(0)  # far past U+10FFFF; int() refuses huge decimals
    code = int(digits, 10 if dec else 16)
    if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
        return match.group(0)  # not a valid codepoint, keep verbatim
    return chr(code)


def strip_markup(text: str) -> str:
    """Remove tags and decode character entities until a fixed point.

    Decoding can reveal new tags (&lt;b&gt; becomes <b>), so one pass is not
    enough to guarantee idempotence; every rewrite strictly shortens the
    text, so the loop terminates.  A lone "<" without a closing ">" never
    matches and stays verbatim.
    """
    while True:
        stripped = _JUNCTION.sub(_junction_repl, text)
        stripped = _ENTITY.sub(_entity_repl, stripped)
        if stripped == text:
            return text.strip()
        text = stripped


# --- deduplication -------------------------------------------------------


def dedup_key(text: str) -> bytes:
    """Stable 128-bit digest of lowercased, whitespace-normalized text."""
    normalized = " ".join(text.lower().split())
    return blake2b_digest(normalized.encode("utf-8"), 16)


# --- heuristic quality filters -------------------------------------------

def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def split_punct(token: str) -> Tuple[str, str, str]:
    """(leading punctuation, core, trailing punctuation) of one token."""
    start, end = 0, len(token)
    while start < end and _is_punct(token[start]):
        start += 1
    while end > start and _is_punct(token[end - 1]):
        end -= 1
    return token[:start], token[start:end], token[end:]


def stopword_core(token: str) -> str:
    """The form of a token that is looked up in a stopword list."""
    return split_punct(token.lower())[1]


def heuristic_filter(
    doc: Document, thresholds: FilterThresholds, cores: Optional[Memo] = None
) -> Optional[DropReason]:
    """Return the first failing quality check, or None to keep the document.

    Checks run in a fixed order: word count, stopword ratio, punctuation
    ratio.  The verdict depends only on the text and thresholds.  ``cores``,
    a ``Memo(stopword_core)``, keeps each token's stopword core across calls.
    """
    words = doc.tokens()
    if len(words) < thresholds.min_words:
        return DropReason(TOO_FEW_WORDS, len(words))

    cores = Memo(stopword_core) if cores is None else cores
    stopword_count = 0
    for word, n in Counter(words).items():
        if cores[word] in thresholds.stopwords:
            stopword_count += n
    stopword_ratio = stopword_count / len(words)
    if stopword_ratio > thresholds.max_stopword_ratio:
        return DropReason(TOO_MANY_STOPWORDS, stopword_ratio)

    non_space = {ch: n for ch, n in Counter(doc.text).items() if not ch.isspace()}
    if non_space:
        punct = sum(n for ch, n in non_space.items() if _is_punct(ch))
        punct_ratio = punct / sum(non_space.values())
        if punct_ratio > thresholds.max_punct_ratio:
            return DropReason(TOO_MUCH_PUNCTUATION, punct_ratio)

    return None


def _parse_stopwords(lines: Iterable[str]) -> FrozenSet[str]:
    stripped = (line.strip() for line in lines)
    return frozenset(line.lower() for line in stripped if line and not line.startswith("#"))


def load_stopwords(path: str) -> FrozenSet[str]:
    """Read a stopword list: one lowercase form per line, '#' comments."""
    return _parse_stopwords(line for _, line in read_lines(path))


def default_stopwords() -> FrozenSet[str]:
    """The packaged Estonian stopword list."""
    text = resources.files("corpusprep.data").joinpath("stopwords_et.txt").read_text("utf-8")
    return _parse_stopwords(text.splitlines())
