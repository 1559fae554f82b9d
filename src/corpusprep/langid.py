"""Character n-gram naive Bayes language identification.

A profile per language is a log-probability table over 1- to 3-character
grams, built once by ``LanguageProfiles.from_texts`` from seed text with
additive smoothing, plus one floor for grams the language never showed.
Detection lowercases the input, strips digits and URLs, pads each word with
spaces and sums the gram stream's table entries for every language; the
winning language is returned with its normalized posterior.  Through the
profiles' ``rows``, built at the first detection, one lookup per gram serves
five languages' sums.

Small seed texts for Estonian, English, Finnish, German and Russian ship with
the package, enough to separate languages reliably at document granularity.
Profiles can also be built from any text.
"""

from __future__ import annotations

import math
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from itertools import repeat
from typing import Dict, Iterator, List, Tuple

from .errors import TextTooShort

_SMOOTHING = 0.5

_URL = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_DIGITS = re.compile(r"\d+")
_SPACES = re.compile(r"\s+")

_SEED_LANGUAGES = ("de", "en", "et", "fi", "ru")


def normalize(text: str) -> str:
    """Detector-standard normalization: lowercase, no URLs, no digits."""
    text = unicodedata.normalize("NFKC", text).lower()
    text = _URL.sub(" ", text)
    text = _DIGITS.sub(" ", text)
    return _SPACES.sub(" ", text).strip()


def iter_ngrams(normalized: str) -> Iterator[str]:
    """All 1-3 grams of the space-padded words of already-normalized text: per
    word, its characters, then the 2-grams and then the 3-grams of " word "."""
    for word in normalized.split():
        padded = f" {word} "
        yield from word
        for i in range(len(padded) - 1):
            yield padded[i : i + 2]
        for i in range(len(padded) - 2):
            yield padded[i : i + 3]


@dataclass(frozen=True)
class LanguageProfiles:
    """Per language: gram -> log P(gram), and the log-probability of an unseen gram."""

    logprobs: Dict[str, Dict[str, float]]
    unseen: Dict[str, float]

    @classmethod
    def from_texts(cls, texts: Dict[str, str]) -> "LanguageProfiles":
        """Profiles from one seed text per language, kept in the dict's order."""
        counts = {lang: Counter(iter_ngrams(normalize(text))) for lang, text in texts.items()}
        vocab = len(set().union(*counts.values()))
        logprobs: Dict[str, Dict[str, float]] = {}
        unseen: Dict[str, float] = {}
        for lang, bucket in counts.items():
            denom = sum(bucket.values()) + _SMOOTHING * (vocab + 1)
            # grams with the same count share one float object, which keeps the tables small
            by_count = {n: math.log((n + _SMOOTHING) / denom) for n in set(bucket.values())}
            logprobs[lang] = {gram: by_count[n] for gram, n in bucket.items()}
            unseen[lang] = math.log(_SMOOTHING / denom)
        return cls(logprobs, unseen)

    @cached_property
    def rows(self) -> List[Tuple[Dict[str, List[float]], Tuple[float, ...]]]:
        """Per block of five languages in profile order: gram -> the list of their log-probabilities
        (a floor where one never saw the gram), and the tuple of floors; 0.0 pads a short block.
        Built at the first detection.  The rows are lists because freed 5-tuples stay on the
        interpreter's free list and hold memory after a run."""
        langs = list(self.logprobs)
        blocks = []
        for start in range(0, len(langs), 5):
            tables = [self.logprobs[lang] for lang in langs[start : start + 5]]
            pad = 5 - len(tables)
            floor = tuple(self.unseen[lang] for lang in langs[start : start + 5]) + (0.0,) * pad
            keys = set().union(*tables)
            columns = [[table.get(gram, f) for gram in keys] for table, f in zip(tables, floor)]
            blocks.append((dict(zip(keys, map(list, zip(*columns, *[repeat(0.0)] * pad)))), floor))
        return blocks


def detect_language(text: str, profiles: LanguageProfiles) -> Tuple[str, float]:
    """Return the maximum-posterior language and its normalized posterior.

    Raises TextTooShort when the normalized text has no alphabetic character.
    """
    if not profiles.logprobs:
        raise ValueError("profiles are empty")
    normalized = normalize(text)
    if not any(ch.isalpha() for ch in normalized):
        raise TextTooShort("no alphabetic content to identify")

    grams = list(iter_ngrams(normalized))
    log_prior = -math.log(len(profiles.logprobs))
    sums: List[float] = []
    for table, floor in profiles.rows:
        # an explicit loop: sum() of floats compensates since Python 3.12 and rounds differently;
        # each column is one language's left fold in gram order, the padded ones dropped by zip
        s0 = s1 = s2 = s3 = s4 = log_prior
        for a, b, c, d, e in map(table.get, grams, repeat(floor)):
            s0 += a
            s1 += b
            s2 += c
            s3 += d
            s4 += e
        sums += (s0, s1, s2, s3, s4)
    scores = dict(zip(profiles.logprobs, sums))

    # normalize in log space; ties broken by language code for determinism
    peak = max(scores.values())
    total = sum(math.exp(s - peak) for s in scores.values())
    best = min(scores, key=lambda lang: (-scores[lang], lang))
    return best, math.exp(scores[best] - peak) / total


def default_profiles() -> LanguageProfiles:
    """Profiles from the packaged seed texts, built by each call: keep them to detect many texts."""
    seeds = resources.files("corpusprep.data").joinpath("langseed")
    return LanguageProfiles.from_texts(
        {lang: (seeds / f"{lang}.txt").read_text(encoding="utf-8") for lang in _SEED_LANGUAGES}
    )
