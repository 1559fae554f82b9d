"""Character n-gram naive Bayes language identification.

A profile per language is a log-probability table over 1- to 3-character
grams, built once by ``LanguageProfiles.from_texts`` from seed text with
additive smoothing, plus one floor for grams the language never showed.
Detection lowercases the input, strips digits and URLs, pads each word with
spaces and sums the gram stream's table entries for every language; the
winning language is returned with its normalized posterior.

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
from functools import lru_cache
from importlib import resources
from typing import Dict, Iterator, Tuple

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
    scores: dict[str, float] = {}
    log_prior = -math.log(len(profiles.logprobs))
    for lang, table in profiles.logprobs.items():
        floor = profiles.unseen[lang]
        score = log_prior
        # an explicit loop: sum() of floats compensates since Python 3.12 and rounds differently
        for gram in grams:
            score += table.get(gram, floor)
        scores[lang] = score

    # normalize in log space; ties broken by language code for determinism
    peak = max(scores.values())
    total = sum(math.exp(s - peak) for s in scores.values())
    best = min(scores, key=lambda lang: (-scores[lang], lang))
    return best, math.exp(scores[best] - peak) / total


@lru_cache(maxsize=None)
def default_profiles() -> LanguageProfiles:
    """Profiles built from the packaged seed texts (cached)."""
    seeds = resources.files("corpusprep.data").joinpath("langseed")
    return LanguageProfiles.from_texts(
        {lang: (seeds / f"{lang}.txt").read_text(encoding="utf-8") for lang in _SEED_LANGUAGES}
    )
