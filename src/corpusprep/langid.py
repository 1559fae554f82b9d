"""Character n-gram naive Bayes language identification.

A profile per language holds counts of 1- to 3-character grams collected from
seed text.  Detection lowercases the input, strips digits and URLs, pads each
word with spaces and scores the gram stream against every profile with
additive smoothing; the winning language is returned with its normalized
posterior.

Small seed texts for Estonian, English, Finnish, German and Russian ship with
the package, enough to separate languages reliably at document granularity.
Profiles can also be trained from any text.
"""

from __future__ import annotations

import math
import re
import unicodedata
from dataclasses import dataclass, field
from importlib import resources
from typing import Dict, Iterator, Tuple

from .errors import TextTooShort

NGRAM_RANGE = (1, 2, 3)
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
    """All 1-3 grams of the space-padded words of already-normalized text."""
    for word in normalized.split():
        padded = f" {word} "
        for n in NGRAM_RANGE:
            for i in range(len(padded) - n + 1):
                gram = padded[i : i + n]
                if gram != " " * n:
                    yield gram


@dataclass
class LanguageProfiles:
    """Per-language n-gram counts plus the shared gram vocabulary."""

    counts: Dict[str, Dict[str, int]] = field(default_factory=dict)
    totals: Dict[str, int] = field(default_factory=dict)

    def train(self, lang: str, text: str) -> None:
        bucket = self.counts.setdefault(lang, {})
        total = 0
        for gram in iter_ngrams(normalize(text)):
            bucket[gram] = bucket.get(gram, 0) + 1
            total += 1
        self.totals[lang] = self.totals.get(lang, 0) + total

    def vocabulary_size(self) -> int:
        grams = set()
        for bucket in self.counts.values():
            grams.update(bucket)
        return len(grams)


def detect_language(text: str, profiles: LanguageProfiles) -> Tuple[str, float]:
    """Return the maximum-posterior language and its normalized posterior.

    Raises TextTooShort when the normalized text has no alphabetic character.
    """
    if not profiles.counts:
        raise ValueError("profiles are empty")
    normalized = normalize(text)
    if not any(ch.isalpha() for ch in normalized):
        raise TextTooShort("no alphabetic content to identify")

    grams = list(iter_ngrams(normalized))
    vocab = profiles.vocabulary_size()
    scores: dict[str, float] = {}
    log_prior = -math.log(len(profiles.counts))
    for lang, bucket in profiles.counts.items():
        denom = profiles.totals.get(lang, 0) + _SMOOTHING * (vocab + 1)
        score = log_prior
        for gram in grams:
            score += math.log((bucket.get(gram, 0) + _SMOOTHING) / denom)
        scores[lang] = score

    # normalize in log space; ties broken by language code for determinism
    peak = max(scores.values())
    total = sum(math.exp(s - peak) for s in scores.values())
    best = min(scores, key=lambda lang: (-scores[lang], lang))
    return best, math.exp(scores[best] - peak) / total


_default_profiles: LanguageProfiles | None = None


def default_profiles() -> LanguageProfiles:
    """Profiles trained from the packaged seed texts (cached)."""
    global _default_profiles
    if _default_profiles is None:
        profiles = LanguageProfiles()
        for lang in _SEED_LANGUAGES:
            seed = resources.files("corpusprep.data").joinpath(f"langseed/{lang}.txt")
            profiles.train(lang, seed.read_text(encoding="utf-8"))
        _default_profiles = profiles
    return _default_profiles
