"""Slow reference language detector: raw counts, probabilities per call.

Profiles hold raw n-gram counts, and every detection call rebuilds the gram
vocabulary over all languages and takes one ``math.log`` per gram per
language.  This is the detector ``corpusprep.langid`` shipped before its
profiles became log-probability tables, kept only as the oracle that
``corpusprep.langid.detect_language`` must match language for language and
bit for bit in the posterior.  Its gram stream is ``oracle_iter_ngrams``,
the generator ``corpusprep.langid.iter_ngrams`` replaced, which slices every
1-, 2- and 3-gram of each padded word and drops the all-space ones.  It
shares only ``normalize`` and the seed language order with
``corpusprep.langid``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from importlib import resources
from typing import Dict, Iterator, Tuple

from corpusprep.errors import TextTooShort
from corpusprep.langid import _SEED_LANGUAGES, normalize

_SMOOTHING = 0.5


def oracle_iter_ngrams(normalized: str) -> Iterator[str]:
    """All 1-3 grams of the space-padded words, n by n, all-space grams dropped."""
    for word in normalized.split():
        padded = f" {word} "
        for n in (1, 2, 3):
            for i in range(len(padded) - n + 1):
                gram = padded[i : i + n]
                if gram != " " * n:
                    yield gram


@dataclass
class OracleProfiles:
    """Per-language n-gram counts plus the shared gram vocabulary."""

    counts: Dict[str, Dict[str, int]] = field(default_factory=dict)
    totals: Dict[str, int] = field(default_factory=dict)

    def train(self, lang: str, text: str) -> None:
        bucket = self.counts.setdefault(lang, {})
        total = 0
        for gram in oracle_iter_ngrams(normalize(text)):
            bucket[gram] = bucket.get(gram, 0) + 1
            total += 1
        self.totals[lang] = self.totals.get(lang, 0) + total

    def vocabulary_size(self) -> int:
        grams = set()
        for bucket in self.counts.values():
            grams.update(bucket)
        return len(grams)


def oracle_profiles(texts: Dict[str, str]) -> OracleProfiles:
    """Counts trained from one text per language, in the dict's order."""
    profiles = OracleProfiles()
    for lang, text in texts.items():
        profiles.train(lang, text)
    return profiles


def seed_texts() -> Dict[str, str]:
    """The packaged seed texts, in the order the default profiles train them."""
    seeds = resources.files("corpusprep.data").joinpath("langseed")
    return {
        lang: seeds.joinpath(f"{lang}.txt").read_text(encoding="utf-8")
        for lang in _SEED_LANGUAGES
    }


def oracle_detect_language(text: str, profiles: OracleProfiles) -> Tuple[str, float]:
    if not profiles.counts:
        raise ValueError("profiles are empty")
    normalized = normalize(text)
    if not any(ch.isalpha() for ch in normalized):
        raise TextTooShort("no alphabetic content to identify")

    grams = list(oracle_iter_ngrams(normalized))
    vocab = profiles.vocabulary_size()
    scores: dict[str, float] = {}
    log_prior = -math.log(len(profiles.counts))
    for lang, bucket in profiles.counts.items():
        denom = profiles.totals.get(lang, 0) + _SMOOTHING * (vocab + 1)
        score = log_prior
        for gram in grams:
            score += math.log((bucket.get(gram, 0) + _SMOOTHING) / denom)
        scores[lang] = score

    peak = max(scores.values())
    total = sum(math.exp(s - peak) for s in scores.values())
    best = min(scores, key=lambda lang: (-scores[lang], lang))
    return best, math.exp(scores[best] - peak) / total
