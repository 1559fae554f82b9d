"""Seeded synthetic corpora for the corpusprep benchmark.

Word forms come from the packaged ``langseed/*.txt`` texts plus random
forms spelled with the same letters, and are drawn with Zipf weights, so a
few forms are very frequent and most are rare.  Every choice goes through
one ``random.Random(seed)``: the same workload and seed give the same
bytes, another seed gives another corpus of the same shape.
"""

from __future__ import annotations

import json
import os
import random
import unicodedata
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Tuple

TARGET = "et"
FOREIGN = ("de", "en", "fi", "ru")
_VOWELS = set("aeiouõäöü")  # Estonian; random forms use the Estonian seed letters
_SENTENCE_END = (".", ".", ".", "?", "!")


@dataclass(frozen=True)
class Shape:
    """Document mix of one workload; every share is a probability per document."""

    docs: int
    foreign: float  # untagged de/en/fi/ru documents
    duplicate: float  # exact or lowercased copies of an earlier Estonian document
    short: float  # one sentence below the 10-word heuristic floor
    markup: float  # Estonian documents wrapped in <p>, with <b> and entities inside
    lemmas: float  # Estonian documents that carry a lemma per token
    tagged: float  # Estonian documents that carry "lang": "et"
    random_forms: int  # random Estonian word forms ranked after the seed words
    sentences: Tuple[int, int] = (2, 6)
    words: Tuple[int, int] = (8, 16)


SHAPES: Dict[str, Shape] = {
    "clean": Shape(
        docs=500, foreign=0.20, duplicate=0.10, short=0.05, markup=0.80,
        lemmas=0.33, tagged=0.15, random_forms=2000,
    ),
    "vocab": Shape(
        docs=700, foreign=0.0, duplicate=0.0, short=0.0, markup=0.0,
        lemmas=0.03, tagged=0.98, random_forms=2000,
    ),
    "examples": Shape(
        docs=250, foreign=0.0, duplicate=0.0, short=0.0, markup=0.0,
        lemmas=0.03, tagged=0.98, random_forms=150,
    ),
}


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def _seed_words(path: str) -> Tuple[List[str], set]:
    """Lowercase word forms by descending frequency, and the proper nouns.

    A form counts as a proper noun when it is capitalized somewhere other
    than at the start of a sentence.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    counts: Dict[str, int] = {}
    proper = set()
    sentence_start = True
    for token in text.split():
        core = token.strip("".join(ch for ch in set(token) if _is_punct(ch)))
        if core.isalpha():
            key = core.lower()
            counts[key] = counts.get(key, 0) + 1
            if core[0].isupper() and not sentence_start:
                proper.add(key)
        sentence_start = token[-1] in ".?!"
    ordered = sorted(counts, key=lambda w: (-counts[w], w))
    return ordered, proper


class _Lexicon:
    """One language's forms with Zipf cumulative weights."""

    def __init__(self, words: List[str], proper: set, zipf: float = 1.0):
        self.words = words
        self.proper = proper
        self.cum = list(accumulate(1.0 / (rank + 1) ** zipf for rank in range(len(words))))

    def draw(self, rng: random.Random, k: int) -> List[str]:
        return rng.choices(self.words, cum_weights=self.cum, k=k)

    def lemma(self, word: str) -> str:
        return word.capitalize() if word in self.proper else word


def _random_forms(rng: random.Random, letters: str, count: int, taken: set) -> List[str]:
    vowels = [ch for ch in letters if ch in _VOWELS]
    consonants = [ch for ch in letters if ch not in _VOWELS]
    forms: List[str] = []
    seen = set(taken)
    while len(forms) < count:
        syllables = rng.randint(2, 4)
        form = "".join(
            rng.choice(consonants) + rng.choice(vowels) + (rng.choice(consonants) if rng.random() < 0.3 else "")
            for _ in range(syllables)
        )
        if form not in seen:
            seen.add(form)
            forms.append(form)
    return forms


def _lexicons(seed_dir: str, rng: random.Random, random_forms: int) -> Dict[str, _Lexicon]:
    out = {}
    for lang in (TARGET,) + FOREIGN:
        words, proper = _seed_words(os.path.join(seed_dir, f"{lang}.txt"))
        if lang == TARGET:
            letters = "".join(sorted({ch for w in words for ch in w if ch.isalpha()}))
            words = words + _random_forms(rng, letters, random_forms, set(words))
        out[lang] = _Lexicon(words, proper)
    return out


def _sentence(rng: random.Random, lex: _Lexicon, n_words: int) -> Tuple[List[str], List[str]]:
    """Surface tokens and their lemmas; proper nouns keep their capital."""
    lemmas = [lex.lemma(w) for w in lex.draw(rng, n_words)]
    tokens = list(lemmas)
    tokens[0] = tokens[0][:1].upper() + tokens[0][1:]
    for i in range(1, len(tokens) - 1):
        if rng.random() < 0.06:
            tokens[i] += ","
    tokens[-1] += rng.choice(_SENTENCE_END)
    return tokens, lemmas


def _markup(rng: random.Random, sentences: List[List[str]]) -> None:
    """Hug tokens with tags and entities so whitespace tokens stay aligned.

    Tags never touch a sentence start or end: a tag between two lines would
    merge them when stripped.
    """
    for tokens in sentences:
        for i in range(1, len(tokens) - 1):
            roll = rng.random()
            if roll < 0.06:
                tokens[i] = f"<b>{tokens[i]}</b>"
            elif roll < 0.08:
                tokens[i] = f"&quot;{tokens[i]}&quot;"
            elif roll < 0.09:
                tokens[i] = tokens[i].replace("õ", "&#245;")
    sentences[0][0] = "<p>" + sentences[0][0]
    sentences[-1][-1] = sentences[-1][-1] + "</p>"


def _document(
    rng: random.Random, lex: _Lexicon, shape: Shape, n_sentences: int, markup: bool
) -> Tuple[str, List[str]]:
    """Newline-separated sentences and one lemma per whitespace token."""
    sentences, lemmas = [], []
    for _ in range(n_sentences):
        tokens, sentence_lemmas = _sentence(rng, lex, rng.randint(*shape.words))
        sentences.append(tokens)
        lemmas.extend(sentence_lemmas)
    if markup:
        _markup(rng, sentences)
    return "\n".join(" ".join(tokens) for tokens in sentences), lemmas


def generate(workload: str, seed: int, seed_dir: str) -> Tuple[List[dict], dict]:
    """Records of one workload and the measured shares of its properties."""
    shape = SHAPES[workload]
    rng = random.Random(f"{workload}:{seed}")
    lexicons = _lexicons(seed_dir, rng, shape.random_forms)
    records: List[dict] = []
    originals: List[dict] = []
    labels = {"foreign": 0, "duplicate": 0, "short": 0}
    for index in range(shape.docs):
        doc_id = f"{workload}-{seed}-{index:06d}"
        roll = rng.random()
        if roll < shape.foreign:
            lang = rng.choice(FOREIGN)
            text, _ = _document(rng, lexicons[lang], shape, rng.randint(*shape.sentences), False)
            record = {"id": doc_id, "text": text}
            labels["foreign"] += 1
        elif roll < shape.foreign + shape.duplicate and originals:
            source = rng.choice(originals)
            record = dict(source, id=doc_id)
            if rng.random() < 0.5:
                record["text"] = source["text"].lower()
            labels["duplicate"] += 1
        else:
            short = roll < shape.foreign + shape.duplicate + shape.short
            lex = lexicons[TARGET]
            if short:
                tokens, sentence_lemmas = _sentence(rng, lex, rng.randint(3, 8))
                text, lemmas = " ".join(tokens), sentence_lemmas
                labels["short"] += 1
            else:
                n_sentences = rng.randint(*shape.sentences)
                text, lemmas = _document(rng, lex, shape, n_sentences, rng.random() < shape.markup)
            record = {"id": doc_id, "text": text}
            if rng.random() < shape.tagged:
                record["lang"] = TARGET
            if rng.random() < shape.lemmas:
                record["lemmas"] = lemmas
            if not short:
                originals.append(record)
        records.append(record)
    return records, measure(records, labels)


def measure(records: List[dict], labels: Dict[str, int]) -> dict:
    """Shares of the properties each workload exercises, read off the records."""
    n = len(records)
    words = [w for r in records for w in unicodedata.normalize("NFKC", r["text"]).split()]
    body = "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records)
    return {
        "documents": n,
        "markup_share": round(sum("<" in r["text"] or "&" in r["text"] for r in records) / n, 4),
        "lemma_share": round(sum("lemmas" in r for r in records) / n, 4),
        "duplicate_share": round(labels["duplicate"] / n, 4),
        "non_target_share": round(labels["foreign"] / n, 4),
        "short_share": round(labels["short"] / n, 4),
        "tagged_share": round(sum("lang" in r for r in records) / n, 4),
        "word_types": len(set(words)),
        "tokens": len(words),
        "bytes": len(body.encode("utf-8")),
    }


def alphabet_bound(seed_dir: str) -> int:
    """Upper bound on BPE's alphabet floor for a corpus of Estonian forms.

    The floor is the five specials, the word-boundary marker and every
    character of the cleaned text.  Estonian records use the seed letters in
    either case plus sentence punctuation and the quote that ``&quot;``
    decodes to; random forms reuse the seed letters.
    """
    words, _ = _seed_words(os.path.join(seed_dir, f"{TARGET}.txt"))
    letters = {ch for w in words for ch in w}
    letters |= {ch.upper() for ch in letters}
    return 5 + 1 + len(letters) + len(set(_SENTENCE_END) | {",", '"'})


def write_jsonl(records: List[dict], path: str) -> None:
    with open(path, "w", encoding="utf-8") as out:
        for record in records:
            out.write(json.dumps(record, ensure_ascii=False) + "\n")
