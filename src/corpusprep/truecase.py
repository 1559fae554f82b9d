"""Truecasing from lemma casing evidence.

Lemmas carry the canonical casing of a word (proper nouns keep their capital
letter, everything else is lowercase).  Building a lexicon from (token,
lemma) pairs therefore tells us, per lowercase form, whether its canonical
surface starts with a capital.  Applying the lexicon rewrites tokens whose
lowercase form it knows and leaves everything else alone, which lowers
sentence-initial capitals and restores capitals on proper nouns.  A
lexicon memoizes each distinct token's rewrite in its ``rewrites``, an
``ingest.Memo``.  A rewrite swaps a token's core for a surface with the same
lowercase, so truecasing changes no sentence or word count.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial
from typing import IO, Dict, Iterable, Optional, Tuple

from .cleaning import split_punct
from .errors import MalformedRecord, MissingLemmas
from .ingest import Document, Memo, open_output, read_lines


@dataclass
class CasingLexicon:
    """Maps a lowercase form to its canonical surface form and evidence count."""

    entries: Dict[str, Tuple[str, int]] = field(default_factory=dict)
    rewrites: Memo = field(init=False, repr=False, compare=False)  # token -> its truecased form

    def __post_init__(self) -> None:
        for key, (surface, count) in self.entries.items():
            self._check(key, surface, count)
        self.rewrites = Memo(partial(_rewrite, entries=self.entries))

    @staticmethod
    def _check(key: str, surface: str, count: int) -> None:
        if key != surface.lower():
            raise ValueError(f"key {key!r} is not the lowercase of surface {surface!r}")
        if count < 1:
            raise ValueError(f"evidence count must be positive, got {count}")

    def lookup(self, lowercase_form: str) -> Optional[str]:
        entry = self.entries.get(lowercase_form)
        return entry[0] if entry else None

    def __len__(self) -> int:
        return len(self.entries)

    def save(self, path: str) -> None:
        with open_output(path) as out:
            self.write(out)

    def write(self, out: IO[str]) -> None:
        """Write TSV lines `lowercase<TAB>surface<TAB>count`, sorted by key."""
        for key in sorted(self.entries):
            surface, count = self.entries[key]
            out.write(f"{key}\t{surface}\t{count}\n")

    @classmethod
    def load(cls, path: str) -> "CasingLexicon":
        entries: Dict[str, Tuple[str, int]] = {}
        for line_no, line in read_lines(path):
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise MalformedRecord(line_no, "expected 3 tab-separated fields")
            key, surface, count_text = parts
            try:
                count = int(count_text)
            except ValueError:
                raise MalformedRecord(line_no, f"bad count {count_text!r}") from None
            try:
                cls._check(key, surface, count)
            except ValueError as exc:
                raise MalformedRecord(line_no, str(exc)) from None
            entries[key] = (surface, count)
        return cls(entries)


def _capitalized(form: str) -> str:
    return form[:1].upper() + form[1:]


def build_casing_lexicon(docs: Iterable[Document]) -> CasingLexicon:
    """Vote per lowercase form: lemma capitalized means capitalized surface.

    Conflicting evidence is resolved by majority; ties go to lowercase.  The
    stored count is the number of votes for the winning form.  Documents
    without lemmas are skipped; MissingLemmas if documents were given but
    none of them yields an entry.
    """
    votes: Dict[str, Dict[str, int]] = {}
    given = False
    for doc in docs:
        given = True
        if doc.lemmas is None:
            continue
        for token, lemma in zip(doc.tokens(), doc.lemmas):
            key = token.lower()
            if not key or not lemma:
                continue
            form = _capitalized(key) if lemma[:1].isupper() else key
            if form.lower() != key:  # no vote: a capital that lowercases elsewhere (ﬁ, ß)
                continue
            bucket = votes.setdefault(key, {})
            bucket[form] = bucket.get(form, 0) + 1
    if given and not votes:
        raise MissingLemmas("no document carries lemma annotations to build a casing lexicon from")

    entries: Dict[str, Tuple[str, int]] = {}
    for key, bucket in votes.items():
        best = max(bucket.items(), key=lambda item: (item[1], item[0] == key))
        entries[key] = best
    return CasingLexicon(entries)


# tokens at the split's even positions: re's \s and str.split() agree on every code point
_SPACES = re.compile(r"(\s+)")


def _rewrite(token: str, entries: Dict[str, Tuple[str, int]]) -> str:
    lead, core, trail = split_punct(token)
    if core and not any(ch.isupper() for ch in core[1:]):  # no acronym or camel case
        entry = entries.get(core.lower())
        if entry is not None:
            return lead + entry[0] + trail
    return token


def truecase_text(text: str, lexicon: CasingLexicon) -> str:
    """Rewrite each known token to its canonical casing.

    Tokens with capitals after the first character (acronyms, camel case)
    and tokens the lexicon does not know stay as they are.  Surrounding
    punctuation and all whitespace are preserved.  Idempotent for a fixed
    lexicon.
    """
    parts = _SPACES.split(text)
    parts[::2] = map(lexicon.rewrites.__getitem__, parts[::2])
    return "".join(parts)


def truecase(doc: Document, lexicon: CasingLexicon) -> Document:
    """Document-level truecase_text; id, language tag and lemmas carry over."""
    return Document(
        id=doc.id,
        text=truecase_text(doc.text, lexicon),
        lang_tag=doc.lang_tag,
        lemmas=doc.lemmas,
    )
