"""Casing lexicon construction and truecasing application."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusprep.cleaning import split_punct
from corpusprep.errors import MalformedRecord, MissingLemmas
from corpusprep.ingest import Document, compute_stats
from corpusprep.truecase import (
    CasingLexicon,
    build_casing_lexicon,
    truecase,
    truecase_text,
)


def _doc(text, lemmas):
    return Document(id="d", text=text, lemmas=lemmas)


class TestBuildLexicon:
    def test_capitalized_lemma_votes_capitalized_surface(self):
        lex = build_casing_lexicon([_doc("tallinn", ("Tallinn",))])
        assert lex.lookup("tallinn") == "Tallinn"

    def test_lowercase_lemma_votes_lowercase_surface(self):
        lex = build_casing_lexicon([_doc("Täna", ("täna",))])
        assert lex.lookup("täna") == "täna"

    def test_majority_wins(self):
        docs = [
            _doc("eesti eesti eesti", ("Eesti", "Eesti", "eesti")),
        ]
        lex = build_casing_lexicon(docs)
        assert lex.lookup("eesti") == "Eesti"
        assert lex.entries["eesti"][1] == 2  # winning vote count stored

    def test_tie_goes_to_lowercase(self):
        docs = [_doc("maja maja", ("Maja", "maja"))]
        lex = build_casing_lexicon(docs)
        assert lex.lookup("maja") == "maja"

    def test_unannotated_document_rejected(self):
        with pytest.raises(MissingLemmas):
            build_casing_lexicon([Document(id="x", text="tekst siin")])

    def test_unannotated_documents_skipped_among_annotated(self):
        annotated = _doc("Täna Tallinn", ("täna", "Tallinn"))
        lex = build_casing_lexicon([annotated, Document(id="x", text="Tekst Siin")])
        assert lex.entries == {"täna": ("täna", 1), "tallinn": ("Tallinn", 1)}

    def test_votes_keyed_by_token_not_lemma(self):
        # inflected token differs from its lemma; the entry is for the token form
        lex = build_casing_lexicon([_doc("tallinnas", ("Tallinn",))])
        assert lex.lookup("tallinnas") == "Tallinnas"
        assert lex.lookup("tallinn") is None

    def test_capital_that_does_not_lowercase_back_gives_no_vote(self):
        # "ﬁ".upper() is "FI" and "ß".upper() is "SS": their capitals lowercase to other keys
        docs = [_doc("ﬁnland ßa tallinn ﬁnland", ("Finland", "SSa", "Tallinn", "finland"))]
        lex = build_casing_lexicon(docs)
        assert lex.entries == {"ﬁnland": ("ﬁnland", 1), "tallinn": ("Tallinn", 1)}
        assert truecase_text("ﬁnland ßa Tallinn", lex) == "ﬁnland ßa Tallinn"

    def test_empty_stream_gives_empty_lexicon(self):
        assert len(build_casing_lexicon([])) == 0


class TestLexiconInvariants:
    def test_key_must_be_lowercase_of_surface(self):
        with pytest.raises(ValueError):
            CasingLexicon({"tere": ("Tore", 1)})

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            CasingLexicon({"tere": ("tere", 0)})

    def test_save_load_round_trip(self, tmp_path):
        lex = CasingLexicon({"eesti": ("Eesti", 3), "maja": ("maja", 1)})
        path = str(tmp_path / "lex.tsv")
        lex.save(path)
        assert CasingLexicon.load(path).entries == lex.entries

    def test_save_sorts_by_key(self, tmp_path):
        lex = CasingLexicon({"b": ("b", 1), "a": ("a", 2)})
        path = str(tmp_path / "lex.tsv")
        lex.save(path)
        lines = open(path, encoding="utf-8").read().splitlines()
        assert lines == ["a\ta\t2", "b\tb\t1"]

    def test_load_rejects_wrong_field_count(self, tmp_path):
        p = tmp_path / "lex.tsv"
        p.write_text("ainult\tkaks\n", encoding="utf-8")
        with pytest.raises(MalformedRecord) as exc:
            CasingLexicon.load(str(p))
        assert exc.value.line_no == 1

    def test_load_rejects_bad_count(self, tmp_path):
        p = tmp_path / "lex.tsv"
        p.write_text("a\ta\tpalju\n", encoding="utf-8")
        with pytest.raises(MalformedRecord):
            CasingLexicon.load(str(p))

    def test_load_rejects_mismatched_key(self, tmp_path):
        p = tmp_path / "lex.tsv"
        p.write_text("tere\tTore\t1\n", encoding="utf-8")
        with pytest.raises(MalformedRecord):
            CasingLexicon.load(str(p))

    def test_load_skips_blank_lines(self, tmp_path):
        p = tmp_path / "lex.tsv"
        p.write_text("a\ta\t1\n\nb\tB\t2\n", encoding="utf-8")
        assert len(CasingLexicon.load(str(p))) == 2


class TestTruecaseText:
    LEX = CasingLexicon(
        {
            "eesti": ("Eesti", 5),
            "täna": ("täna", 4),
            "tallinn": ("Tallinn", 3),
            "on": ("on", 9),
        }
    )

    def test_sentence_initial_capital_lowered(self):
        assert truecase_text("Täna on ilus ilm", self.LEX) == "täna on ilus ilm"

    def test_proper_noun_restored(self):
        assert truecase_text("eesti keel", self.LEX) == "Eesti keel"

    def test_unknown_tokens_untouched(self):
        assert truecase_text("Tundmatu sõna", self.LEX) == "Tundmatu sõna"

    def test_surrounding_punctuation_preserved(self):
        assert truecase_text('"Täna!"', self.LEX) == '"täna!"'
        assert truecase_text("(eesti)", self.LEX) == "(Eesti)"

    def test_internal_capitals_skip_rewrite(self):
        lex = CasingLexicon({"iphone": ("iphone", 1), "eesti": ("Eesti", 1)})
        # acronym-like and camel-case tokens are left alone
        assert truecase_text("iPhone EESTI", lex) == "iPhone EESTI"

    def test_whitespace_layout_preserved(self):
        assert truecase_text("Täna  on\ttore", self.LEX) == "täna  on\ttore"
        assert truecase_text("Täna on.\nTallinn ootab.", self.LEX) == "täna on.\nTallinn ootab."

    def test_idempotent_on_examples(self):
        for text in ("Täna on ilus", "eesti keel", '"Täna!"', "iPhone EESTI"):
            once = truecase_text(text, self.LEX)
            assert truecase_text(once, self.LEX) == once

    def test_empty_text(self):
        assert truecase_text("", self.LEX) == ""


class TestTruecaseDocument:
    def test_metadata_carries_over(self):
        lex = CasingLexicon({"tere": ("tere", 1)})
        doc = Document(id="x", text="Tere", lang_tag="et", lemmas=("tere",))
        out = truecase(doc, lex)
        assert out.id == "x"
        assert out.lang_tag == "et"
        assert out.lemmas == ("tere",)
        assert out.text == "tere"


_words = st.text(alphabet="abcõä", min_size=1, max_size=6)


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(
        _words,
        st.booleans(),  # True: capitalized canonical form
        min_size=0,
        max_size=8,
    ),
    st.lists(st.text(alphabet="abcõäABCÕÄ.,", min_size=1, max_size=8), min_size=0, max_size=10),
)
def test_truecase_idempotent_for_any_lexicon(entries, tokens):
    lexicon = CasingLexicon(
        {k: ((k[:1].upper() + k[1:]) if cap else k, 1) for k, cap in entries.items()}
    )
    text = " ".join(tokens)
    once = truecase_text(text, lexicon)
    assert truecase_text(once, lexicon) == once


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_words, st.booleans()), min_size=1, max_size=10))
def test_lexicon_build_then_apply_reaches_fixpoint(pairs):
    # canonical casing per *first* occurrence decides each word's lemma vote
    lemma_case = {}
    tokens, lemmas = [], []
    for word, cap in pairs:
        lemma_case.setdefault(word, cap)
        tokens.append(word)
        lemmas.append((word[:1].upper() + word[1:]) if lemma_case[word] else word)
    doc = Document(id="d", text=" ".join(tokens), lemmas=tuple(lemmas))
    lexicon = build_casing_lexicon([doc])
    cased = truecase(doc, lexicon)
    assert truecase(cased, lexicon) == cased


# str.isspace characters, separators and controls beyond ASCII included
_SPACES = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2003\u2028\u3000"
_LEX = TestTruecaseText.LEX
_tokens = st.one_of(
    st.sampled_from(["Täna", "EESTI", "eesti", "(Tallinn)", '"täna!"', "iPhone", "On."]),
    st.text(alphabet="abcõäABCÕÄ.,\"(-", min_size=1, max_size=6),
)


def _rewrite_token(token):
    """The documented per-token rule, restated without truecase_text."""
    lead, core, trail = split_punct(token)
    if core and not any(ch.isupper() for ch in core[1:]):
        core = _LEX.lookup(core.lower()) or core
    return lead + core + trail


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_tokens, max_size=8),
    st.lists(st.text(alphabet=_SPACES, min_size=1, max_size=3), min_size=9, max_size=9),
    st.booleans(),
    st.booleans(),
)
def test_truecase_rewrites_tokens_and_keeps_every_space(tokens, gaps, lead, trail):
    assert all(ch.isspace() for ch in _SPACES)
    # whitespace runs: optional before the first token, required between tokens, optional after
    runs = [gaps[0] if lead else ""] + gaps[1 : len(tokens)] + [gaps[-1] if trail else ""]
    if not tokens:
        runs = [runs[0] + runs[-1]]
    text = runs[0] + "".join(token + run for token, run in zip(tokens, runs[1:]))
    assert text.split() == tokens

    expected = runs[0] + "".join(_rewrite_token(t) + run for t, run in zip(tokens, runs[1:]))
    assert truecase_text(text, _LEX) == expected


# surfaces whose lowercase is longer ("İ"), shorter ("ẞ") or titlecase ("ǅ"), among any letters
_surfaces = st.text(
    alphabet=st.one_of(st.sampled_from("İẞǅﬁßΣς"), st.characters(categories=["L", "P", "N"])),
    max_size=5,
)
_variants = st.sampled_from([str.lower, str.upper, str.capitalize, lambda word: word])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_surfaces, max_size=6),
    st.lists(st.tuples(st.integers(0, 5), _variants, st.text(alphabet="«(.!", max_size=2)),
             max_size=10),
    st.lists(st.text(alphabet=_SPACES, min_size=1, max_size=3), min_size=11, max_size=11),
)
def test_truecasing_keeps_every_count(tmp_path_factory, surfaces, picks, gaps):
    """A rewrite swaps a core for a surface with its lowercase: no count can change."""
    lexicon = CasingLexicon({surface.lower(): (surface, 1) for surface in surfaces})
    path = str(tmp_path_factory.getbasetemp() / "casing.tsv")
    lexicon.save(path)
    words = [surfaces[index % len(surfaces)] if surfaces else "x" for index, _, _ in picks]
    tokens = [punct + variant(word) + punct for word, (_, variant, punct) in zip(words, picks)]
    doc = Document(id="d", text="".join(gap + token for gap, token in zip(gaps, tokens)) + gaps[-1])
    for lex in (lexicon, CasingLexicon.load(path)):
        assert lex.entries == lexicon.entries
        assert compute_stats([truecase(doc, lex)]) == compute_stats([doc])
