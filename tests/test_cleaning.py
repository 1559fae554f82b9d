"""Markup stripping, exact deduplication, and heuristic quality filters."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusprep.cleaning import (
    DROP_KINDS,
    DUPLICATE,
    NON_TARGET_LANGUAGE,
    TOO_FEW_WORDS,
    TOO_MANY_STOPWORDS,
    TOO_MUCH_PUNCTUATION,
    DropReason,
    FilterThresholds,
    dedup_key,
    default_stopwords,
    heuristic_filter,
    load_stopwords,
    strip_markup,
)
from corpusprep.ingest import Document
from dedup_stage import dedup


class TestStripMarkup:
    def test_plain_text_unchanged(self):
        assert strip_markup("tere tulemast koju") == "tere tulemast koju"

    def test_tags_hugging_text_removed_without_space(self):
        assert strip_markup("<b>tere</b>") == "tere"

    def test_tags_between_words_collapse_to_one_space(self):
        assert strip_markup("üks <br> kaks") == "üks kaks"

    def test_adjacent_tags_form_one_junction(self):
        assert strip_markup("a</p> <p>b") == "a b"
        assert strip_markup("a</p><p>b") == "ab"

    def test_named_entities_decoded(self):
        assert strip_markup("x &amp; y") == "x & y"
        assert strip_markup("&quot;tsitaat&quot;") == '"tsitaat"'
        assert strip_markup("&apos;") == "'"

    def test_numeric_entities_decoded(self):
        assert strip_markup("&#65;") == "A"
        assert strip_markup("&#xE4;") == "ä"
        assert strip_markup("&#x2013;") == "–"

    def test_invalid_numeric_entities_kept_verbatim(self):
        assert strip_markup("&#1114112;") == "&#1114112;"  # beyond U+10FFFF
        assert strip_markup("&#xD800;") == "&#xD800;"  # surrogate

    def test_huge_decimal_entity_kept_verbatim(self):
        # int() refuses decimal strings past 4,300 digits
        text = "x &#" + "9" * 5000 + "; y"
        once = strip_markup(text)
        assert once == text
        assert strip_markup(once) == once

    def test_leading_zeros_still_decode(self):
        assert strip_markup("&#000000000065;") == "A"
        assert strip_markup("&#x00000000000041;") == "A"
        assert strip_markup("&#" + "0" * 5000 + "65;") == "A"

    def test_entity_revealing_tag_reaches_fixpoint(self):
        # decoding &lt;b&gt; produces <b>, which the next pass removes
        assert strip_markup("&lt;b&gt;hi") == "hi"
        assert strip_markup("&lt;p&gt;tere&lt;/p&gt;") == "tere"

    def test_lone_angle_bracket_kept(self):
        assert strip_markup("a < b") == "a < b"
        assert strip_markup("2 > 1") == "2 > 1"

    def test_result_is_stripped(self):
        assert strip_markup("  <p>tere</p>  ") == "tere"

    def test_multiline_markup(self):
        text = "<doc>\nesimene rida\n<br/>\nteine rida\n</doc>"
        assert strip_markup(text) == "esimene rida teine rida"

    def test_idempotent_on_worked_examples(self):
        for text in (
            "<b>tere</b>",
            "üks <br> kaks",
            "&lt;b&gt;hi",
            "a < b",
            "x &amp;amp; y",
        ):
            once = strip_markup(text)
            assert strip_markup(once) == once


_markup_chunks = st.lists(
    st.one_of(
        st.text(alphabet="abc õäö", min_size=0, max_size=8),
        st.sampled_from(
            ["<b>", "</b>", "<br/>", "<doc id=\"x\">", "&amp;", "&lt;", "&gt;",
             "&#65;", "&#x41;", "<", ">", "&quot;", "&apos;", "&#xD800;"]
        ),
    ),
    min_size=0,
    max_size=12,
).map("".join)


@settings(max_examples=200, deadline=None)
@given(_markup_chunks)
def test_strip_markup_idempotent(text):
    once = strip_markup(text)
    assert strip_markup(once) == once


@settings(max_examples=200, deadline=None)
@given(_markup_chunks)
def test_strip_markup_leaves_no_complete_tags(text):
    stripped = strip_markup(text)
    import re

    assert not re.search(r"<[^>]*>", stripped)


class TestDedupKey:
    def test_matches_direct_blake2b_of_normalized_text(self):
        text = "  Tere  TULEMAST\nkoju  "
        normalized = " ".join(text.lower().split())
        expected = hashlib.blake2b(normalized.encode("utf-8"), digest_size=16).digest()
        assert dedup_key(text) == expected

    def test_case_and_whitespace_insensitive(self):
        assert dedup_key("Tere tulemast") == dedup_key("tere   TULEMAST")

    def test_distinct_texts_distinct_keys(self):
        assert dedup_key("tere") != dedup_key("tore")

    def test_digest_is_16_bytes(self):
        assert len(dedup_key("x")) == 16


class TestDedup:
    def _docs(self, texts):
        return [Document(id=f"d{i}", text=t) for i, t in enumerate(texts)]

    def test_first_occurrence_kept(self):
        docs = self._docs(["a b", "c d", "A  b", "e f"])
        kept = list(dedup(docs))
        assert [d.id for d in kept] == ["d0", "d1", "d3"]

    def test_drop_callback_reports_duplicate_with_digest(self):
        docs = self._docs(["sama tekst", "SAMA TEKST"])
        drops = []
        list(dedup(docs, on_drop=lambda doc, reason: drops.append((doc.id, reason))))
        assert len(drops) == 1
        doc_id, reason = drops[0]
        assert doc_id == "d1"
        assert reason.kind == DUPLICATE
        assert reason.detail == dedup_key("sama tekst").hex()

    def test_idempotent(self):
        docs = self._docs(["a", "b", "a", "c", "B"])
        once = list(dedup(docs))
        assert list(dedup(once)) == once

    def test_streaming_generator(self):
        # consuming one element must not exhaust the input
        def gen():
            yield Document(id="1", text="x")
            yield Document(id="2", text="y")

        it = dedup(gen())
        assert next(it).id == "1"
        assert next(it).id == "2"


@settings(max_examples=100, deadline=None)
@given(st.lists(st.text(alphabet="ab ", min_size=1, max_size=6), min_size=0, max_size=12))
def test_dedup_idempotent_and_order_preserving(texts):
    docs = [Document(id=str(i), text=t) for i, t in enumerate(texts)]
    kept = list(dedup(docs))
    # order preserved
    kept_ids = [int(d.id) for d in kept]
    assert kept_ids == sorted(kept_ids)
    # second pass is the identity
    assert list(dedup(kept)) == kept
    # every input key is represented exactly once
    assert {dedup_key(d.text) for d in docs} == {dedup_key(d.text) for d in kept}
    assert len({dedup_key(d.text) for d in kept}) == len(kept)


class TestHeuristicFilter:
    def test_enough_words_pass(self):
        doc = Document(id="d", text="üks kaks kolm neli viis kuus seitse kaheksa üheksa kümme")
        assert heuristic_filter(doc, FilterThresholds()) is None

    def test_too_few_words(self):
        doc = Document(id="d", text="ainult kolm sõna")
        reason = heuristic_filter(doc, FilterThresholds())
        assert reason is not None
        assert reason.kind == TOO_FEW_WORDS
        assert reason.detail == 3

    def test_too_many_stopwords(self):
        stops = frozenset({"ja", "on", "see"})
        text = "ja on see ja on see ja on see maja"
        reason = heuristic_filter(
            Document(id="d", text=text),
            FilterThresholds(min_words=1, max_stopword_ratio=0.6, stopwords=stops),
        )
        assert reason is not None
        assert reason.kind == TOO_MANY_STOPWORDS
        assert reason.detail == pytest.approx(9 / 10)

    def test_stopword_match_ignores_case_and_surrounding_punctuation(self):
        stops = frozenset({"ja"})
        text = 'Ja, "ja" JA! maja'
        reason = heuristic_filter(
            Document(id="d", text=text),
            FilterThresholds(min_words=1, max_stopword_ratio=0.5, stopwords=stops),
        )
        assert reason is not None
        assert reason.kind == TOO_MANY_STOPWORDS
        assert reason.detail == pytest.approx(3 / 4)

    def test_too_much_punctuation(self):
        text = "!!! ??? ... --- tekst !!!"
        reason = heuristic_filter(
            Document(id="d", text=text), FilterThresholds(min_words=1)
        )
        assert reason is not None
        assert reason.kind == TOO_MUCH_PUNCTUATION
        # 20 non-space chars, 15 of them punctuation (five groups of three)
        assert reason.detail == pytest.approx(15 / 20)

    def test_check_order_word_count_first(self):
        # one word that is both a stopword and punctuation-heavy:
        # the word-count check must claim it
        reason = heuristic_filter(
            Document(id="d", text="ja!!!"),
            FilterThresholds(min_words=2, max_stopword_ratio=0.0, max_punct_ratio=0.0,
                             stopwords=frozenset({"ja"})),
        )
        assert reason is not None
        assert reason.kind == TOO_FEW_WORDS

    def test_check_order_stopwords_before_punctuation(self):
        reason = heuristic_filter(
            Document(id="d", text="ja ja !!!"),
            FilterThresholds(min_words=1, max_stopword_ratio=0.1, max_punct_ratio=0.0,
                             stopwords=frozenset({"ja"})),
        )
        assert reason is not None
        assert reason.kind == TOO_MANY_STOPWORDS

    def test_boundary_is_strict_greater_than(self):
        stops = frozenset({"ja"})
        # exactly at the threshold: kept
        doc = Document(id="d", text="ja maja")
        assert (
            heuristic_filter(
                doc, FilterThresholds(min_words=1, max_stopword_ratio=0.5, stopwords=stops)
            )
            is None
        )

    def test_verdict_is_deterministic(self):
        doc = Document(id="d", text="lühike")
        t = FilterThresholds()
        assert heuristic_filter(doc, t) == heuristic_filter(doc, t)


class TestFilterThresholds:
    def test_defaults(self):
        t = FilterThresholds()
        assert (t.min_words, t.max_stopword_ratio, t.max_punct_ratio) == (10, 0.6, 0.3)
        assert t.lang_confidence_min == 0.95

    def test_min_words_must_be_positive(self):
        with pytest.raises(ValueError):
            FilterThresholds(min_words=0)

    @pytest.mark.parametrize("field", ["max_stopword_ratio", "max_punct_ratio", "lang_confidence_min"])
    def test_ratios_must_be_probabilities(self, field):
        with pytest.raises(ValueError):
            FilterThresholds(**{field: 1.5})
        with pytest.raises(ValueError):
            FilterThresholds(**{field: -0.1})


class TestDropReason:
    def test_known_kinds_accepted(self):
        for kind in DROP_KINDS:
            assert DropReason(kind, None).kind == kind

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            DropReason("Whatever", None)

    def test_kind_constants(self):
        assert DROP_KINDS == {
            NON_TARGET_LANGUAGE,
            DUPLICATE,
            TOO_FEW_WORDS,
            TOO_MANY_STOPWORDS,
            TOO_MUCH_PUNCTUATION,
        }


class TestStopwords:
    def test_load_skips_comments_and_blanks(self, tmp_path):
        p = tmp_path / "stop.txt"
        p.write_text("# kommentaar\nja\n\nON\n  ning  \n", encoding="utf-8")
        assert load_stopwords(str(p)) == frozenset({"ja", "on", "ning"})

    def test_default_list_is_lowercase_estonian(self):
        stops = default_stopwords()
        assert "ja" in stops
        assert "ning" in stops
        assert all(w == w.lower() for w in stops)
        assert len(stops) >= 40
