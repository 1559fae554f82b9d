"""Character n-gram language identification."""

from __future__ import annotations

import dataclasses
import functools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from langid_oracle import oracle_detect_language, oracle_iter_ngrams, oracle_profiles, seed_texts

from corpusprep.errors import TextTooShort
from corpusprep.langid import (
    LanguageProfiles,
    default_profiles,
    detect_language,
    iter_ngrams,
    normalize,
)

# built once: each default_profiles() call builds the tables, and each object its own rows
PROFILES = default_profiles()


class TestNormalize:
    def test_lowercases(self):
        assert normalize("Tere Tulemast") == "tere tulemast"

    def test_strips_urls(self):
        assert normalize("vaata https://example.com/lehte nüüd") == "vaata nüüd"
        assert normalize("vaata www.example.com nüüd") == "vaata nüüd"

    def test_strips_digits(self):
        assert normalize("aastal 1918 sündis") == "aastal sündis"

    def test_collapses_whitespace(self):
        assert normalize("  a \t b \n c  ") == "a b c"

    def test_nfkc_applied(self):
        # fullwidth letter normalizes to its plain form
        assert normalize("ａbc") == "abc"


class TestIterNgrams:
    def test_grams_of_single_word(self):
        grams = list(iter_ngrams("ja"))
        padded = " ja "
        expected = []
        for n in (1, 2, 3):
            for i in range(len(padded) - n + 1):
                g = padded[i : i + n]
                if g != " " * n:
                    expected.append(g)
        assert grams == expected
        assert " j" in grams and "ja " in grams  # boundary grams present
        assert " " not in grams  # bare space gram suppressed

    def test_each_word_padded_independently(self):
        grams = set(iter_ngrams("ab cd"))
        assert "b c" not in grams  # no gram spans a word boundary

    def test_empty_text_yields_nothing(self):
        assert list(iter_ngrams("")) == []


class TestProfiles:
    def test_languages_sorted(self):
        p = LanguageProfiles.from_texts({"fi": "moi", "et": "tere"})
        assert sorted(p.logprobs) == ["et", "fi"]

    def test_vocabulary_is_union_over_languages(self):
        p = LanguageProfiles.from_texts({"a": "xy", "b": "yz"})
        # " xy " and " yz " give 7 grams each and share only "y": 13 grams in all
        assert len(set(iter_ngrams("xy")) | set(iter_ngrams("yz"))) == 13
        denom = 7 + 0.5 * (13 + 1)
        assert denom == 14.0
        assert p.unseen == {"a": math.log(0.5 / 14.0), "b": math.log(0.5 / 14.0)}
        assert p.logprobs["a"]["x"] == math.log(1.5 / 14.0)
        assert "z" not in p.logprobs["a"]

    def test_repeated_gram_counts(self):
        p = LanguageProfiles.from_texts({"xx": "aa aa"})
        # " aa " gives a, a, " a", aa, "a ", " aa", "aa ": 6 distinct, 14 grams in two words
        denom = 14 + 0.5 * (6 + 1)
        assert denom == 17.5
        assert p.unseen["xx"] == math.log(0.5 / 17.5)
        assert p.logprobs["xx"]["a"] == math.log(4.5 / 17.5)
        assert p.logprobs["xx"]["aa "] == math.log(2.5 / 17.5)
        assert p.logprobs["xx"][" a"] is p.logprobs["xx"]["aa "]  # one float per count

    def test_profiles_are_immutable_and_cached(self):
        profiles = default_profiles()
        assert list(profiles.logprobs) == ["de", "en", "et", "fi", "ru"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            profiles.unseen = {}


class TestDetect:
    def test_estonian_detected_with_high_confidence(self):
        lang, prob = detect_language("kuidas sul täna läheb", PROFILES)
        assert lang == "et"
        assert prob >= 0.95

    def test_english_detected(self):
        lang, prob = detect_language("the quick brown fox jumps over the lazy dog", PROFILES)
        assert lang == "en"
        assert prob >= 0.95

    def test_posterior_is_a_probability(self):
        _, prob = detect_language("tere hommikust", PROFILES)
        assert 0.0 < prob <= 1.0

    def test_no_alphabetic_content(self):
        with pytest.raises(TextTooShort):
            detect_language("1234 ... 5678", PROFILES)
        with pytest.raises(TextTooShort):
            detect_language("https://example.com 42", PROFILES)

    def test_empty_profiles_rejected(self):
        with pytest.raises(ValueError, match="profiles are empty"):
            detect_language("tere", LanguageProfiles.from_texts({}))

    def test_deterministic(self):
        text = "see on üks tavaline eesti keele lause"
        assert detect_language(text, PROFILES) == detect_language(text, PROFILES)

    def test_two_language_posteriors_sum_to_one(self):
        p = LanguageProfiles.from_texts({"aa": "aaa aab aba abb", "bb": "bbb bba bab baa"})
        _, prob_a = detect_language("aaa", p)
        _, prob_b = detect_language("aaa bbb bbb bbb", p)
        assert prob_a > 0.5  # clearly language aa
        # posterior of the winner is at least 1/len(languages)
        assert prob_b >= 0.5

    def test_tie_broken_by_language_code(self):
        # zz first, so the tie is not won by insertion order
        p = LanguageProfiles.from_texts({"zz": "symmetric text", "aa": "symmetric text"})
        lang, prob = detect_language("symmetric text", p)
        assert lang == "aa"
        assert prob == pytest.approx(0.5)

    def test_all_seed_languages_recognize_their_own_seed_style(self):
        samples = {
            "et": "lapsed mängivad õues ja päike paistab",
            "en": "the children are playing outside in the sun",
            "fi": "lapset leikkivät ulkona ja aurinko paistaa",
            "de": "die kinder spielen draußen in der sonne",
            "ru": "дети играют на улице под солнцем",
        }
        for expected, text in samples.items():
            lang, prob = detect_language(text, PROFILES)
            assert lang == expected, (expected, lang, prob)
            assert prob >= 0.95


@settings(max_examples=50, deadline=None)
@given(st.text(alphabet="abcdefghij õäöü", min_size=1, max_size=40))
def test_detection_never_crashes_on_alphabetic_text(text):
    if not any(ch.isalpha() for ch in text):
        return
    lang, prob = detect_language(text, PROFILES)
    assert lang in PROFILES.logprobs
    assert 0.0 <= prob <= 1.0
    assert math.isfinite(prob)


def _both(text, profiles, oracle):
    """(lang, prob) from the table detector and from the counts oracle, or both TextTooShort."""
    results = []
    for detect, model in ((detect_language, profiles), (oracle_detect_language, oracle)):
        try:
            results.append(detect(text, model))
        except TextTooShort:
            results.append(TextTooShort)
    return results


class TestAgainstOracle:
    """The log tables give the counts detector's language and posterior bit for bit."""

    ORACLE = oracle_profiles(seed_texts())

    def test_seed_order_and_floors(self):
        assert list(PROFILES.logprobs) == list(self.ORACLE.counts)
        vocab = self.ORACLE.vocabulary_size()
        for lang, total in self.ORACLE.totals.items():
            assert PROFILES.unseen[lang] == math.log(0.5 / (total + 0.5 * (vocab + 1)))

    def test_seed_sentences(self):
        lines = [line for text in seed_texts().values() for line in text.splitlines()]
        assert len(lines) > 20
        for line in lines:
            table, oracle = _both(line, PROFILES, self.ORACLE)
            assert table == oracle, line

    def test_fixture_corpus(self, fixture_corpus_path):
        with open(fixture_corpus_path, encoding="utf-8") as handle:
            texts = [json.loads(line)["text"] for line in handle if line.strip()]
        assert texts
        for text in texts:
            table, oracle = _both(text, PROFILES, self.ORACLE)
            assert table == oracle, text


_ALPHABET = (
    "abcdefghijklmnopqrstuvwxyz ABCXYZ õäöüšž ÕÄÖÜŠŽ абвгдежзийклмнопрстуфхцчшщъыьэюя ЖЯ"
    " 0123456789 .,;:!?-'\"()"
)
_WORDS = st.one_of(
    st.text(alphabet=_ALPHABET, min_size=1, max_size=12),
    st.sampled_from(["https://example.com/a?b=1", "www.delfi.ee", "HTTP://X.EE/ö", "42", "ß"]),
)
_TEXTS = st.lists(_WORDS, max_size=25).map(" ".join)


@settings(max_examples=200, deadline=None)
@given(_TEXTS)
def test_default_profiles_match_oracle(text):
    table, oracle = _both(text, PROFILES, TestAgainstOracle.ORACLE)
    assert table == oracle


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(st.sampled_from(["zz", "et", "aa", "ru", "mm"]), _TEXTS, min_size=1),
    _TEXTS,
)
def test_any_profiles_match_oracle(seeds, text):
    table, oracle = _both(text, LanguageProfiles.from_texts(seeds), oracle_profiles(seeds))
    assert table == oracle


@settings(max_examples=300, deadline=None)
@given(st.one_of(_TEXTS, st.text()))
def test_ngrams_match_oracle(text):
    # the same grams in the same order: scores are an ordered float sum
    for normalized in (text, normalize(text)):
        assert list(iter_ngrams(normalized)) == list(oracle_iter_ngrams(normalized))


_SEED_LINES = [line for text in seed_texts().values() for line in text.splitlines() if line]


@functools.lru_cache(maxsize=None)
def _split_seeds(n):
    """Table and oracle profiles of n languages, the packaged seed lines dealt round-robin.

    The language codes run in reverse order, so ties are not won by position.
    """
    seeds = {f"l{n - i:02d}": "\n".join(_SEED_LINES[i::n]) for i in range(n)}
    return LanguageProfiles.from_texts(seeds), oracle_profiles(seeds)


class TestRowBlocks:
    """Five languages share a row; short blocks are padded, and more than five take several."""

    @pytest.mark.parametrize("n", [1, 2, 5, 6, 11])
    def test_block_edges_match_oracle_bit_for_bit(self, n):
        profiles, oracle = _split_seeds(n)
        rows = profiles.rows
        assert len(rows) == -(-n // 5)
        assert all(len(floor) == 5 for _, floor in rows)
        for line in _SEED_LINES[::3] + ["tere maailm", "the quick brown fox", "123 !!"]:
            table, expected = _both(line, profiles, oracle)
            assert table == expected, (n, line)
        assert profiles.rows is rows  # detections reuse the rows built at the first one

    def test_default_profiles_build_no_rows(self):
        profiles = default_profiles()
        assert list(profiles.logprobs) == list(seed_texts())
        assert "rows" not in vars(profiles)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([1, 2, 5, 6, 11]), _TEXTS)
def test_any_block_count_matches_oracle(n, text):
    table, oracle = _both(text, *_split_seeds(n))
    assert table == oracle
