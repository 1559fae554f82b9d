"""Character n-gram language identification."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusprep.errors import TextTooShort
from corpusprep.langid import (
    LanguageProfiles,
    default_profiles,
    detect_language,
    iter_ngrams,
    normalize,
)


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
    def test_train_accumulates_counts(self):
        p = LanguageProfiles()
        p.train("xx", "aa")
        p.train("xx", "aa")
        assert p.totals["xx"] == 2 * sum(1 for _ in iter_ngrams("aa"))

    def test_languages_sorted(self):
        p = LanguageProfiles()
        p.train("fi", "moi")
        p.train("et", "tere")
        assert sorted(p.counts) == ["et", "fi"]

    def test_vocabulary_is_union_over_languages(self):
        p = LanguageProfiles()
        p.train("a", "xy")
        p.train("b", "yz")
        union = set(iter_ngrams("xy")) | set(iter_ngrams("yz"))
        assert p.vocabulary_size() == len(union)


class TestDetect:
    def test_estonian_detected_with_high_confidence(self):
        lang, prob = detect_language("kuidas sul täna läheb", default_profiles())
        assert lang == "et"
        assert prob >= 0.95

    def test_english_detected(self):
        lang, prob = detect_language(
            "the quick brown fox jumps over the lazy dog", default_profiles()
        )
        assert lang == "en"
        assert prob >= 0.95

    def test_posterior_is_a_probability(self):
        _, prob = detect_language("tere hommikust", default_profiles())
        assert 0.0 < prob <= 1.0

    def test_no_alphabetic_content(self):
        with pytest.raises(TextTooShort):
            detect_language("1234 ... 5678", default_profiles())
        with pytest.raises(TextTooShort):
            detect_language("https://example.com 42", default_profiles())

    def test_empty_profiles_rejected(self):
        with pytest.raises(ValueError):
            detect_language("tere", LanguageProfiles())

    def test_deterministic(self):
        text = "see on üks tavaline eesti keele lause"
        assert detect_language(text, default_profiles()) == detect_language(
            text, default_profiles()
        )

    def test_two_language_posteriors_sum_to_one(self):
        p = LanguageProfiles()
        p.train("aa", "aaa aab aba abb")
        p.train("bb", "bbb bba bab baa")
        _, prob_a = detect_language("aaa", p)
        _, prob_b = detect_language("aaa bbb bbb bbb", p)
        assert prob_a > 0.5  # clearly language aa
        # posterior of the winner is at least 1/len(languages)
        assert prob_b >= 0.5

    def test_tie_broken_by_language_code(self):
        p = LanguageProfiles()
        p.train("zz", "symmetric text")
        p.train("aa", "symmetric text")
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
            lang, prob = detect_language(text, default_profiles())
            assert lang == expected, (expected, lang, prob)
            assert prob >= 0.95


@settings(max_examples=50, deadline=None)
@given(st.text(alphabet="abcdefghij õäöü", min_size=1, max_size=40))
def test_detection_never_crashes_on_alphabetic_text(text):
    if not any(ch.isalpha() for ch in text):
        return
    lang, prob = detect_language(text, default_profiles())
    assert lang in default_profiles().counts
    assert 0.0 <= prob <= 1.0
    assert math.isfinite(prob)
