"""Quality heuristics and truecasing against their per-token oracles.

``heuristic_filter`` counts characters once per distinct character and takes
each token's stopword core from a memo; ``truecase_text`` rewrites each
distinct token once through its lexicon's memo.  Both must give what the
per-token functions in ``tests/cleaning_oracle.py`` give, with a cold memo,
with one shared across documents and with one cleared at every few tokens.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from cleaning_oracle import oracle_heuristic_filter, oracle_truecase_text
from corpusprep import ingest
from corpusprep.cleaning import heuristic_filter, stopword_core
from corpusprep.config import FilterThresholds
from corpusprep.ingest import Document, Memo
from corpusprep.truecase import CasingLexicon, truecase_text

# every code point str.split() breaks on that is easy to miss, plus the usual ones
_SPACES = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2028\u2029\u3000"
_CORES = ["ja", "on", "see", "maja", "tallinn", "eesti", "õun", "iphone"]

_case = st.sampled_from([str.lower, str.upper, str.capitalize, lambda w: w[:1] + w[1:].upper()])
_punct = st.text(alphabet=st.characters(categories=["P", "S"]), max_size=3)
_core = st.tuples(st.sampled_from(_CORES), _case).map(lambda pair: pair[1](pair[0]))
_token = st.one_of(
    st.tuples(_punct, _core, _punct).map("".join),
    st.text(alphabet=st.characters(categories=["L", "P", "S", "N"]), min_size=1, max_size=5),
)
_lead = st.text(alphabet=_SPACES, max_size=2)
_gap = st.text(alphabet=_SPACES, min_size=1, max_size=3)
_TEXTS = st.one_of(
    # leading whitespace, then tokens each followed by whitespace (the last one trailing)
    st.tuples(_lead, st.lists(st.tuples(_token, _gap), max_size=14)).map(
        lambda p: p[0] + "".join(token + space for token, space in p[1])
    ),
    st.lists(_token, max_size=14).map(" ".join),
    st.just(""),
    st.text(),
)
_THRESHOLDS = st.builds(
    FilterThresholds,
    min_words=st.integers(1, 4),
    max_stopword_ratio=st.floats(0, 1),
    max_punct_ratio=st.floats(0, 1),
    stopwords=st.frozensets(st.sampled_from(_CORES), max_size=4),
)
_LEXICONS = st.dictionaries(st.sampled_from(_CORES), st.booleans(), max_size=len(_CORES)).map(
    lambda caps: CasingLexicon(
        {key: (key.capitalize() if cap else key, 1) for key, cap in caps.items()}
    )
)


def _doc(text):
    return Document(id="d", text=text)


@settings(max_examples=400, deadline=None)
@given(st.lists(_TEXTS, min_size=1, max_size=4), _THRESHOLDS)
def test_heuristics_match_oracle(texts, thresholds):
    cores = Memo(stopword_core)
    for text in texts:
        expected = oracle_heuristic_filter(_doc(text), thresholds)
        assert heuristic_filter(_doc(text), thresholds) == expected
        assert heuristic_filter(_doc(text), thresholds, cores) == expected


@settings(max_examples=400, deadline=None)
@given(st.lists(_TEXTS, min_size=1, max_size=4), _LEXICONS)
def test_truecase_matches_oracle(texts, lexicon):
    for text in texts:
        expected = oracle_truecase_text(text, lexicon)
        assert truecase_text(text, CasingLexicon(lexicon.entries)) == expected  # a cold memo
        assert truecase_text(text, lexicon) == expected  # one warm from the earlier texts


def test_memos_past_their_bound_change_no_verdict_or_bytes(monkeypatch):
    monkeypatch.setattr(ingest, "MEMO_LIMIT", 3)
    thresholds = FilterThresholds(
        min_words=2, max_stopword_ratio=0.3, max_punct_ratio=0.2, stopwords=frozenset({"ja", "on"})
    )
    lexicon = CasingLexicon({"tallinn": ("Tallinn", 2), "ja": ("ja", 5), "eesti": ("Eesti", 1)})
    texts = [
        "Ja Tallinn on eesti linn.",
        "tallinn, JA! on... on? eesti;",
        "\u3000Eesti\x1cja\x85tallinn\u2028on  ",
        "linn linn linn ja",
        "«Ja» — (on) eesti € tallinn",
    ] * 3
    cores = Memo(stopword_core)
    for text in texts:
        assert heuristic_filter(_doc(text), thresholds, cores) == oracle_heuristic_filter(
            _doc(text), thresholds
        )
        assert truecase_text(text, lexicon) == oracle_truecase_text(text, lexicon)
        assert len(cores) <= 3
        assert len(lexicon.rewrites) <= 3
