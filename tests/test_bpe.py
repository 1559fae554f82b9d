"""BPE vocabulary training, encoding, decoding, and persistence."""

from __future__ import annotations

import pickle
import random
import tracemalloc
import unicodedata
from collections import Counter

import pytest
from bpe_oracle import oracle_encode, oracle_train_bpe
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpusprep import bpe, ingest
from corpusprep.bpe import (
    MARKER,
    MASK_ID,
    PAD_ID,
    SPECIALS,
    UNK_ID,
    Vocab,
    decode,
    encode,
    train_bpe,
)
from corpusprep.errors import (
    EmptyCorpus,
    IdOutOfRange,
    MalformedRecord,
    VocabSizeTooSmall,
)
from corpusprep.ingest import Document


def _docs(*texts):
    return [Document(id=str(i), text=t) for i, t in enumerate(texts)]


def brute_force_first_merge(texts):
    """Count every adjacent symbol pair directly and pick the training winner."""
    words = Counter()
    for text in texts:
        words.update(unicodedata.normalize("NFKC", text).split())
    pair_counts = Counter()
    for word, freq in words.items():
        symbols = (MARKER, *word)
        for a, b in zip(symbols, symbols[1:]):
            pair_counts[(a, b)] += freq
    candidates = {p: c for p, c in pair_counts.items() if p[0] + p[1] not in SPECIALS}
    return min(candidates, key=lambda p: (-candidates[p], p[0] + p[1], p))


class TestTraining:
    def test_worked_example_first_merge(self):
        # "aaab aab aab": pair (a,a) occurs 2+1+1 = 4 times, more than any other
        vocab = train_bpe(_docs("aaab aab aab"), vocab_size=9)
        assert vocab.merges[0] == ("a", "a")
        assert brute_force_first_merge(["aaab aab aab"]) == ("a", "a")

    def test_first_merge_matches_brute_force_oracle_on_random_corpora(self):
        rng = random.Random(7)
        for _ in range(25):
            texts = [
                " ".join(
                    "".join(rng.choice("abcd") for _ in range(rng.randint(1, 5)))
                    for _ in range(rng.randint(1, 12))
                )
            ]
            alphabet = {MARKER} | set("".join(texts).replace(" ", ""))
            vocab = train_bpe(_docs(*texts), vocab_size=len(SPECIALS) + len(alphabet) + 1)
            assert vocab.merges[0] == brute_force_first_merge(texts)

    def test_piece_inventory_layout(self):
        vocab = train_bpe(_docs("aaab aab aab"), vocab_size=9)
        # specials, then the sorted alphabet (marker included), then merge products
        assert vocab.pieces[:5] == SPECIALS
        assert vocab.pieces[5:8] == ("a", "b", MARKER)
        assert vocab.pieces[8] == "aa"

    def test_exact_vocab_size_reached(self):
        corpus = _docs("tere tulemast tartu tallinna tapa türi")
        vocab = train_bpe(corpus, vocab_size=40)
        assert len(vocab) == 40

    def test_merge_count_arithmetic(self):
        corpus = _docs("üks kaks kolm neli viis kuus seitse")
        vocab = train_bpe(corpus, vocab_size=40)
        assert len(vocab) == 40
        alphabet = {MARKER} | set("".join(d.text for d in corpus).replace(" ", ""))
        products = {left + right for left, right in vocab.merges}
        # piece inventory = specials + alphabet + distinct merge products
        assert len(vocab) == len(SPECIALS) + len(alphabet) + len(products - alphabet)
        # when no merge reproduces an existing piece the counts are equal
        if len(products) == len(vocab.merges) and not (products & alphabet):
            assert len(vocab.merges) == len(vocab) - len(SPECIALS) - len(alphabet)

    def test_training_is_deterministic(self):
        corpus = "kask kajakas kaskaad kastan kaktus"
        a = train_bpe(_docs(corpus), vocab_size=30)
        b = train_bpe(_docs(corpus), vocab_size=30)
        assert a.pieces == b.pieces
        assert a.merges == b.merges

    def test_tie_break_prefers_smaller_concatenation(self):
        # "ab" and "cd" both occur exactly twice; (a,b) wins on "ab" < "cd"
        vocab = train_bpe(_docs("ab ab cd cd"), vocab_size=11)
        counts = Counter()
        for word in ["ab", "ab", "cd", "cd"]:
            symbols = (MARKER, *word)
            for p in zip(symbols, symbols[1:]):
                counts[p] += 1
        tied = [p for p, c in counts.items() if c == max(counts.values())]
        assert len(tied) >= 2  # the tie is real
        assert vocab.merges[0] == min(tied, key=lambda p: (p[0] + p[1], p))

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpus):
            train_bpe(_docs("", "   \n  "), vocab_size=10)

    def test_vocab_size_must_exceed_specials_plus_alphabet(self):
        # alphabet of "ab" is {a, b, marker}: floor is 8
        with pytest.raises(VocabSizeTooSmall):
            train_bpe(_docs("ab"), vocab_size=8)
        assert len(train_bpe(_docs("ab"), vocab_size=9)) == 9

    def test_stops_early_when_no_pairs_remain(self):
        # single 1-char word: only pair is (marker, a); after merging it nothing remains
        vocab = train_bpe(_docs("a a a"), vocab_size=100)
        assert len(vocab) < 100
        assert vocab.merges == ((MARKER, "a"),)


class TestVocabInvariants:
    def test_specials_prefix_required(self):
        with pytest.raises(ValueError):
            Vocab(pieces=("a", "b"), merges=())

    def test_duplicate_pieces_rejected(self):
        with pytest.raises(ValueError):
            Vocab(pieces=SPECIALS + ("a", "a"), merges=())

    def test_specials_cannot_appear_in_merges(self):
        with pytest.raises(ValueError):
            Vocab(pieces=SPECIALS + ("a",), merges=(("[PAD]", "a"),))

    def test_piece_ids_are_positions(self):
        vocab = Vocab(pieces=SPECIALS + ("x", "y"), merges=())
        assert vocab.piece_to_id["[PAD]"] == PAD_ID == 0
        assert vocab.piece_to_id["[MASK]"] == MASK_ID == 4
        assert vocab.piece_to_id["x"] == 5

    def test_save_load_round_trip(self, tmp_path):
        vocab = train_bpe(_docs("tere tore turu"), vocab_size=14)
        vp, mp = str(tmp_path / "vocab.txt"), str(tmp_path / "merges.txt")
        vocab.save(vp, mp)
        loaded = Vocab.load(vp, mp)
        assert loaded.pieces == vocab.pieces
        assert loaded.merges == vocab.merges

    def test_vocab_file_line_number_is_id(self, tmp_path):
        vocab = train_bpe(_docs("abc"), vocab_size=10)
        vp, mp = str(tmp_path / "v.txt"), str(tmp_path / "m.txt")
        vocab.save(vp, mp)
        lines = open(vp, encoding="utf-8").read().splitlines()
        assert tuple(lines) == vocab.pieces

    def test_load_rejects_malformed_merge_line(self, tmp_path):
        vp, mp = tmp_path / "v.txt", tmp_path / "m.txt"
        vp.write_text("".join(p + "\n" for p in SPECIALS + ("a",)), encoding="utf-8")
        mp.write_text("a b c\n", encoding="utf-8")
        with pytest.raises(MalformedRecord):
            Vocab.load(str(vp), str(mp))

    def test_load_rejects_blank_line_before_a_piece(self, tmp_path):
        # "b" sits on line 8, so its id is 7; skipping the blank line made it 6
        vp, mp = tmp_path / "v.txt", tmp_path / "m.txt"
        vp.write_text("".join(p + "\n" for p in SPECIALS + ("a", "", "b")), encoding="utf-8")
        mp.write_text("", encoding="utf-8")
        with pytest.raises(MalformedRecord) as info:
            Vocab.load(str(vp), str(mp))
        assert info.value.line_no == 7

    def test_load_accepts_trailing_blank_lines(self, tmp_path):
        vp, mp = tmp_path / "v.txt", tmp_path / "m.txt"
        lines = SPECIALS + ("a", "b", "ab", "", "")
        vp.write_text("".join(p + "\n" for p in lines), encoding="utf-8")
        mp.write_text("a b\n\n", encoding="utf-8")
        vocab = Vocab.load(str(vp), str(mp))
        assert vocab.pieces == SPECIALS + ("a", "b", "ab")
        assert vocab.merges == (("a", "b"),)

    @pytest.mark.parametrize("merge", [("x", "a"), ("a", "x"), ("b", "a")])
    def test_merge_of_a_non_piece_rejected(self, merge):
        # left piece, right piece, then the concatenation "ba" missing
        with pytest.raises(ValueError, match="not in the vocabulary"):
            Vocab(pieces=SPECIALS + ("a", "b", "ab"), merges=(("a", "b"), merge))


class TestEncodeDecode:
    def test_worked_example(self):
        vocab = train_bpe(_docs("aaab aab aab"), vocab_size=9)
        # "aaab" -> ▁ aa a b after one learned merge
        ids = encode("aaab", vocab)
        assert [vocab.pieces[i] for i in ids] == [MARKER, "aa", "a", "b"]

    def test_unknown_character_maps_to_unk(self):
        vocab = train_bpe(_docs("abc abc"), vocab_size=10)
        ids = encode("axc", vocab)
        assert UNK_ID in ids

    def test_decode_round_trip_simple(self):
        vocab = train_bpe(_docs("tere tulemast tartu"), vocab_size=20)
        text = "tere tartu"
        assert decode(encode(text, vocab), vocab) == text

    def test_decode_rejects_out_of_range(self):
        vocab = train_bpe(_docs("ab"), vocab_size=9)
        with pytest.raises(IdOutOfRange):
            decode([len(vocab.pieces)], vocab)
        with pytest.raises(IdOutOfRange):
            decode([-1], vocab)

    def test_encode_applies_merges_by_rank(self):
        # rank order must be replayed, not recomputed: (marker, a) occurs 4
        # times and (a, b) once, so (marker, a) is the first merge
        vocab = train_bpe(_docs("a a a ab"), vocab_size=12)
        assert vocab.merges[0] == (MARKER, "a")
        ids = encode("a", vocab)
        assert [vocab.pieces[i] for i in ids] == [MARKER + "a"]

    def test_nfkc_applied_before_encoding(self):
        vocab = train_bpe(_docs("abc"), vocab_size=10)
        # fullwidth 'a' normalizes to 'a'
        assert encode("ａbc", vocab) == encode("abc", vocab)

    def test_round_trip_on_random_in_alphabet_strings(self):
        corpus = "tere tulemast tartusse täna õhtul kell kuus"
        vocab = train_bpe(_docs(corpus), vocab_size=30)
        alphabet = sorted(set(corpus.replace(" ", "")))
        rng = random.Random(42)
        for _ in range(1000):
            words = [
                "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))
                for _ in range(rng.randint(1, 6))
            ]
            text = " ".join(words)
            assert decode(encode(text, vocab), vocab) == text


def _assert_matches_oracle(texts, vocab_size, probes=()):
    """Full pieces and merges, then encode ids with the memo cold and warm."""
    expected = oracle_train_bpe(_docs(*texts), vocab_size)
    actual = train_bpe(_docs(*texts), vocab_size)
    assert actual.pieces == expected.pieces
    assert actual.merges == expected.merges
    lines = [*texts, *probes]
    reference = [oracle_encode(line, expected) for line in lines]
    assert [encode(line, actual) for line in lines] == reference  # cold
    assert [encode(line, actual) for line in lines] == reference  # warm
    return actual


class TestMergeSequenceOracle:
    """train_bpe and encode against the full-recount reference in bpe_oracle."""

    def test_full_sequence_matches_oracle_on_random_corpora(self):
        rng = random.Random(11)
        for _ in range(40):
            alphabet = rng.choice(["ab", "abc", "abcd", "aab", "kaslt", "[PAD]x"])
            texts = [
                " ".join(
                    "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 9)))
                    for _ in range(rng.randint(1, 25))
                )
                for _ in range(rng.randint(1, 3))
            ]
            floor = len(SPECIALS) + len(set("".join(texts).replace(" ", ""))) + 1
            probes = ["".join(rng.choice(alphabet + "z") for _ in range(6)) for _ in range(5)]
            _assert_matches_oracle(texts, floor + rng.randint(1, 80), probes=probes)

    def test_tie_break_on_count_then_concatenation(self):
        # every pair occurs twice; concatenations order "ab" < "cd" < "▁ab" < "▁cd"
        vocab = _assert_matches_oracle(["ab ab cd cd"], 100)
        m = MARKER
        assert list(vocab.merges) == [("a", "b"), ("c", "d"), (m, "ab"), (m, "cd")]
        products = ("ab", "cd", m + "ab", m + "cd")
        assert vocab.pieces[len(SPECIALS):] == ("a", "b", "c", "d", m) + products

    def test_tie_on_concatenation_breaks_by_pair(self, monkeypatch):
        # marker "ca", word "cac": after (a, c) the symbols are ca c ac, and
        # (c, ac) and (ca, c) both make "cac" once; ("c", "ac") < ("ca", "c")
        monkeypatch.setattr(bpe, "MARKER", "ca")
        vocab = _assert_matches_oracle(["cac"], 100)
        assert list(vocab.merges) == [("a", "c"), ("c", "ac"), ("ca", "cac")]

    def test_overlapping_pair_counted_twice_merged_once(self):
        # "aaa" holds (a, a) twice, so it ties (b, c) from "bc bc" at 2 and wins
        # on "aa" < "bc"; the merge rewrites "aaa" to aa a, not to one piece
        m = MARKER
        vocab = _assert_matches_oracle(["aaa bc bc"], 100, probes=["aaaa aaaaa"])
        assert list(vocab.merges) == [
            ("a", "a"), ("b", "c"), (m, "bc"), ("aa", "a"), (m, "aaa"),
        ]
        first = train_bpe(_docs("aaa bc bc"), vocab_size=len(SPECIALS) + 4 + 1)
        assert first.merges == (("a", "a"),)
        assert [first.pieces[i] for i in encode("aaa", first)] == [m, "aa", "a"]

    def test_even_run_merges_into_equal_halves(self):
        m = MARKER
        vocab = _assert_matches_oracle(["aaaa"], 100)
        assert list(vocab.merges) == [("a", "a"), ("aa", "aa"), (m, "aaaa")]

    def test_merge_reproducing_an_existing_piece_adds_none(self, monkeypatch):
        # with marker "ab" the first merge (a, b) makes the marker piece again:
        # it is listed in merges but the inventory grows only with (ab, ab)
        monkeypatch.setattr(bpe, "MARKER", "ab")
        vocab = _assert_matches_oracle(["ab ab"], 9)
        assert list(vocab.merges) == [("a", "b"), ("ab", "ab")]
        assert vocab.pieces == SPECIALS + ("a", "ab", "b", "abab")

    def test_special_characters_never_merge_into_a_special(self):
        # after (A,D), (AD,]), (P,AD]) the best pair by concatenation would be
        # ([, PAD]) = "[PAD]"; it is skipped and (▁, [) merges instead
        m = MARKER
        vocab = _assert_matches_oracle(["[PAD]"], 100, probes=["[PAD] [MASK]"])
        assert list(vocab.merges) == [
            ("A", "D"), ("AD", "]"), ("P", "AD]"), (m, "["), (m + "[", "PAD]"),
        ]
        assert not {left + right for left, right in vocab.merges} & set(SPECIALS)
        three = train_bpe(_docs("[PAD]"), vocab_size=len(SPECIALS) + 6 + 3)
        ids = encode("[PAD]", three)
        assert [three.pieces[i] for i in ids] == [m, "[", "PAD]"]
        assert min(ids) >= len(SPECIALS)

    def test_alphabet_past_latin1_matches_oracle(self):
        # 300 CJK ideographs: the words use the last 40, whose piece ids pass
        # 255, so each word type is spelled in two bytes per code point
        rng = random.Random(300)
        alphabet = [chr(0x4E00 + i) for i in range(300)]
        words = ["".join(rng.choices(alphabet[-40:], k=rng.randint(1, 6))) for _ in range(400)]
        texts = [" ".join(alphabet), " ".join(words)]
        assert len(set("".join(texts).replace(" ", ""))) > 256
        vocab = _assert_matches_oracle(texts, 420, probes=[" ".join(reversed(words[:50]))])
        assert len(vocab) == 420


class TestTrainingMemory:
    def test_peak_per_word_type_is_bounded(self):
        # 11,000 random words of Estonian letters with Zipf frequencies give
        # 10,204 types.  Word types spelled as strs of piece ids peak at about
        # 413 B per type here; as tuples of one-character strings, at 630.
        rng = random.Random(2017)
        letters = "abdeghijklmnoprstuvõäöü"
        forms = ["".join(rng.choices(letters, k=rng.randint(2, 10))) for _ in range(11_000)]
        docs = _docs(*(" ".join([form] * (1 + 600 // rank)) for rank, form in enumerate(forms, 1)))
        types = len(set(forms))
        assert types >= 10_000
        tracemalloc.start()
        try:
            train_bpe(docs, vocab_size=200)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / types <= 450


_oracle_words = st.lists(
    st.text(alphabet="abc▁[PAD]", min_size=1, max_size=8), min_size=1, max_size=12
)


@settings(max_examples=60, deadline=None)
@given(_oracle_words, st.integers(min_value=1, max_value=40))
def test_merge_sequence_matches_oracle_property(words, extra):
    text = " ".join(words)
    floor = len(SPECIALS) + len(set(text.replace(" ", "")) | {MARKER})
    _assert_matches_oracle([text], floor + extra, probes=[" ".join(reversed(words))])


@st.composite
def _hand_built_vocabs(draw):
    """Pieces in any order and random merges over them.  "ab" is a piece before
    ("a", "b") makes it again, and one merge is listed again further down."""
    extra = draw(st.lists(st.sampled_from([MARKER, MARKER + "a"]), unique=True))
    pieces, merges = ["a", "b", "c", "ab", "bc", *extra], [("a", "b"), ("b", "c")]
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        left, right = draw(st.sampled_from(pieces)), draw(st.sampled_from(pieces))
        merges.insert(draw(st.integers(min_value=0, max_value=len(merges))), (left, right))
        if left + right not in pieces:
            pieces.append(left + right)
    first = draw(st.integers(min_value=0, max_value=len(merges) - 1))
    merges.insert(draw(st.integers(min_value=first + 1, max_value=len(merges))), merges[first])
    return Vocab(pieces=SPECIALS + tuple(draw(st.permutations(pieces))), merges=tuple(merges))


@settings(max_examples=300, deadline=None)
@given(_hand_built_vocabs(), st.text(alphabet="abc▁x ", max_size=40))
# the later listing of (a, b) ranks below (b, c): "abc" is ▁ a bc, not ▁ ab c
@example(Vocab(SPECIALS + ("a", "b", "c", "ab", "bc"), (("a", "b"), ("b", "c"), ("a", "b"))), "abc")
# every (a, b) merges before (ab, a) is looked for: "abab" is ▁ ab ab, not ▁ aba b
@example(Vocab(SPECIALS + ("a", "b", "ab", "aba"), (("ab", "a"), ("a", "b"))), "abab")
def test_hand_built_vocab_encodes_as_oracle(vocab, text):
    # "x" is never a piece, and the marker only sometimes
    assert encode(text, vocab) == oracle_encode(text, vocab)


class TestEncodeCache:
    def test_warm_cache_leaves_vocab_unchanged(self, tmp_path):
        vocab = train_bpe(_docs("tere tulemast tartu tallinna"), vocab_size=30)
        twin = train_bpe(_docs("tere tulemast tartu tallinna"), vocab_size=30)

        def saved(name):
            vp, mp = tmp_path / f"{name}.vocab", tmp_path / f"{name}.merges"
            vocab.save(str(vp), str(mp))
            return vp.read_bytes(), mp.read_bytes()

        before = (repr(vocab), hash(vocab), pickle.dumps(vocab), saved("cold"))
        ids = encode("tere tartu tere tallinn", vocab)
        assert vocab.word_ids  # the memo is warm
        assert vocab == twin
        assert (repr(vocab), hash(vocab), pickle.dumps(vocab), saved("warm")) == before
        restored = pickle.loads(pickle.dumps(vocab))
        assert restored == vocab and not restored.word_ids
        assert encode("tere tartu tere tallinn", restored) == ids

    def test_memo_past_its_bound_changes_no_ids(self, monkeypatch):
        monkeypatch.setattr(ingest, "MEMO_LIMIT", 3)
        corpus = "kask kajakas kaskaad kastan kaktus"
        vocab = train_bpe(_docs(corpus), vocab_size=30)
        expected_vocab = oracle_train_bpe(_docs(corpus), 30)
        rng = random.Random(5)
        for _ in range(200):
            text = " ".join(
                "".join(rng.choice("kasjtun") for _ in range(rng.randint(1, 7)))
                for _ in range(rng.randint(1, 8))
            )
            assert encode(text, vocab) == oracle_encode(text, expected_vocab)
            assert len(vocab.word_ids) <= 3


_alpha_words = st.lists(
    st.text(alphabet="abcõäöü", min_size=1, max_size=8), min_size=1, max_size=6
)


@settings(max_examples=100, deadline=None)
@given(_alpha_words)
def test_round_trip_property(words):
    vocab = train_bpe(_docs("abc õäöü bca üöäõ cab"), vocab_size=20)
    text = " ".join(words)
    assert decode(encode(text, vocab), vocab) == text


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=30))
def test_requested_size_is_exact_unless_pairs_run_out(extra):
    corpus = "abcd bcda cdab dabc abdc"
    alphabet_size = len(set(corpus.replace(" ", ""))) + 1  # + marker
    size = len(SPECIALS) + alphabet_size + extra
    vocab = train_bpe(_docs(corpus), vocab_size=size)
    assert len(vocab) <= size
    if len(vocab) < size:
        # undershooting is only allowed on pair exhaustion, in which case a
        # larger budget cannot find anything more to merge either
        bigger = train_bpe(_docs(corpus), vocab_size=size + 10)
        assert bigger.pieces == vocab.pieces
        assert bigger.merges == vocab.merges
