"""Document model, corpus statistics, and container format round trips."""

from __future__ import annotations

import errno
import json
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusprep.errors import IoError, MalformedRecord, UnreadableFile
from corpusprep.ingest import (
    FORMATS,
    CorpusStats,
    Document,
    compute_stats,
    open_output,
    read_documents,
    refuse_shared_files,
    write_documents,
)


class TestDocument:
    def test_requires_id(self):
        with pytest.raises(ValueError):
            Document(id="", text="tere")

    def test_lemmas_must_align_with_tokens(self):
        with pytest.raises(ValueError):
            Document(id="d", text="kaks sõna", lemmas=("üks",))

    def test_aligned_lemmas_accepted_and_frozen_as_tuple(self):
        doc = Document(id="d", text="kaks sõna", lemmas=["kaks", "sõna"])
        assert doc.lemmas == ("kaks", "sõna")
        assert isinstance(doc.lemmas, tuple)

    def test_tokens_splits_on_any_whitespace(self):
        doc = Document(id="d", text="üks  kaks\nkolm\tneli")
        assert doc.tokens() == ["üks", "kaks", "kolm", "neli"]


class TestCorpusStats:
    def test_counts_documents_sentences_words(self):
        stats = CorpusStats()
        stats.add_document(Document(id="a", text="esimene lause siin.\nteine lause."))
        stats.add_document(Document(id="b", text="kolmas."))
        assert stats.as_dict() == {"documents": 2, "sentences": 3, "words": 6}

    def test_add_document_returns_its_counts_for_a_later_tally(self):
        stats, later = CorpusStats(), CorpusStats(1, 1, 1)
        counts = stats.add_document(Document(id="a", text="üks kaks.\nkolm."))
        assert counts == stats == CorpusStats(1, 2, 3)
        later.add(counts)
        assert later == CorpusStats(2, 3, 4)

    def test_blank_lines_are_not_sentences(self):
        stats = CorpusStats()
        stats.add_document(Document(id="a", text="üks.\n\n  \nkaks."))
        assert stats.sentences == 2

    def test_ordering_is_fieldwise_conjunction(self):
        small, big = CorpusStats(1, 1, 1), CorpusStats(2, 2, 2)
        assert small <= big
        assert not big <= small
        # incomparable pair: fewer documents but more words
        assert not CorpusStats(1, 1, 99) <= CorpusStats(2, 2, 3)

    def test_compute_stats_over_stream(self):
        docs = [Document(id=str(i), text="a b c") for i in range(4)]
        assert compute_stats(docs) == CorpusStats(4, 4, 12)


class TestJsonLines:
    def test_round_trip_preserves_all_fields(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        docs = [
            Document(id="x", text="tere tulemast", lang_tag="et", lemmas=("tere", "tulema")),
            Document(id="y", text="teine rida\nkolmas rida"),
        ]
        assert write_documents(docs, path, "json-lines") == 2
        assert list(read_documents(path, "json-lines")) == docs

    def test_missing_text_key(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        path_obj = tmp_path / "c.jsonl"
        path_obj.write_text('{"id": "a"}\n', encoding="utf-8")
        with pytest.raises(MalformedRecord) as exc:
            list(read_documents(path, "json-lines"))
        assert exc.value.line_no == 1

    def test_invalid_json_reports_line_number(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"text": "ok"}\n{broken\n', encoding="utf-8")
        with pytest.raises(MalformedRecord) as exc:
            list(read_documents(str(p), "json-lines"))
        assert exc.value.line_no == 2

    def test_misaligned_lemmas_rejected_with_line_number(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text(json.dumps({"text": "kaks sõna", "lemmas": ["üks"]}) + "\n", encoding="utf-8")
        with pytest.raises(MalformedRecord) as exc:
            list(read_documents(str(p), "json-lines"))
        assert exc.value.line_no == 1

    def test_missing_id_synthesized_by_ordinal(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"text": "a"}\n{"text": "b"}\n', encoding="utf-8")
        ids = [d.id for d in read_documents(str(p), "json-lines")]
        assert ids == ["doc-0", "doc-1"]

    def test_falsy_ids_kept_empty_or_null_synthesized(self, tmp_path):
        p = tmp_path / "c.jsonl"
        rows = [{"id": 0, "text": "a b"}, {"id": 7, "text": "c"}, {"id": "", "text": "d"},
                {"id": None, "text": "e"}, {"id": False, "text": "f"}, {"id": "0", "text": "g"}]
        p.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        ids = [d.id for d in read_documents(str(p), "json-lines")]
        assert ids == ["0", "7", "doc-2", "doc-3", "False", "0"]

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"text": "a"}\n\n{"text": "b"}\n', encoding="utf-8")
        assert len(list(read_documents(str(p), "json-lines"))) == 2


class TestVertXml:
    def test_round_trip_keeps_id_lang_and_text(self, tmp_path):
        path = str(tmp_path / "c.vert")
        docs = [
            Document(id="d1", text="esimene lause\nteine lause", lang_tag="et"),
            Document(id="d2", text="kolmas"),
        ]
        write_documents(docs, path, "vert-xml")
        assert list(read_documents(path, "vert-xml")) == docs

    def test_structural_characters_survive_round_trip(self, tmp_path):
        path = str(tmp_path / "c.vert")
        doc = Document(id='a"b', text='x < y & z > "w"')
        write_documents([doc], path, "vert-xml")
        assert list(read_documents(path, "vert-xml")) == [doc]

    def test_stray_content_outside_doc_rejected(self, tmp_path):
        p = tmp_path / "c.vert"
        p.write_text("pole dokumenti\n", encoding="utf-8")
        with pytest.raises(MalformedRecord) as exc:
            list(read_documents(str(p), "vert-xml"))
        assert exc.value.line_no == 1

    def test_unclosed_doc_rejected_at_open_line(self, tmp_path):
        p = tmp_path / "c.vert"
        p.write_text('<doc id="a">\nlause\n', encoding="utf-8")
        with pytest.raises(MalformedRecord) as exc:
            list(read_documents(str(p), "vert-xml"))
        assert exc.value.line_no == 1

    def test_single_quoted_attributes_accepted(self, tmp_path):
        p = tmp_path / "c.vert"
        p.write_text("<doc id='a' lang='et'>\ntere\n</doc>\n", encoding="utf-8")
        [doc] = read_documents(str(p), "vert-xml")
        assert (doc.id, doc.lang_tag) == ("a", "et")

    def test_missing_id_synthesized(self, tmp_path):
        p = tmp_path / "c.vert"
        p.write_text("<doc>\ntere\n</doc>\n", encoding="utf-8")
        [doc] = read_documents(str(p), "vert-xml")
        assert doc.id == "doc-0"


class TestBlanklineText:
    def test_blocks_split_on_blank_lines(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("lause üks\nlause kaks\n\n\nteine dokument\n", encoding="utf-8")
        docs = list(read_documents(str(p), "blankline-text"))
        assert [d.text for d in docs] == ["lause üks\nlause kaks", "teine dokument"]
        assert [d.id for d in docs] == ["doc-0", "doc-1"]

    def test_final_block_without_trailing_blank(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("a\n\nb", encoding="utf-8")
        assert [d.text for d in read_documents(str(p), "blankline-text")] == ["a", "b"]

    def test_round_trip_of_texts(self, tmp_path):
        path = str(tmp_path / "c.txt")
        docs = [Document(id="x", text="rida üks\nrida kaks"), Document(id="y", text="kolm")]
        write_documents(docs, path, "blankline-text")
        assert [d.text for d in read_documents(path, "blankline-text")] == [d.text for d in docs]


class TestErrors:
    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            list(read_documents(str(tmp_path / "x"), "tsv"))
        with pytest.raises(ValueError):
            write_documents([], str(tmp_path / "x"), "tsv")

    def test_missing_file(self, tmp_path):
        with pytest.raises(UnreadableFile):
            list(read_documents(str(tmp_path / "absent.jsonl"), "json-lines"))

    def test_non_utf8_file_is_unreadable(self, tmp_path):
        path = tmp_path / "latin.jsonl"
        path.write_bytes(b'{"id": "a", "text": "tere"}\n{"id": "b", "text": "\xff"}\n')
        with pytest.raises(UnreadableFile, match="latin.jsonl"):
            list(read_documents(str(path), "json-lines"))

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(IoError):
            write_documents(
                [Document(id="a", text="x")],
                str(tmp_path / "no" / "such" / "dir" / "f.jsonl"),
                "json-lines",
            )


class TestOpenOutput:
    def test_path_appears_only_when_block_completes(self, tmp_path):
        path = str(tmp_path / "out.txt")
        with open_output(path) as out:
            out.write("tere\n")
            assert not os.path.exists(path)
        assert os.listdir(tmp_path) == ["out.txt"]
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == "tere\n"

    def test_failing_block_leaves_no_new_file(self, tmp_path):
        path = str(tmp_path / "out.txt")
        with pytest.raises(RuntimeError):
            with open_output(path) as out:
                out.write("pool")
                raise RuntimeError("stage failed")
        assert os.listdir(tmp_path) == []

    def test_failing_block_keeps_existing_bytes(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old bytes")
        with pytest.raises(RuntimeError):
            with open_output(str(path), binary=True) as out:
                out.write(b"new")
                raise RuntimeError("stage failed")
        assert os.listdir(tmp_path) == ["out.bin"]
        assert path.read_bytes() == b"old bytes"

    def test_failing_write_is_io_error_naming_path(self, tmp_path, monkeypatch):
        import corpusprep.ingest as ingest

        class FullDisk:
            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.handle.close()

            def write(self, data):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(ingest, "open", lambda *a, **k: FullDisk(open(*a, **k)), raising=False)
        path = str(tmp_path / "out.jsonl")
        with pytest.raises(IoError, match=re.escape(f"cannot write {path}: ")):
            write_documents([Document(id="a", text="tere")], path, "json-lines")
        assert os.listdir(tmp_path) == []

    def test_input_may_be_its_output(self, tmp_path):
        path = str(tmp_path / "docs.jsonl")
        docs = [Document(id="a", text="tere"), Document(id="b", text="head aega")]
        write_documents(docs, path, "json-lines")
        assert write_documents(read_documents(path, "json-lines"), path, "vert-xml") == 2
        assert list(read_documents(path, "vert-xml")) == docs


class TestRefuseSharedFiles:
    @pytest.mark.parametrize("case", ["same", "relative", "symlink", "hard-link", "dangling"])
    def test_output_naming_an_input_is_refused(self, case, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        src = tmp_path / "c.jsonl"
        if case != "dangling":
            src.write_text("tere\n", encoding="utf-8")
        out = {"same": str(src), "relative": "c.jsonl"}.get(case, str(tmp_path / "o.jsonl"))
        if case in ("symlink", "dangling"):
            os.symlink(src, out)
        elif case == "hard-link":
            os.link(src, out)
        with pytest.raises(ValueError, match=re.escape(f"report path {out} is the input file")):
            refuse_shared_files([("input", str(src))], [("report", out)])

    def test_output_naming_an_earlier_output_is_refused(self, tmp_path):
        vocab = str(tmp_path / "v.txt")
        with pytest.raises(ValueError, match=re.escape(f"merges path {vocab} is the vocab file")):
            refuse_shared_files([("input", str(tmp_path / "c.jsonl"))],
                                [("vocab", vocab), ("merges", vocab)])

    def test_first_input_names_a_file_before_any_output(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        with pytest.raises(ValueError, match=re.escape(f"lexicon path {path} is the input file")):
            refuse_shared_files([("input", path), ("output", path)], [("lexicon", path)])

    def test_no_path_and_devices_name_no_file(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        refuse_shared_files([("input", path), ("output", os.devnull)],
                            [("report", None), ("vocab", os.devnull), ("merges", os.devnull)])
        refuse_shared_files([("input", path)], [("report", str(tmp_path / "r.jsonl"))])

    def test_each_path_is_keyed_once(self, tmp_path, monkeypatch):
        # 512 shards and five more artifacts: a check of every pair would key each path 517 times
        import corpusprep.ingest as ingest

        keyed = []
        file_key = ingest._file_key
        monkeypatch.setattr(ingest, "_file_key", lambda path: keyed.append(path) or file_key(path))
        outputs = [("shard", str(tmp_path / f"pretrain-{i}-of-512.tfrecord")) for i in range(512)]
        refuse_shared_files([("input", str(tmp_path / "c.jsonl"))], outputs)
        assert len(keyed) == 513


_texts = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc")),
    min_size=1,
    max_size=60,
).filter(lambda s: s.strip())


@settings(max_examples=60, deadline=None)
@given(st.lists(_texts, min_size=1, max_size=8))
def test_jsonl_round_trip_arbitrary_texts(tmp_path_factory, texts):
    path = str(tmp_path_factory.mktemp("rt") / "c.jsonl")
    docs = [Document(id=f"d{i}", text=t) for i, t in enumerate(texts)]
    write_documents(docs, path, "json-lines")
    assert list(read_documents(path, "json-lines")) == docs


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.text(alphabet="abcõäöü <>&\"'", min_size=1, max_size=40).filter(lambda s: s.strip()),
        min_size=1,
        max_size=6,
    )
)
def test_vert_round_trip_structural_characters(tmp_path_factory, texts):
    path = str(tmp_path_factory.mktemp("rt") / "c.vert")
    docs = [Document(id=f"d{i}", text=t) for i, t in enumerate(texts)]
    write_documents(docs, path, "vert-xml")
    assert list(read_documents(path, "vert-xml")) == docs


def test_formats_constant_lists_all_three():
    assert FORMATS == ("vert-xml", "blankline-text", "json-lines")
