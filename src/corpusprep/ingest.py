"""Read and write corpora in the supported container formats.

Three formats are supported:

* ``vert-xml`` -- Sketch-Engine-flavoured vertical files: one document per
  ``<doc ...>`` ... ``</doc>`` element, ``id`` and ``lang`` attributes
  recognized, one sentence per line.  The exact grammar of the national web
  corpora this mirrors is not published anywhere, so this reader is a
  line-based reconstruction: ``<doc`` must open a line and ``</doc>`` must
  stand alone on its closing line.  Markup *inside* a document is kept
  verbatim for the cleaning stage.
* ``blankline-text`` -- plain UTF-8 blocks separated by one or more blank
  lines; ids are synthesized as ``doc-<ordinal>``.
* ``json-lines`` -- one object per line with a required ``text`` key and
  optional ``id``, ``lang`` and ``lemmas`` keys.  The only format that can
  carry lemma annotations.

Readers are generators and never hold more than one document in memory.
Outputs go through ``open_output``, and ``refuse_shared_files`` and
``make_output_dir`` decide where they may go.  The module also holds the
blake2b digest that cleaning and pretraining share and ``Memo``, the bounded
per-token memo of encoding, heuristics and truecasing.
"""

from __future__ import annotations

import json
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from typing import IO, Callable, Iterable, Iterator, Optional, Tuple

from .errors import IoError, MalformedRecord, UnreadableFile

try:  # the C module itself: importing hashlib would also load OpenSSL's libcrypto
    from _blake2 import blake2b
except ImportError:  # an interpreter without it, whose hashlib has its own
    from hashlib import blake2b

FORMATS = ("vert-xml", "blankline-text", "json-lines")

_DOC_OPEN = re.compile(r"<doc(\s[^>]*)?>\s*$")
_ATTR = re.compile(r"""([\w:-]+)\s*=\s*"([^"]*)"|([\w:-]+)\s*=\s*'([^']*)'""")

# only the characters that are structural in our vertical format
_VERT_ESCAPES = [("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"), ('"', "&quot;")]

# keys a Memo holds before it clears; a full BPE memo takes about 2 MB (120-140 bytes a word)
MEMO_LIMIT = 1 << 14


@dataclass(frozen=True)
class Document:
    """One corpus unit.

    ``text`` holds newline-separated sentences when the source is
    pre-segmented.  ``lemmas``, when present, aligns one-to-one with the
    whitespace tokens of ``text``.
    """

    id: str
    text: str
    lang_tag: Optional[str] = None
    lemmas: Optional[Tuple[str, ...]] = None

    def __post_init__(self):
        if not self.id:
            raise ValueError("document id must be non-empty")
        if self.lemmas is not None:
            object.__setattr__(self, "lemmas", tuple(self.lemmas))
            n_tokens = len(self.text.split())
            if len(self.lemmas) != n_tokens:
                raise ValueError(
                    f"document {self.id!r}: {len(self.lemmas)} lemmas for {n_tokens} tokens"
                )

    def tokens(self) -> list[str]:
        return self.text.split()

    def sentences(self) -> list[str]:
        """The non-blank lines of the text, broken where ``str.splitlines`` breaks."""
        return [line for line in self.text.splitlines() if line.strip()]


@dataclass
class CorpusStats:
    """Document/sentence/word counts in the shape of a cleanup report row."""

    documents: int = 0
    sentences: int = 0
    words: int = 0

    def add_document(self, doc: Document) -> "CorpusStats":
        """Count doc in and return its counts, for add() to put in later tallies unsplit."""
        counts = CorpusStats(1, len(doc.sentences()), len(doc.text.split()))
        self.add(counts)
        return counts

    def add(self, counts: "CorpusStats") -> None:
        self.documents += counts.documents
        self.sentences += counts.sentences
        self.words += counts.words

    def __le__(self, other: "CorpusStats") -> bool:
        return (
            self.documents <= other.documents
            and self.sentences <= other.sentences
            and self.words <= other.words
        )

    def as_dict(self) -> dict:
        return {"documents": self.documents, "sentences": self.sentences, "words": self.words}


def compute_stats(docs: Iterable[Document]) -> CorpusStats:
    """Count documents, sentences and whitespace tokens of a stream."""
    stats = CorpusStats()
    for doc in docs:
        stats.add_document(doc)
    return stats


def read_lines(path: str) -> Iterator[Tuple[int, str]]:
    """Yield ``(line_no, line)`` of a UTF-8 text file, newline removed.

    The one reader of text inputs: raises UnreadableFile naming ``path`` if
    the file cannot be opened or read, or is not UTF-8.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, 1):
                yield line_no, line.rstrip("\n")
    except OSError as exc:
        raise UnreadableFile(f"cannot open {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UnreadableFile(f"cannot decode {path}: {exc}") from exc


@contextmanager
def open_output(path: str, binary: bool = False) -> Iterator[IO]:
    """The one writer: path appears, renamed from ``<path>.tmp``, when the block completes.

    A symlink's target is replaced the same way, so the link stays.  A path
    that is not a regular file (a device, a FIFO) is written in place.
    Raises IoError naming path if it cannot be written.
    """
    real = os.path.realpath(path) if os.path.islink(path) else path
    in_place = _in_place(path)
    target = path if in_place else real + ".tmp"
    try:
        with writing(path):
            with open(target, "wb") if binary else open(target, "w", encoding="utf-8") as out:
                yield out
            if not in_place:
                os.replace(target, real)
    finally:
        if not in_place and os.path.lexists(target):
            os.remove(target)


@contextmanager
def writing(path: str) -> Iterator[None]:
    """An OSError inside the block becomes IoError("cannot write <path>: <reason>")."""
    try:
        yield
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc.strerror or exc}") from exc


def make_output_dir(path: str) -> None:
    """Make directory path and its parents unless it exists; IoError naming path if it cannot."""
    with writing(path):
        os.makedirs(path, exist_ok=True)


def _in_place(path: str) -> bool:
    """A path that exists and is not a regular file (a device, a FIFO) is written in place."""
    return os.path.exists(path) and not os.path.isfile(path)


def _file_key(path: Optional[str]) -> object:
    """What every path of path's file shares: (device, inode), or the resolved path until it
    exists.  None for no path or one written in place: writing it replaces no file."""
    if path is None or _in_place(path):
        return None
    if not os.path.exists(path):
        return os.path.realpath(path)
    stat = os.stat(path)
    return stat.st_dev, stat.st_ino


def refuse_shared_files(inputs: Iterable[Tuple[str, Optional[str]]],
                        outputs: Iterable[Tuple[str, Optional[str]]]) -> None:
    """Refuse an output, a (role, path) pair like each input, that names the file of an input
    or an earlier output: ValueError("<role> path <path> is the <other role> file")."""
    named: dict = {}  # file key -> the role of the first path that names the file
    for role, path in inputs:
        named.setdefault(_file_key(path), role)
    for role, path in outputs:
        key = _file_key(path)
        if key is not None and key in named:
            raise ValueError(f"{role} path {path} is the {named[key]} file")
        named[key] = role


def blake2b_digest(data: bytes, size: int) -> bytes:
    """The size-byte blake2b digest of data, for dedup keys and per-document seeds."""
    return blake2b(data, digest_size=size).digest()


class Memo(dict):
    """fn(key) for each key looked up, computed at its first lookup and kept.

    Cleared before a store once it holds MEMO_LIMIT keys, so its memory stays
    bounded.  fn holds the tables it needs, not the memo's owner: no
    reference cycle then keeps the owner alive.
    """

    def __init__(self, fn: Callable) -> None:
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        if len(self) >= MEMO_LIMIT:
            self.clear()
        value = self[key] = self.fn(key)
        return value


def read_documents(path: str, format: str) -> Iterator[Document]:
    """Yield documents from ``path`` in file order.

    Raises UnreadableFile if the file cannot be opened or is not UTF-8 and
    MalformedRecord(line_no) for records that violate the format grammar.
    """
    _check_format(format)
    reader = {"vert-xml": _read_vert, "blankline-text": _read_blankline, "json-lines": _read_jsonl}
    yield from reader[format](read_lines(path))


def write_documents(docs: Iterable[Document], path: str, format: str) -> int:
    """Write a document stream; returns the number of documents written.

    ``read_documents(write_documents(S))`` reproduces every field the format
    can represent: all of them for json-lines, everything but lemmas for
    vert-xml, only the text (with synthesized ids) for blankline-text.
    """
    _check_format(format)
    written = 0
    with open_output(path) as out:
        if format == "vert-xml":
            for doc in docs:
                attrs = f' id="{_vert_escape(doc.id)}"'
                if doc.lang_tag is not None:
                    attrs += f' lang="{_vert_escape(doc.lang_tag)}"'
                out.write(f"<doc{attrs}>\n")
                if doc.text:
                    out.write(_vert_escape(doc.text) + "\n")
                out.write("</doc>\n")
                written += 1
        elif format == "blankline-text":
            for doc in docs:
                if written:
                    out.write("\n")
                out.write(doc.text + "\n")
                written += 1
        else:
            for doc in docs:
                record = {"id": doc.id, "text": doc.text}
                if doc.lang_tag is not None:
                    record["lang"] = doc.lang_tag
                if doc.lemmas is not None:
                    record["lemmas"] = list(doc.lemmas)
                out.write(json_line(record))
                written += 1
    return written


def json_line(record: dict) -> str:
    """One json-lines line: the object, non-ASCII characters kept as they are."""
    return json.dumps(record, ensure_ascii=False) + "\n"


def write_jsonl(records: Iterable[dict], path: str) -> None:
    """Write one JSON object per line."""
    with open_output(path) as out:
        for record in records:
            out.write(json_line(record))


def _check_format(format: str) -> None:
    if format not in FORMATS:
        raise ValueError(f"unknown corpus format {format!r}; expected one of {FORMATS}")


def _vert_escape(text: str) -> str:
    for char, entity in _VERT_ESCAPES:
        text = text.replace(char, entity)
    return text


def _vert_unescape(text: str) -> str:
    for char, entity in reversed(_VERT_ESCAPES):
        text = text.replace(entity, char)
    return text


def _read_vert(numbered: Iterable[Tuple[int, str]]) -> Iterator[Document]:
    ordinal = 0
    open_line = 0
    attrs: dict[str, str] = {}
    lines: list[str] | None = None
    for line_no, line in numbered:
        if lines is None:
            if not line.strip():
                continue
            match = _DOC_OPEN.match(line.strip())
            if not match:
                raise MalformedRecord(line_no, f"expected <doc ...>, got {line.strip()!r}")
            attrs = {
                (m.group(1) or m.group(3)): _vert_unescape(m.group(2) if m.group(2) is not None else m.group(4))
                for m in _ATTR.finditer(match.group(1) or "")
            }
            open_line = line_no
            lines = []
        elif line.strip() == "</doc>":
            doc_id = attrs.get("id") or f"doc-{ordinal}"
            yield Document(
                id=doc_id,
                text=_vert_unescape("\n".join(lines)),
                lang_tag=attrs.get("lang"),
            )
            ordinal += 1
            lines = None
        else:
            lines.append(line)
    if lines is not None:
        raise MalformedRecord(open_line, "unclosed <doc> element")


def _read_blankline(numbered: Iterable[Tuple[int, str]]) -> Iterator[Document]:
    ordinal = 0
    block: list[str] = []
    for _, line in numbered:
        if line.strip():
            block.append(line)
        elif block:
            yield Document(id=f"doc-{ordinal}", text="\n".join(block))
            ordinal += 1
            block = []
    if block:
        yield Document(id=f"doc-{ordinal}", text="\n".join(block))


def _read_jsonl(numbered: Iterable[Tuple[int, str]]) -> Iterator[Document]:
    ordinal = 0
    for line_no, raw in numbered:
        line = raw.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedRecord(line_no, f"invalid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise MalformedRecord(line_no, "expected a JSON object")
        if "text" not in record:
            raise MalformedRecord(line_no, 'missing required "text" key')
        if not isinstance(record["text"], str):
            raise MalformedRecord(line_no, '"text" must be a string')
        lang = record.get("lang")
        if lang is not None and not isinstance(lang, str):
            raise MalformedRecord(line_no, '"lang" must be a string')
        lemmas = record.get("lemmas")
        if lemmas is not None and (
            not isinstance(lemmas, list) or any(not isinstance(x, str) for x in lemmas)
        ):
            raise MalformedRecord(line_no, '"lemmas" must be an array of strings')
        try:
            yield Document(
                id=f"doc-{ordinal}" if record.get("id") in (None, "") else str(record["id"]),
                text=record["text"],
                lang_tag=lang,
                lemmas=tuple(lemmas) if lemmas is not None else None,
            )
        except ValueError as exc:
            raise MalformedRecord(line_no, str(exc)) from exc
        ordinal += 1
