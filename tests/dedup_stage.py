"""The shipped dedup stage, driven the way ``corpusprep dedup`` drives it.

Tests of deduplication call this rather than a second implementation, so
they exercise the ``pipeline._clean_stream`` code that ``run`` and the
``dedup`` subcommand run.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Iterable, Iterator, Optional

from corpusprep.cleaning import DropReason, FilterThresholds
from corpusprep.ingest import CorpusStats, Document
from corpusprep.pipeline import _clean_stream


def dedup(
    docs: Iterable[Document],
    on_drop: Optional[Callable[[Document, DropReason], None]] = None,
) -> Iterator[Document]:
    """Yield the documents the dedup stage keeps, in input order.

    Each dropped duplicate is reported to on_drop(doc, reason).
    """

    def report(doc: Document, _stage: str, reason: DropReason) -> None:
        if on_drop is not None:
            on_drop(doc, reason)

    return _clean_stream(
        iter(docs), ["dedup"], FilterThresholds(), None, report, defaultdict(CorpusStats)
    )
