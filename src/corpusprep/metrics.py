"""Evaluation scorers: tagging accuracy, entity-span F1, classification.

Span scoring follows the CoNLL chunking evaluator: IOB2 tags with the
lenient repair where an I-X after O, after a different type, or at sequence
start opens a new span.  A predicted span counts as correct only when its
type and both boundaries match a gold span exactly.  Precision, recall and
F1 are micro-averaged percentages, reported overall and per type.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from .errors import Empty, LengthMismatch, MalformedRecord, MalformedTag
from .ingest import read_lines

_TAG = re.compile(r"^([BI])-(.+)$")

Span = Tuple[str, int, int]  # (type, start index, end index inclusive)


def _check_alignment(gold: Sequence[Sequence[str]], pred: Sequence[Sequence[str]]) -> None:
    if len(gold) != len(pred):
        raise LengthMismatch(
            min(len(gold), len(pred)),
            f"{len(gold)} gold sequences vs {len(pred)} predicted",
        )
    for index, (g, p) in enumerate(zip(gold, pred)):
        if len(g) != len(p):
            raise LengthMismatch(index, f"sequence {index}: {len(g)} vs {len(p)} tags")


def tagging_accuracy(
    gold: Sequence[Sequence[str]], pred: Sequence[Sequence[str]]
) -> float:
    """Fraction of positions where the predicted tag equals the gold tag."""
    _check_alignment(gold, pred)
    total = sum(len(g) for g in gold)
    if total == 0:
        raise Empty("no tokens to score")
    correct = sum(
        1 for g, p in zip(gold, pred) for a, b in zip(g, p) if a == b
    )
    return correct / total


def classification_accuracy(gold: Sequence[str], pred: Sequence[str]) -> float:
    """Exact-match fraction over label pairs."""
    if len(gold) != len(pred):
        raise LengthMismatch(min(len(gold), len(pred)), "label lists differ in length")
    if not gold:
        raise Empty("no labels to score")
    return sum(1 for g, p in zip(gold, pred) if g == p) / len(gold)


def _parse_tag(tag: str) -> Tuple[str, str]:
    """Split into (prefix, type); O maps to ("O", "")."""
    if tag == "O":
        return "O", ""
    match = _TAG.match(tag)
    if not match:
        raise MalformedTag(tag)
    return match.group(1), match.group(2)


def extract_spans(tags: Sequence[str]) -> Set[Span]:
    """IOB2 spans with repair: I-X without an open X span starts one."""
    spans: Set[Span] = set()
    open_type = None
    open_start = 0
    for index, tag in enumerate(tags):
        prefix, tag_type = _parse_tag(tag)
        closes = open_type is not None and (
            prefix == "O" or prefix == "B" or tag_type != open_type
        )
        if closes:
            spans.add((open_type, open_start, index - 1))
            open_type = None
        if prefix == "B" or (prefix == "I" and open_type is None):
            open_type = tag_type
            open_start = index
    if open_type is not None:
        spans.add((open_type, open_start, len(tags) - 1))
    return spans


@dataclass(frozen=True)
class TypeScore:
    gold: int
    predicted: int
    correct: int

    @property
    def precision(self) -> float:
        return 100.0 * self.correct / self.predicted if self.predicted else 0.0

    @property
    def recall(self) -> float:
        return 100.0 * self.correct / self.gold if self.gold else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r > 0 else 0.0


@dataclass(frozen=True)
class SpanF1Report:
    overall: TypeScore
    by_type: Dict[str, TypeScore]
    token_accuracy: float


def ner_span_f1(
    gold: Sequence[Sequence[str]], pred: Sequence[Sequence[str]]
) -> SpanF1Report:
    """Micro P/R/F1 over exact (type, boundaries) span matches."""
    _check_alignment(gold, pred)
    gold_count: Counter = Counter()
    pred_count: Counter = Counter()
    correct_count: Counter = Counter()
    tokens = 0
    tokens_correct = 0
    for gold_tags, pred_tags in zip(gold, pred):
        gold_spans = extract_spans(gold_tags)
        pred_spans = extract_spans(pred_tags)
        tokens += len(gold_tags)
        tokens_correct += sum(1 for a, b in zip(gold_tags, pred_tags) if a == b)
        gold_count.update(span[0] for span in gold_spans)
        pred_count.update(span[0] for span in pred_spans)
        correct_count.update(span[0] for span in gold_spans & pred_spans)

    by_type = {
        t: TypeScore(gold=gold_count[t], predicted=pred_count[t], correct=correct_count[t])
        for t in sorted(set(gold_count) | set(pred_count))
    }
    overall = TypeScore(
        gold=sum(gold_count.values()),
        predicted=sum(pred_count.values()),
        correct=sum(correct_count.values()),
    )
    accuracy = tokens_correct / tokens if tokens else 0.0
    return SpanF1Report(overall=overall, by_type=by_type, token_accuracy=accuracy)


def read_conll(path: str) -> List[Tuple[List[str], List[str], List[str]]]:
    """Read `token<TAB>gold<TAB>pred` sequences separated by blank lines."""
    sequences: List[Tuple[List[str], List[str], List[str]]] = []
    tokens: List[str] = []
    gold: List[str] = []
    pred: List[str] = []
    for line_no, line in read_lines(path):
        if not line.strip():
            if tokens:
                sequences.append((tokens, gold, pred))
                tokens, gold, pred = [], [], []
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise MalformedRecord(line_no, "expected token<TAB>gold<TAB>pred")
        tokens.append(parts[0])
        gold.append(parts[1])
        pred.append(parts[2])
    if tokens:
        sequences.append((tokens, gold, pred))
    return sequences


def render_span_report(report: SpanF1Report, token_count: int) -> str:
    """Text layout in the style of the CoNLL chunking evaluator."""
    lines = [
        "processed %d tokens with %d phrases; found: %d phrases; correct: %d."
        % (token_count, report.overall.gold, report.overall.predicted, report.overall.correct),
        "accuracy: %6.2f%%; precision: %6.2f%%; recall: %6.2f%%; FB1: %6.2f"
        % (
            100.0 * report.token_accuracy,
            report.overall.precision,
            report.overall.recall,
            report.overall.f1,
        ),
    ]
    for tag_type in sorted(report.by_type):
        score = report.by_type[tag_type]
        lines.append(
            "%17s: precision: %6.2f%%; recall: %6.2f%%; FB1: %6.2f  %d"
            % (tag_type, score.precision, score.recall, score.f1, score.predicted)
        )
    return "\n".join(lines) + "\n"


def span_report_records(report: SpanF1Report) -> List[dict]:
    """json-lines payload: one record per type plus an ALL row."""

    def record(name: str, score: TypeScore) -> dict:
        return {
            "type": name,
            "precision": round(score.precision, 2),
            "recall": round(score.recall, 2),
            "f1": round(score.f1, 2),
            "gold": score.gold,
            "predicted": score.predicted,
            "correct": score.correct,
        }

    rows = [record(t, report.by_type[t]) for t in sorted(report.by_type)]
    rows.append(record("ALL", report.overall))
    return rows
