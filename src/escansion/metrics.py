"""Per-line exact-match evaluation of metrical patterns.

A prediction only counts when all 11 positions agree with gold; the
headline number is that strict accuracy as a percentage. Per-position
accuracies are kept alongside as a diagnostic: exact-match accuracy can
never exceed any of them. Two more diagnostics count the lines with a
prediction: the number of distinct predicted patterns, and the share of
those lines that got the most frequent one. A predictor that reads
nothing of the line shows as one pattern with share 1. Outside
predictions meet gold through one keyed lookup,
``score_predictions_file``.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

from .corpus import CorpusLine, normalize_met, parse_line_no
from .errors import AlignmentError, DataError, EmptyInput
from .phonology import numbered_lines
from .scansion import PATTERN_LENGTH, check_pattern

# misses an EvalReport keeps, and the first of them a text report prints
ERROR_EXAMPLE_CAP = 50
REPORTED_ERRORS = 5


@dataclass(frozen=True)
class EvalReport:
    total: int
    correct: int
    accuracy: float  # percentage
    per_position_accuracy: tuple[float, ...]
    error_examples: tuple[tuple[str, str, str], ...]  # (text, gold, predicted)
    unmatched: int = 0
    # over the lines with a prediction: how many patterns were predicted,
    # and the share of those lines that got the most frequent one
    distinct_predictions: int = 0
    top_prediction_share: float = 0.0

    def __post_init__(self):
        if not abs(self.accuracy - 100.0 * self.correct / self.total) < 1e-9:
            raise ValueError(f"accuracy {self.accuracy} is not "
                             f"{self.correct}/{self.total}")
        exact = self.correct / self.total
        for frac in self.per_position_accuracy:
            if not 0.0 <= frac <= 1.0:
                raise ValueError(f"position accuracy {frac} outside [0, 1]")
            if not exact <= frac + 1e-12:
                raise ValueError("exact match cannot beat a position")
        if not 0.0 <= self.top_prediction_share <= 1.0:
            raise ValueError(f"top prediction share {self.top_prediction_share}"
                             " outside [0, 1]")


def evaluate(pairs, unmatched: int = 0) -> EvalReport:
    """Score (pred, gold, text) triples.

    ``pred`` is None for a line the engine could not scan, wrong
    everywhere; every other pattern must be a string that passes
    ``check_pattern``.
    ``unmatched`` predictions, a count, are reported, not scored. A
    ``pairs`` that is not iterable, an item that is not a triple and an
    ``unmatched`` that is not a count raise DataError.
    """
    if not isinstance(pairs, Iterable):
        raise DataError(f"pairs must be an iterable of (pred, gold, text) "
                        f"triples, not {pairs!r}")
    if (isinstance(unmatched, bool) or not isinstance(unmatched, int)
            or unmatched < 0):
        raise DataError(f"unmatched must be a count, not {unmatched!r}")
    pairs = list(pairs)
    if not pairs:
        raise EmptyInput("no prediction/gold pairs to score")
    correct = 0
    position_hits = [0] * PATTERN_LENGTH
    errors = []
    predicted: Counter = Counter()
    for triple in pairs:
        try:
            pred, gold, text = triple
        except (TypeError, ValueError):
            raise DataError(f"a scored line must be a (pred, gold, text) "
                            f"triple, not {triple!r}") from None
        check_pattern(gold)
        if pred is None:
            errors.append((text, gold, "<unscanned>"))
            continue
        predicted[check_pattern(pred)] += 1
        if pred == gold:
            correct += 1
        else:
            errors.append((text, gold, pred))
        for i in range(PATTERN_LENGTH):
            if pred[i] == gold[i]:
                position_hits[i] += 1
    total = len(pairs)
    return EvalReport(
        total=total,
        correct=correct,
        accuracy=100.0 * correct / total,
        per_position_accuracy=tuple(h / total for h in position_hits),
        error_examples=tuple(errors[:ERROR_EXAMPLE_CAP]),
        unmatched=unmatched,
        distinct_predictions=len(predicted),
        top_prediction_share=(max(predicted.values()) / predicted.total()
                              if predicted else 0.0),
    )


def _read_predictions(path) -> tuple[dict, bool]:
    """Each row's normalized pattern under its key, and whether the rows
    are keyed: a keyed row by ``(poem_id, line_no)``, its line_no read by
    ``parse_line_no`` into an int as in a CorpusLine, a bare row by its
    position. A 2-column row, a row of another kind than those before it,
    a line_no that is not ASCII digits or a repeated key raises naming
    path:line."""
    patterns: dict = {}
    keyed = False
    for row, raw in numbered_lines(path):
        if not raw or raw.startswith("#"):
            continue
        cols = raw.split("\t")
        try:
            if len(cols) == 2:
                raise AlignmentError(f"row {raw!r} has neither 1 nor 3+ columns")
            if patterns and (len(cols) > 1) != keyed:
                raise AlignmentError(
                    f"a {'bare' if keyed else 'keyed'} row in a file of "
                    f"{'keyed' if keyed else 'bare'} rows")
            keyed = len(cols) > 1
            key = ((cols[0], parse_line_no(cols[1], AlignmentError))
                   if keyed else len(patterns))
            if key in patterns:
                raise AlignmentError(f"poem {key[0]}, line {key[1]} repeats")
            patterns[key] = normalize_met(cols[2] if keyed else cols[0])
        except DataError as exc:
            raise type(exc)(f"{path}:{row}: {exc}") from None
    return patterns, keyed


def score_predictions_file(pred_path, gold: list[CorpusLine]) -> EvalReport:
    """Join a predictions TSV to gold lines and evaluate.

    Accepts either id-keyed rows (poem_id, line_no, pattern) or one bare
    pattern per gold line, not both in one file. Each gold line, in gold
    order, takes the prediction under its key, or counts as unscanned;
    predictions left over are ``unmatched``. Keyed rows need unique keys.
    """
    patterns, keyed = _read_predictions(Path(pred_path))
    if not patterns:
        raise EmptyInput(f"{pred_path}: no predictions")
    if not keyed and len(patterns) != len(gold):
        raise AlignmentError(
            f"{len(patterns)} bare predictions cannot align with "
            f"{len(gold)} gold lines; add poem_id/line_no columns")
    pairs, seen = [], set()
    for i, ln in enumerate(gold):
        key = (ln.poem_id, ln.line_no) if keyed else i
        if key in seen:
            raise AlignmentError(f"gold has poem {ln.poem_id}, line {ln.line_no}"
                                 " twice; keyed rows cannot tell them apart")
        seen.add(key)
        pairs.append((patterns.pop(key, None), ln.gold, ln.text))
    return evaluate(pairs, unmatched=len(patterns))


def format_report(report: EvalReport) -> str:
    lines = [
        f"lines scored      {report.total}",
        f"exact matches     {report.correct}",
        f"accuracy          {report.accuracy:.2f}",
        "per-position      " + " ".join(
            f"{frac:.3f}" for frac in report.per_position_accuracy),
        f"distinct preds    {report.distinct_predictions}, "
        f"top share {report.top_prediction_share:.3f}",
    ]
    if report.unmatched:
        lines.append(f"unmatched preds   {report.unmatched}")
    for text, gold, pred in report.error_examples[:REPORTED_ERRORS]:
        lines.append(f"  miss: {text!r} gold={gold} pred={pred}")
    return "\n".join(lines)
