"""Per-line exact-match evaluation of metrical patterns.

A prediction only counts when all 11 positions agree with gold; the
headline number is that strict accuracy as a percentage. Per-position
accuracies are kept alongside as a diagnostic: exact-match accuracy can
never exceed any of them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from .corpus import CorpusLine, normalize_met
from .errors import (AlignmentError, EmptyInput, LengthMismatch,
                     UnnormalizableMet)
from .phonology import numbered_lines

PATTERN_LENGTH = 11
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


def line_exact_match(pred: str, gold: str) -> bool:
    """True iff every position of an 11-symbol pattern pair agrees."""
    for name, pat in (("prediction", pred), ("gold", gold)):
        if len(pat) != PATTERN_LENGTH:
            raise LengthMismatch(f"{name} {pat!r} is not {PATTERN_LENGTH} symbols")
    return pred == gold


def evaluate(pairs) -> EvalReport:
    """Score (pred, gold, text) triples.

    ``pred`` may be None for lines the engine could not scan; those count
    as wrong everywhere.
    """
    pairs = list(pairs)
    if not pairs:
        raise EmptyInput("no prediction/gold pairs to score")
    correct = 0
    position_hits = [0] * PATTERN_LENGTH
    errors = []
    for pred, gold, text in pairs:
        if len(gold) != PATTERN_LENGTH:
            raise LengthMismatch(f"gold {gold!r} is not {PATTERN_LENGTH} symbols")
        if pred is None:
            errors.append((text, gold, "<unscanned>"))
            continue
        if line_exact_match(pred, gold):
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
    )


def _read_predictions(path) -> list[tuple[int, str | None, str | None, str]]:
    """Rows of (line number, poem_id, line_no, normalized pattern); ids
    are None for bare rows. A malformed row raises naming path:line."""
    rows = []
    for row, raw in numbered_lines(path):
        if not raw or raw.startswith("#"):
            continue
        cols = raw.split("\t")
        if len(cols) == 1:
            pid, lno, pattern = None, None, cols[0]
        elif len(cols) >= 3:
            pid, lno, pattern = cols[:3]
        else:
            raise AlignmentError(
                f"{path}:{row}: row {raw!r} has neither 1 nor 3+ columns")
        try:
            rows.append((row, pid, lno, normalize_met(pattern)))
        except UnnormalizableMet as exc:
            raise UnnormalizableMet(f"{path}:{row}: {exc}") from None
    return rows


def score_predictions_file(pred_path, gold: list[CorpusLine]) -> EvalReport:
    """Join a predictions TSV to gold lines and evaluate.

    Accepts either id-keyed rows (poem_id, line_no, pattern) or one bare
    pattern per line aligned with the gold order, not both in one file.
    Predictions that match no gold line are reported in ``unmatched``.
    """
    rows = _read_predictions(Path(pred_path))
    if not rows:
        raise EmptyInput(f"{pred_path}: no predictions")
    keyed = rows[0][1] is not None
    for row, pid, _, _ in rows:
        if (pid is not None) != keyed:
            raise AlignmentError(
                f"{pred_path}:{row}: a {'bare' if keyed else 'keyed'} row "
                f"in a file of {'keyed' if keyed else 'bare'} rows")
    pairs = []
    unmatched = 0
    if keyed:
        by_key = {(ln.poem_id, str(ln.line_no)): ln for ln in gold}
        covered = set()
        for _, pid, lno, pattern in rows:
            line = by_key.get((pid, lno))
            if line is None:
                unmatched += 1
                continue
            covered.add((pid, lno))
            pairs.append((pattern, line.gold, line.text))
        for key, line in by_key.items():
            if key not in covered:
                pairs.append((None, line.gold, line.text))
    else:
        if len(rows) != len(gold):
            raise AlignmentError(
                f"{len(rows)} bare predictions cannot align with "
                f"{len(gold)} gold lines; add poem_id/line_no columns")
        for (_, _, _, pattern), line in zip(rows, gold):
            pairs.append((pattern, line.gold, line.text))
    report = evaluate(pairs)
    if unmatched:
        report = replace(report, unmatched=unmatched)
    return report


def format_report(report: EvalReport) -> str:
    lines = [
        f"lines scored      {report.total}",
        f"exact matches     {report.correct}",
        f"accuracy          {report.accuracy:.2f}",
        "per-position      " + " ".join(
            f"{frac:.3f}" for frac in report.per_position_accuracy),
    ]
    if report.unmatched:
        lines.append(f"unmatched preds   {report.unmatched}")
    for text, gold, pred in report.error_examples[:REPORTED_ERRORS]:
        lines.append(f"  miss: {text!r} gold={gold} pred={pred}")
    return "\n".join(lines)
