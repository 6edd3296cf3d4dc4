import random

import pytest

from escansion.corpus import CorpusLine
from escansion.errors import (AlignmentError, DataError, EmptyInput,
                              LengthMismatch, UnnormalizableMet)
from escansion.metrics import (
    PATTERN_LENGTH,
    EvalReport,
    evaluate,
    format_report,
    score_predictions_file,
)

P = "+--+---+-+-"


def _gold(n=4):
    return [CorpusLine(f"p{i // 2}", i % 2 + 1, f"texto {i}", P)
            for i in range(n)]


class TestEvaluate:
    @pytest.mark.parametrize("pred,correct", [(P, 1), ("+--+---+--+", 0)],
                             ids=["equal", "one-position-off"])
    def test_exact_match(self, pred, correct):
        assert evaluate([(pred, P, "l")]).correct == correct

    @pytest.mark.parametrize("pred,gold", [
        (P[:10], P), (P, P + "-"), (P, P[:10]),
    ], ids=["short-prediction", "long-prediction", "short-gold"])
    def test_length_mismatch(self, pred, gold):
        with pytest.raises(LengthMismatch):
            evaluate([(pred, gold, "l")])

    @pytest.mark.parametrize("pred,gold", [
        (P, "x" * 11), (P, "-" * 11), ("+-x+-+-+-+-", P), (None, "x" * 11),
        (["+"] * 11, P), (list(P), P), (5, P), (P, list(P)), (None, 5),
    ], ids=["x-gold", "weak-gold", "x-prediction", "unscanned-x-gold",
            "list-prediction", "equal-list-prediction", "int-prediction",
            "list-gold", "unscanned-int-gold"])
    def test_malformed_pattern_is_a_data_error(self, pred, gold):
        with pytest.raises(DataError):
            evaluate([(pred, gold, "l")])

    def test_half_right(self):
        pairs = [(P, P, "a"), (P, P, "b"),
                 ("-" * 10 + "+", P, "c"), ("+" * 11, P, "d")]
        report = evaluate(pairs)
        assert report.total == 4
        assert report.correct == 2
        assert report.accuracy == 50.0

    def test_all_right(self):
        report = evaluate([(P, P, f"l{i}") for i in range(5)])
        assert report.accuracy == 100.0
        assert report.per_position_accuracy == (1.0,) * PATTERN_LENGTH

    def test_single_position_wrong(self):
        pred = P[:5] + ("-" if P[5] == "+" else "+") + P[6:]
        report = evaluate([(pred, P, "l")])
        assert report.accuracy == 0.0
        assert report.per_position_accuracy[5] == 0.0
        assert all(report.per_position_accuracy[i] == 1.0
                   for i in range(11) if i != 5)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            evaluate([])

    def test_unscanned_counts_as_wrong_everywhere(self):
        report = evaluate([(None, P, "l"), (P, P, "m")])
        assert report.correct == 1
        assert report.per_position_accuracy == (0.5,) * 11
        assert report.error_examples[0][2] == "<unscanned>"

    def test_permutation_invariant(self):
        rng = random.Random(3)
        pairs = [(P, P, "a"), ("+" * 11, P, "b"), (P, P, "c"),
                 ("-" * 10 + "+", P, "d"), (P, P, "e")]
        base = evaluate(pairs)
        for _ in range(5):
            rng.shuffle(pairs)
            report = evaluate(pairs)
            assert report.accuracy == base.accuracy
            assert report.per_position_accuracy == base.per_position_accuracy

    def test_exact_match_bounded_by_positions(self):
        rng = random.Random(9)
        pairs = []
        for i in range(40):
            pred = "".join(rng.choice("+-") for _ in range(11))
            pred = pred if "+" in pred else "+" + pred[1:]
            pairs.append((pred, P, f"l{i}"))
        report = evaluate(pairs)
        exact = report.correct / report.total
        assert all(exact <= frac + 1e-12
                   for frac in report.per_position_accuracy)

    def test_error_examples_capped(self):
        pairs = [("+" * 11, P, f"l{i}") for i in range(80)]
        assert len(evaluate(pairs).error_examples) == 50

    def test_report_invariant_enforced(self):
        with pytest.raises(ValueError):
            EvalReport(total=4, correct=2, accuracy=99.0,
                       per_position_accuracy=(1.0,) * 11, error_examples=())
        with pytest.raises(ValueError, match="top prediction share"):
            EvalReport(total=4, correct=2, accuracy=50.0,
                       per_position_accuracy=(1.0,) * 11, error_examples=(),
                       distinct_predictions=1, top_prediction_share=1.5)

    def test_distinct_predictions_and_top_share(self):
        q = "-+---+---+-"
        # an unscanned line counts for neither figure
        report = evaluate([(P, P, "a"), (P, q, "b"), (q, q, "c"),
                           (None, P, "d")])
        assert report.distinct_predictions == 2
        assert report.top_prediction_share == pytest.approx(2 / 3)
        constant = evaluate([(P, P, "a"), (P, q, "b"), (P, q, "c")])
        assert (constant.distinct_predictions,
                constant.top_prediction_share) == (1, 1.0)
        unscanned = evaluate([(None, P, "a")])
        assert (unscanned.distinct_predictions,
                unscanned.top_prediction_share) == (0, 0.0)


class TestScorePredictionsFile:
    def test_gold_against_itself_keyed(self, tmp_path):
        gold = _gold()
        pred = tmp_path / "preds.tsv"
        pred.write_text("".join(f"{l.poem_id}\t{l.line_no}\t{l.gold}\n"
                                for l in gold), encoding="utf-8")
        report = score_predictions_file(pred, gold)
        assert report.accuracy == 100.0
        assert report.unmatched == 0

    def test_gold_against_itself_bare(self, tmp_path):
        gold = _gold()
        pred = tmp_path / "preds.txt"
        pred.write_text("".join(l.gold + "\n" for l in gold), encoding="utf-8")
        assert score_predictions_file(pred, gold).accuracy == 100.0

    def test_bare_count_mismatch(self, tmp_path):
        gold = _gold()
        pred = tmp_path / "preds.txt"
        pred.write_text("".join(l.gold + "\n" for l in gold[:-1]),
                        encoding="utf-8")
        with pytest.raises(AlignmentError):
            score_predictions_file(pred, gold)

    def test_keyed_missing_line_counts_against(self, tmp_path):
        gold = _gold()
        pred = tmp_path / "preds.tsv"
        rows = [f"{l.poem_id}\t{l.line_no}\t{l.gold}\n" for l in gold[:-1]]
        rows.append(f"unknown\t9\t{P}\n")
        pred.write_text("".join(rows), encoding="utf-8")
        report = score_predictions_file(pred, gold)
        assert report.total == len(gold)
        assert report.correct == len(gold) - 1
        assert report.unmatched == 1

    def test_normalizes_prediction_shapes(self, tmp_path):
        gold = [CorpusLine("p", 1, "texto", "-+---+---+-")]
        pred = tmp_path / "preds.txt"
        pred.write_text("-+---+---+\n", encoding="utf-8")  # oxytone 10
        assert score_predictions_file(pred, gold).accuracy == 100.0

    def test_bad_row_names_its_line(self, tmp_path):
        pred = tmp_path / "preds.tsv"
        pred.write_text(f"p0\t1\t{P}\n# comment\np0\t2\n", encoding="utf-8")
        with pytest.raises(AlignmentError) as info:
            score_predictions_file(pred, _gold())
        assert str(info.value).startswith(f"{pred}:3: ")
        assert "neither 1 nor 3+ columns" in str(info.value)
        # a pattern that does not normalize, in a keyed and in a bare row
        for rows in (f"p0\t1\t{P}\n\np0\t2\t+++\n", f"{P}\n\n+x+\n"):
            pred.write_text(rows, encoding="utf-8")
            with pytest.raises(UnnormalizableMet) as info:
                score_predictions_file(pred, _gold())
            assert str(info.value).startswith(f"{pred}:3: ")

    @pytest.mark.parametrize("first", ["keyed", "bare"])
    def test_mixed_rows_name_the_first_odd_row(self, tmp_path, first):
        # one bare row among keyed ones must not turn the ids off and
        # pair every row with gold by order, nor the other way round
        gold = _gold()
        keyed = [f"{l.poem_id}\t{l.line_no}\t{l.gold}\n" for l in gold]
        bare = [l.gold + "\n" for l in gold]
        rows = (keyed[::-1][:3] + bare[3:] if first == "keyed"
                else bare[:3] + keyed[3:])
        pred = tmp_path / "preds.tsv"
        pred.write_text("# header\n" + "".join(rows), encoding="utf-8")
        with pytest.raises(AlignmentError) as info:
            score_predictions_file(pred, gold)
        assert str(info.value).startswith(f"{pred}:5: ")

    def test_repeated_keyed_row_names_its_second_row(self, tmp_path):
        # counted twice it would score 3 lines out of 2 gold lines
        pred = tmp_path / "preds.tsv"
        pred.write_text(f"p0\t1\t{P}\np0\t2\t{P}\np0\t1\t{P}\n",
                        encoding="utf-8")
        with pytest.raises(AlignmentError) as info:
            score_predictions_file(pred, _gold(2))
        assert str(info.value) == f"{pred}:3: poem p0, line 1 repeats"

    def test_gold_sharing_a_key_cannot_take_keyed_rows(self, tmp_path):
        # two stanzas each numbered from 1: the key names two gold lines
        gold = [CorpusLine("p", 1, "primera", P),
                CorpusLine("p", 1, "segunda", "-+---+---+-")]
        pred = tmp_path / "preds.tsv"
        pred.write_text(f"p\t1\t{P}\n", encoding="utf-8")
        with pytest.raises(AlignmentError, match="poem p, line 1 twice"):
            score_predictions_file(pred, gold)
        pred.write_text(f"{P}\n-+---+---+-\n", encoding="utf-8")
        assert score_predictions_file(pred, gold).accuracy == 100.0

    def test_line_no_is_compared_as_an_integer(self, tmp_path):
        pred = tmp_path / "preds.tsv"
        pred.write_text(f"p0\t01\t{P}\np0\t002\t{P}\n", encoding="utf-8")
        report = score_predictions_file(pred, _gold(2))
        assert (report.accuracy, report.unmatched) == (100.0, 0)

    @pytest.mark.parametrize("line_no", ["1_0", "+2", " 3", "\u0663"])
    def test_line_no_is_ascii_digits(self, tmp_path, line_no):
        # int() reads each as a number: 1_0 as 10, the Arabic-Indic ٣ as 3
        pred = tmp_path / "preds.tsv"
        pred.write_text(f"p0\t01\t{P}\np0\t{line_no}\t{P}\n",
                        encoding="utf-8")
        with pytest.raises(AlignmentError) as info:
            score_predictions_file(pred, _gold(20))
        assert str(info.value) == (f"{pred}:2: line_no {line_no!r} "
                                   "is not an integer")

    def test_non_integer_line_no_names_its_row(self, tmp_path):
        pred = tmp_path / "preds.tsv"
        pred.write_text(f"p0\t1\t{P}\np0\tdos\t{P}\n", encoding="utf-8")
        with pytest.raises(AlignmentError) as info:
            score_predictions_file(pred, _gold(2))
        assert str(info.value) == (f"{pred}:2: line_no 'dos' "
                                   "is not an integer")

    def test_misses_follow_gold_order(self, tmp_path):
        gold = _gold(6)
        wrong = "+" * 11
        rows = [f"{l.poem_id}\t{l.line_no}\t{wrong if i % 2 else l.gold}\n"
                for i, l in enumerate(gold) if i != 2]
        pred = tmp_path / "preds.tsv"
        pred.write_text("".join(reversed(rows)), encoding="utf-8")
        report = score_predictions_file(pred, gold)
        assert [text for text, _, _ in report.error_examples] == \
               ["texto 1", "texto 2", "texto 3", "texto 5"]
        assert report.error_examples[1][2] == "<unscanned>"


def test_format_report_two_decimals():
    report = evaluate([(P, P, "a"), ("+" * 11, P, "b"), (P, P, "c")])
    text = format_report(report)
    assert "66.67" in text
    assert "lines scored      3" in text
    assert "distinct preds    2, top share 0.667" in text
