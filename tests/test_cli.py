import io
import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path

import pytest

from escansion import cli
from escansion.cli import main
from escansion.corpus import bundled_mini_gold, write_tsv
from test_corpus import SONNET_TEI

LINE = "cubra de nieve la hermosa cumbre"
DATA = Path(__file__).parent / "data"
NOT_UTF8 = b"caf\xff"  # 0xff starts no UTF-8 sequence


def _run_cli(*argv):
    """``python -m escansion ARGV`` in a fresh interpreter."""
    return subprocess.run([sys.executable, "-m", "escansion", *map(str, argv)],
                          capture_output=True, text=True)


def _assert_data_error_at(proc, where):
    """Exit 2 with one stderr line naming ``where`` (path:line), no traceback."""
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert f"{where}: " in proc.stderr


@pytest.fixture
def gold_tsv(tmp_path):
    path = tmp_path / "gold.tsv"
    write_tsv(bundled_mini_gold()[:12], path)
    return path


class TestScan:
    def test_output_is_byte_identical_to_the_recorded_one(self, tmp_path,
                                                          capsys):
        # scan_guard.txt: the mini gold texts, then sol, sol x 11, a line
        # of punctuation, an unfittable vowel-contact line, lines with
        # contraction marks, and lines where a word's last syllable can
        # split by dieresis right after a synalepha out of it (muy alto)
        for recorded, argv in (("scan_guard.tsv", []),
                               ("scan_guard.jsonl",
                                ["--format", "jsonl", "--diagnostics"]),
                               ("scan_guard_8h.jsonl",
                                ["--format", "jsonl", "--target-length", "8",
                                 "--h-blocks-synalepha"])):
            out = tmp_path / recorded
            assert main(["scan", *argv, str(DATA / "scan_guard.txt"),
                         "-o", str(out)]) == 2
            assert out.read_bytes() == (DATA / recorded).read_bytes()
            assert capsys.readouterr() == ("", "")

    def test_example_line(self, tmp_path, capsys):
        src = tmp_path / "verses.txt"
        src.write_text(LINE + "\n", encoding="utf-8")
        assert main(["scan", str(src)]) == 0
        out = capsys.readouterr().out
        assert "+--+---+-+-" in out
        assert "cu-bra de nie-ve la her-mo-sa cum-bre" in out

    def test_empty_file(self, tmp_path, capsys):
        src = tmp_path / "empty.txt"
        src.write_text("", encoding="utf-8")
        assert main(["scan", str(src)]) == 0
        assert capsys.readouterr().out == ""

    def test_unfittable_line_sets_exit_two(self, tmp_path, capsys):
        src = tmp_path / "verses.txt"
        src.write_text(LINE + "\nsol\n", encoding="utf-8")
        assert main(["scan", str(src)]) == 2
        out = capsys.readouterr().out
        assert "unfittable" in out
        assert "+--+---+-+-" in out  # good lines still emitted

    def test_jsonl_format(self, tmp_path, capsys):
        src = tmp_path / "verses.txt"
        src.write_text(LINE + "\n", encoding="utf-8")
        assert main(["scan", "--format", "jsonl", str(src)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["pattern"] == "+--+---+-+-"
        assert record["metrical_length"] == 11
        assert record["figures"] == []
        assert record["ambiguous"] is True

    def test_output_file_idempotent(self, tmp_path):
        src = tmp_path / "verses.txt"
        src.write_text(LINE + "\nEn tanto que de rosa y azucena\n",
                       encoding="utf-8")
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert main(["scan", str(src), "-o", str(a)]) == 0
        assert main(["scan", str(src), "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_input_is_io_error(self, tmp_path):
        assert main(["scan", str(tmp_path / "nope.txt")]) == 1

    @pytest.mark.parametrize("value", [
        "1", "0", "-4",
        # diagnostics double their cost with each step of the target
        pytest.param("17 --format jsonl --diagnostics",
                     id="diagnostics-above-ceiling")])
    def test_unusable_target_length_is_data_error(self, value, tmp_path,
                                                  capsys):
        src = tmp_path / "verses.txt"
        src.write_text(LINE + "\n", encoding="utf-8")
        assert main(["scan", "--target-length", *value.split(),
                     str(src)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "target_length" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("fmt,kept", [("tsv", False), ("jsonl", True)])
    def test_diagnostics_kept_only_where_printed(self, fmt, kept, tmp_path,
                                                 capsys, monkeypatch):
        # keeping every candidate slows the fitter; only jsonl prints them
        src = tmp_path / "verses.txt"
        src.write_text(LINE + "\n", encoding="utf-8")
        seen = []

        def spy(line, lexicon, config, _scan=cli.scan_line):
            seen.append(config.emit_diagnostics)
            return _scan(line, lexicon, config)

        monkeypatch.setattr(cli, "scan_line", spy)
        assert main(["scan", "--diagnostics", "--format", fmt, str(src)]) == 0
        assert seen == [kept]
        assert ("candidates" in capsys.readouterr().out) is kept

    def test_output_that_cannot_open_leaves_no_input_open(self, tmp_path):
        # the input opens first, so a missing one is named first; then it
        # is closed, not left to the garbage collector, whose
        # ResourceWarning the pytest filters turn into a failure
        src = tmp_path / "verses.txt"
        src.write_text(LINE + "\n", encoding="utf-8")
        out = tmp_path / "no" / "out.tsv"
        assert main(["scan", str(src), "-o", str(out)]) == 1

    def test_missing_input_leaves_output_untouched(self, tmp_path):
        out = tmp_path / "out.tsv"
        out.write_text("earlier results\n", encoding="utf-8")
        assert main(["scan", str(tmp_path / "nope.txt"), "-o", str(out)]) == 1
        assert out.read_text(encoding="utf-8") == "earlier results\n"

    def test_stdin_via_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "escansion", "scan"],
            input=LINE + "\n", capture_output=True, text=True)
        assert proc.returncode == 0
        assert "+--+---+-+-" in proc.stdout

    @pytest.mark.parametrize("fmt", ["tsv", "jsonl"])
    def test_stdio_is_utf8_whatever_the_locale(self, fmt, tmp_path):
        # an ASCII locale neither drops the accents read from stdin nor
        # fails to write them to stdout
        src = tmp_path / "verses.txt"
        src.write_text("no sólo en plata o vïola troncada\n",
                       encoding="utf-8")
        out = tmp_path / "out.txt"
        assert main(["scan", "--format", fmt, str(src), "-o", str(out)]) == 0
        env = {**os.environ, "PYTHONIOENCODING": "ascii"}
        for argv, stdin in ((["-"], src.read_bytes()), ([str(src)], b"")):
            proc = subprocess.run(
                [sys.executable, "-m", "escansion", "scan", "--format", fmt,
                 *argv], input=stdin, capture_output=True, env=env)
            assert (proc.returncode, proc.stderr) == (0, b"")
            assert proc.stdout == out.read_bytes()

    def test_stdin_line_that_is_not_utf8_is_named(self):
        proc = subprocess.run(
            [sys.executable, "-m", "escansion", "scan"],
            input=(LINE + "\n").encode("utf-8") + NOT_UTF8 + b"\n",
            capture_output=True)
        proc.stderr = proc.stderr.decode("utf-8")
        _assert_data_error_at(proc, "<stdin>:2")
        assert b"+--+---+-+-" in proc.stdout

    def test_stdin_lines_are_numbered_as_file_lines(self, tmp_path):
        # a lone \r ends a line in a file read with universal newlines
        data = b"uno\rdos\n" + NOT_UTF8 + b"\n"
        path = tmp_path / "cr.txt"
        path.write_bytes(data)
        _assert_data_error_at(_run_cli("scan", path), f"{path}:3")
        proc = subprocess.run([sys.executable, "-m", "escansion", "scan"],
                              input=data, capture_output=True)
        proc.stderr = proc.stderr.decode("utf-8")
        _assert_data_error_at(proc, "<stdin>:3")

    def test_stdin_is_read_line_by_line(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", _LineOnlyStdin(LINE + "\n"))
        assert main(["scan"]) == 0
        assert "+--+---+-+-" in capsys.readouterr().out
        assert not sys.stdin.buffer.closed  # the caller's stream stays open

    def test_stdin_lines_ended_by_cr_stream(self):
        # a line ended by a lone \r is scanned once the next byte comes,
        # and its record written out, before the input ends; stdout is
        # left as buffered as Python makes a pipe
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        with subprocess.Popen(
                [sys.executable, "-m", "escansion", "scan"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, env=env) as proc:
            proc.stdin.write((LINE + "\r").encode("utf-8") * 3)
            proc.stdin.flush()
            early, deadline = b"", time.monotonic() + 20
            while early.count(b"\n") < 2 and time.monotonic() < deadline:
                if select.select([proc.stdout], [], [], 0.1)[0]:
                    chunk = os.read(proc.stdout.fileno(), 1 << 16)
                    if not chunk:
                        break
                    early += chunk
            rest, err = proc.communicate(timeout=20)
        assert early.count(b"\n") >= 2
        assert ((early + rest).count(b"+--+---+-+-"), err) == (3, b"")

    def test_only_scan_reads_stdin(self, gold_tsv, capsys, monkeypatch,
                                   tmp_path):
        # to every other reader "-" names a file, here a missing one
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(sys, "stdin", _LineOnlyStdin(
            gold_tsv.read_text(encoding="utf-8")))
        assert main(["evaluate", "--gold", "-", "--engine"]) == 1
        assert main(["score", "--gold", str(gold_tsv), "--pred", "-"]) == 1
        assert capsys.readouterr().err.count("No such file") == 2

    @pytest.mark.parametrize("fmt", ["tsv", "jsonl"])
    def test_crlf_and_blank_lines_split_as_splitlines(self, fmt, capsys,
                                                      monkeypatch):
        other = "En tanto que de rosa y azucena"
        text = (f"{LINE}\r\n\r\n   \n{other}\r{LINE}\x85{other}\n\n"
                f"{LINE}")
        monkeypatch.setattr(sys, "stdin", _LineOnlyStdin(text))
        assert main(["scan", "--format", fmt]) == 0
        streamed = capsys.readouterr().out
        assert len(streamed.splitlines()) == 5
        plain = "".join(line + "\n" for line in text.splitlines())
        monkeypatch.setattr(sys, "stdin", _LineOnlyStdin(plain))
        assert main(["scan", "--format", fmt]) == 0
        assert capsys.readouterr().out == streamed

    def test_crlf_file_matches_lf_file(self, tmp_path):
        lines = [LINE, "", "En tanto que de rosa y azucena"]
        crlf, lf = tmp_path / "crlf.txt", tmp_path / "lf.txt"
        crlf.write_bytes("\r\n".join(lines).encode("utf-8") + b"\r\n")
        lf.write_bytes("\n".join(lines).encode("utf-8") + b"\n")
        outs = []
        for src in (crlf, lf):
            out = tmp_path / (src.stem + ".tsv")
            assert main(["scan", str(src), "-o", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert outs[0].count(b"\n") == 2

    def test_custom_lexicon_env(self, tmp_path, capsys, monkeypatch):
        lex = tmp_path / "lex.txt"
        lex.write_text("", encoding="utf-8")  # nothing atonic
        monkeypatch.setenv("ESCANSION_LEXICON", str(lex))
        src = tmp_path / "verses.txt"
        src.write_text(LINE + "\n", encoding="utf-8")
        assert main(["scan", str(src)]) == 0
        out = capsys.readouterr().out
        assert "+-++-+-+-+-" in out  # de/la now count as tonic


class _LineOnlyBytes(io.BytesIO):
    """Bytes that come a few at a time, as a pipe may give them, and
    cannot be read whole."""

    def read(self, *args):
        raise AssertionError("scan read its whole input at once")

    readlines = read

    def read1(self, size=-1):
        if size < 0:
            raise AssertionError("scan read its whole input at once")
        return super().read1(min(size, 5))


class _LineOnlyStdin:
    """Standard input whose bytes, the text in UTF-8, come a few at a time
    and cannot be read whole."""

    def __init__(self, text):
        self.buffer = _LineOnlyBytes(text.encode("utf-8"))


def _tei_from_corpus(lines) -> str:
    poems: dict[str, list] = {}
    for ln in lines:
        poems.setdefault(ln.poem_id, []).append(ln)
    chunks = ['<TEI xmlns="http://www.tei-c.org/ns/1.0"><text><body>']
    for pid, rows in poems.items():
        chunks.append(f'<div type="sonnet" xml:id="{pid}"><lg>')
        chunks.extend(f'<l n="{r.line_no}" met="{r.gold}">{r.text}</l>'
                      for r in rows)
        chunks.append("</lg></div>")
    chunks.append("</body></text></TEI>")
    return "".join(chunks)


class TestPrepare:
    def test_writes_manifests_and_counts(self, tmp_path, capsys):
        import wordbank
        tei = tmp_path / "c.xml"
        tei.write_text(_tei_from_corpus(wordbank.synthetic_corpus(70, seed=6)),
                       encoding="utf-8")
        out = tmp_path / "out"
        assert main(["prepare", "--tei", str(tei), "--out", str(out),
                     "--ratios", "0.6,0.2,0.2", "--seed", "3"]) == 0
        printed = capsys.readouterr().out
        assert "lines: 70" in printed
        for name in ("corpus.tsv", "train.tsv", "eval.tsv", "test.tsv",
                     "split.json"):
            assert (out / name).exists()

    def test_same_seed_identical_manifests(self, tmp_path):
        import wordbank
        tei = tmp_path / "c.xml"
        tei.write_text(_tei_from_corpus(wordbank.synthetic_corpus(70, seed=6)),
                       encoding="utf-8")
        outs = []
        for name in ("one", "two"):
            out = tmp_path / name
            assert main(["prepare", "--tei", str(tei), "--out", str(out),
                         "--ratios", "0.6,0.2,0.2", "--seed", "9"]) == 0
            outs.append(out)
        for fname in ("train.tsv", "eval.tsv", "test.tsv", "split.json"):
            assert (outs[0] / fname).read_bytes() == \
                   (outs[1] / fname).read_bytes()

    def test_manual_only_filter(self, tmp_path, capsys):
        tei = tmp_path / "c.xml"
        tei.write_text(SONNET_TEI, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["prepare", "--tei", str(tei), "--out", str(out),
                     "--ratios", "1,0,0", "--manual-only"]) == 0
        assert "lines: 7" in capsys.readouterr().out

    def test_skipped_line_warning_needs_no_flag(self, tmp_path):
        tei = tmp_path / "c.xml"
        tei.write_text(SONNET_TEI, encoding="utf-8")
        out = tmp_path / "out"
        proc = _run_cli("prepare", "--tei", tei, "--out", out,
                        "--ratios", "1,0,0")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == (f"WARNING {tei}: skipped 1 line(s) "
                               "without met annotation\n")
        # no verbosity flag: nothing logs below WARNING
        assert _run_cli("-v", "prepare", "--tei", tei,
                        "--out", out).returncode == 2

    def test_missing_directory(self, tmp_path):
        assert main(["prepare", "--tei", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("ratios,reason", [
        ("a,b,c", "--ratios must be comma-separated numbers"),
        ("0.5,0.5", "need three non-negative ratios"),
        ("nan,0.5,0.5", "need three non-negative ratios"),
        ("0.9,0.9,0.1", "must sum to 1"),
    ], ids=["not-numbers", "two", "nan", "sum-above-one"])
    def test_unusable_ratios_are_data_error(self, ratios, reason, tmp_path,
                                            capsys):
        import wordbank
        tei = tmp_path / "c.xml"
        tei.write_text(_tei_from_corpus(wordbank.synthetic_corpus(30, seed=6)),
                       encoding="utf-8")
        out = tmp_path / "out"
        assert main(["prepare", "--tei", str(tei), "--out", str(out),
                     "--ratios", ratios]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and reason in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("element,where,reason", [
        ('<l n="0" met="+--+---+-+-">', "poem s001, l 0", "line_no starts at 1"),
        ('<l n="2" met="abc">', "poem s001, l 2", "not over +/- or 1/0"),
    ], ids=["line-zero", "bad-met"])
    def test_bad_annotation_is_data_error(self, element, where, reason,
                                          tmp_path, capsys):
        tei = tmp_path / "c.xml"
        tei.write_text(SONNET_TEI.replace('<l n="2" met="-+---+---+-">',
                                          element), encoding="utf-8")
        assert main(["prepare", "--tei", str(tei),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert f"{tei}: {where}: " in err and reason in err


class TestEvaluateAndScore:
    def test_gold_against_itself(self, gold_tsv, tmp_path, capsys):
        pred = tmp_path / "pred.tsv"
        pred.write_text(
            "".join(f"{l.poem_id}\t{l.line_no}\t{l.gold}\n"
                    for l in bundled_mini_gold()[:12]), encoding="utf-8")
        assert main(["evaluate", "--gold", str(gold_tsv),
                     "--pred", str(pred)]) == 0
        assert "100.00" in capsys.readouterr().out

    def test_engine_mode(self, gold_tsv, capsys):
        assert main(["evaluate", "--gold", str(gold_tsv), "--engine"]) == 0
        assert "accuracy" in capsys.readouterr().out

    def test_score_alias_json(self, gold_tsv, tmp_path, capsys):
        pred = tmp_path / "pred.txt"
        pred.write_text("".join(l.gold + "\n"
                                for l in bundled_mini_gold()[:12]),
                        encoding="utf-8")
        assert main(["score", "--gold", str(gold_tsv), "--pred", str(pred),
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["accuracy"] == 100.0

    def test_misaligned_predictions(self, gold_tsv, tmp_path):
        pred = tmp_path / "pred.txt"
        pred.write_text("+--+---+-+-\n", encoding="utf-8")
        assert main(["score", "--gold", str(gold_tsv),
                     "--pred", str(pred)]) == 2

    @pytest.mark.parametrize("row,reason", [
        ("p1\tfirst\tcubra de nieve\t+--+---+-+-", "not an integer"),
        ("p1\t1\tcubra de nieve", "4 columns"),
    ], ids=["non-integer-line-no", "three-columns"])
    def test_bad_gold_row_is_data_error(self, tmp_path, row, reason):
        gold = tmp_path / "gold.tsv"
        gold.write_text(f"p1\t1\t{LINE}\t+--+---+-+-\n{row}\n",
                        encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "escansion", "evaluate", "--gold",
             str(gold), "--engine"], capture_output=True, text=True)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1
        assert f"{gold}:2: " in proc.stderr and reason in proc.stderr

    def test_needs_pred_or_engine(self, gold_tsv):
        assert main(["evaluate", "--gold", str(gold_tsv)]) == 2

    def test_pred_and_engine_mutually_exclusive(self, gold_tsv, tmp_path):
        pred = tmp_path / "p.txt"
        pred.write_text("+--+---+-+-\n", encoding="utf-8")
        assert main(["evaluate", "--gold", str(gold_tsv),
                     "--pred", str(pred), "--engine"]) == 2


class TestBaselineCommands:
    def test_train_predict_evaluate_pipeline(self, tmp_path, capsys):
        import wordbank
        from escansion.corpus import split as corpus_split, write_split
        corpus = wordbank.synthetic_corpus(60, seed=8)
        parts = corpus_split(corpus, ratios=(0.7, 0.15, 0.15), seed=2)
        write_split(parts, tmp_path)
        model = tmp_path / "model.json"
        assert main(["baseline", "train",
                     "--train", str(tmp_path / "train.tsv"),
                     "--eval", str(tmp_path / "eval.tsv"),
                     "--model", str(model),
                     "--epochs", "3", "--dim", "16", "--buckets", "64"]) == 0
        out = capsys.readouterr().out
        assert "epoch   1" in out
        preds = tmp_path / "preds.tsv"
        assert main(["baseline", "predict", "--model", str(model),
                     "--input", str(tmp_path / "test.tsv"),
                     "-o", str(preds)]) == 0
        assert main(["score", "--gold", str(tmp_path / "test.tsv"),
                     "--pred", str(preds)]) == 0
        assert "accuracy" in capsys.readouterr().out

    def test_predict_bad_tsv_row_is_data_error(self, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        gold.write_text(f"p1\t1\t{LINE}\t+--+---+-+-\n"
                        f"p1\tx\t{LINE}\t+--+---+-+-\n", encoding="utf-8")
        model = _tiny_model(tmp_path)
        assert main(["baseline", "predict", "--model", str(model),
                     "--input", str(gold)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert f"{gold}:2: " in captured.err

    @pytest.mark.parametrize("text,keyed", [
        (f"\n{LINE}\nen tanto\tque de rosa\n", False),
        (f"\n\np1\t1\t{LINE}\t+--+---+-+-\n", True),
    ], ids=["verse", "tsv-after-blank-lines"])
    def test_predict_format_from_first_non_blank_line(self, text, keyed,
                                                      tmp_path, capsys):
        src = tmp_path / "input.txt"
        src.write_text(text, encoding="utf-8")
        model = _tiny_model(tmp_path)
        assert main(["baseline", "predict", "--model", str(model),
                     "--input", str(src)]) == 0
        rows = [row.split("\t") for row in capsys.readouterr().out.splitlines()]
        if keyed:
            assert [row[:2] for row in rows] == [["p1", "1"]]
        else:
            assert [len(row) for row in rows] == [1, 1]
        assert all(len(row[-1]) == 11 for row in rows)

    @pytest.mark.parametrize("flag,value,reason", [
        ("--epochs", "0", "epochs must be at least 1"),
        ("--dim", "0", "embedding_dim must be at least 1"),
        ("--buckets", "0", "bucket_count must be at least 1"),
        ("--ngram-min", "0", "ngram_min must be at least 1"),
        ("--ngram-min", "7", "ngram_min must not exceed ngram_max"),
        ("--lr", "nan", "learning_rate must be a finite number above 0"),
        ("--lr", "0", "learning_rate must be a finite number above 0"),
        ("--lr", "1e300", "training diverged to non-finite weights"),
    ], ids=["epochs", "dim", "buckets", "ngram-min-0", "ngram-min-above-max",
            "lr-nan", "lr-zero", "lr-diverges"])
    def test_unusable_size_flag_is_data_error(self, flag, value, reason,
                                              gold_tsv, tmp_path, capsys):
        model = tmp_path / "model.json"
        assert main(["baseline", "train", "--train", str(gold_tsv),
                     "--eval", str(gold_tsv), "--model", str(model),
                     flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and reason in err
        assert len(err.strip().splitlines()) == 1
        assert not model.exists()

    def test_predict_missing_model(self, tmp_path):
        assert main(["baseline", "predict",
                     "--model", str(tmp_path / "missing.json"),
                     "--input", str(tmp_path / "missing.tsv")]) == 1

    def test_two_epoch_budgets_both_loadable(self, tmp_path):
        import wordbank
        from escansion.baseline import load_model
        corpus = wordbank.synthetic_corpus(30, seed=4)
        train_tsv = tmp_path / "train.tsv"
        write_tsv(corpus, train_tsv)
        models = []
        for epochs in ("2", "5"):
            path = tmp_path / f"model{epochs}.json"
            assert main(["baseline", "train", "--train", str(train_tsv),
                         "--model", str(path), "--epochs", epochs,
                         "--dim", "8", "--buckets", "32"]) == 0
            models.append(load_model(path))
        a, b = models
        assert a.train_meta["epochs_run"] == 2
        assert b.train_meta["epochs_run"] == 5


def _tiny_model(tmp_path):
    import wordbank
    from escansion.baseline import TrainConfig, save_model, train
    path = tmp_path / "model.json"
    config = TrainConfig(embedding_dim=4, epochs=1, bucket_count=8)
    save_model(train(wordbank.synthetic_corpus(14, seed=3), [], config), path)
    return path


class TestNumpyOnlyForBaseline:
    """Only the baseline subcommands import numpy. Each case runs in a fresh
    interpreter, since this one has imported numpy already."""

    _SCRIPT = ("import sys\n"
               "from escansion.cli import main\n"
               "code = main(sys.argv[1:])\n"
               "print(code, 'numpy' in sys.modules)\n")

    def _exit_and_numpy(self, *argv):
        proc = subprocess.run(
            [sys.executable, "-c", self._SCRIPT, *map(str, argv)],
            capture_output=True, text=True)
        assert proc.stderr == ""
        return proc.stdout.splitlines()[-1]

    @pytest.mark.parametrize("command", [
        "scan", "evaluate-engine", "evaluate-pred", "score"])
    def test_scan_evaluate_score_leave_numpy_out(self, command, gold_tsv,
                                                 tmp_path):
        verses = tmp_path / "verses.txt"
        verses.write_text(LINE + "\n", encoding="utf-8")
        pred = tmp_path / "pred.txt"
        pred.write_text("".join(l.gold + "\n"
                                for l in bundled_mini_gold()[:12]),
                        encoding="utf-8")
        argv = {
            "scan": ["scan", verses, "-o", tmp_path / "out.tsv"],
            "evaluate-engine": ["evaluate", "--gold", gold_tsv, "--engine"],
            "evaluate-pred": ["evaluate", "--gold", gold_tsv, "--pred", pred],
            "score": ["score", "--gold", gold_tsv, "--pred", pred],
        }[command]
        assert self._exit_and_numpy(*argv) == "0 False"

    def test_default_lexicon_leaves_corpus_and_json_out(self):
        script = ("import sys, escansion\n"
                  "escansion.default_lexicon()\n"
                  "print([m for m in ('escansion.corpus', 'json')"
                  " if m in sys.modules])\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert (proc.stderr, proc.stdout) == ("", "[]\n")

    def test_scan_leaves_the_harness_modules_out(self, tmp_path):
        # scan's start-up: no metrics, no logging, no XML, no random,
        # beyond what the interpreter had loaded before escansion
        verses = tmp_path / "verses.txt"
        verses.write_text(LINE + "\n", encoding="utf-8")
        script = ("import sys\n"
                  "before = set(sys.modules)\n" + self._SCRIPT
                  + "print(sorted(m for m in ('escansion.metrics', 'logging',"
                  " 'xml.etree.ElementTree', 'random')"
                  " if m in sys.modules and m not in before))\n")
        proc = subprocess.run(
            [sys.executable, "-c", script, "scan", str(verses),
             "-o", str(tmp_path / "out.tsv")],
            capture_output=True, text=True)
        assert proc.stderr == ""
        assert proc.stdout.splitlines()[-2:] == ["0 False", "[]"]

    def test_baseline_predict_loads_numpy(self, gold_tsv, tmp_path):
        argv = ["baseline", "predict", "--model", _tiny_model(tmp_path),
                "--input", gold_tsv, "-o", tmp_path / "preds.tsv"]
        assert self._exit_and_numpy(*argv) == "0 True"


class TestUnreadableInput:
    def test_scan_keeps_records_written_before_the_bad_line(self, tmp_path):
        # every record before the bad line is written, from a file as
        # from stdin
        src = tmp_path / "verses.txt"
        good = (LINE + "\n").encode("utf-8")
        src.write_bytes(good * 400 + NOT_UTF8 + b"\n" + good)  # 400 > 1 buffer
        for where, argv, stdin in ((f"{src}:401", [src], b""),
                                   ("<stdin>:401", [], src.read_bytes())):
            proc = subprocess.run(
                [sys.executable, "-m", "escansion", "scan", *map(str, argv)],
                input=stdin, capture_output=True)
            proc.stderr = proc.stderr.decode("utf-8")
            _assert_data_error_at(proc, where)
            written = proc.stdout.decode("utf-8").splitlines()
            assert len(written) == 400
            assert len(set(written)) == 1 and "+--+---+-+-" in written[0]

    @pytest.mark.parametrize("reader", [
        "evaluate-gold", "score-pred", "predict-input", "scan-lexicon"])
    def test_not_utf8_names_path_and_line(self, reader, gold_tsv, tmp_path):
        first_line = {
            "evaluate-gold": f"p1\t1\t{LINE}\t+--+---+-+-",
            "score-pred": "+--+---+-+-",
            "predict-input": LINE,
            "scan-lexicon": "que",
        }[reader]
        bad = tmp_path / "bad.txt"
        bad.write_bytes(first_line.encode("utf-8") + b"\n" + NOT_UTF8 + b"\n")
        verses = tmp_path / "verses.txt"
        verses.write_text(LINE + "\n", encoding="utf-8")
        argv = {
            "evaluate-gold": ["evaluate", "--gold", bad, "--engine"],
            "score-pred": ["score", "--gold", gold_tsv, "--pred", bad],
            "predict-input": ["baseline", "predict", "--model",
                              _tiny_model(tmp_path), "--input", bad],
            "scan-lexicon": ["scan", "--lexicon", bad, verses],
        }[reader]
        proc = _run_cli(*argv)
        _assert_data_error_at(proc, f"{bad}:2")
        assert "not UTF-8" in proc.stderr

    @pytest.mark.parametrize("entry,reason", [
        ("que\tmaybe", "must be stressed|unstressed"),
        ("...", "nothing left of token"),
    ], ids=["bad-override", "no-word"])
    def test_bad_lexicon_line_names_path_and_line(self, entry, reason,
                                                  tmp_path):
        lexicon = tmp_path / "lexicon.txt"
        lexicon.write_text(f"el\n{entry}\n", encoding="utf-8")
        verses = tmp_path / "verses.txt"
        verses.write_text(LINE + "\n", encoding="utf-8")
        proc = _run_cli("scan", "--lexicon", lexicon, verses)
        _assert_data_error_at(proc, f"{lexicon}:2")
        assert reason in proc.stderr
