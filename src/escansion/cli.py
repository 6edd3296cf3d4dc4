"""Command-line entry point.

Subcommands: scan, prepare, evaluate, score, baseline train/predict.
Exit codes: 0 success, 1 environment or I/O problem, 2 bad input data.
All randomness flows through an explicit --seed flag, so every command is
byte-reproducible given the same inputs. A flag that sets a field of a
record (``ScanConfig``, ``TrainConfig``, ``corpus.split``'s seed) is left
out when not given, so the record's own default holds. Only the baseline subcommands
import the baseline module, and with it numpy, so scan, evaluate and score
start without it; only evaluate and score import metrics, only prepare,
evaluate, score and the baseline commands import corpus, and only prepare
sets up logging, so scan loads none of them. Every text input goes through
``phonology.numbered_lines``; only scan reads stdin, elsewhere ``-`` is a file.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import stat
import sys
from pathlib import Path

from .errors import DataError, Unfittable
from .phonology import StressLexicon, default_lexicon, numbered_lines
from .scansion import ScanConfig, scan_line


def _load_lexicon(path: str | None) -> StressLexicon:
    return StressLexicon.load(path) if path else default_lexicon()


def _given(args, names) -> dict:
    """The flags among ``names`` that the command line gave. Their defaults
    are suppressed, so a record built from them takes its own defaults
    for the rest: each default has one source."""
    return {name: value for name, value in vars(args).items()
            if name in names}


def _stdout():
    """``sys.stdout``, or an OSError when it is closed: ``print`` would drop
    every line in silence. Each command that reports on stdout calls it
    before it reads or writes anything."""
    if sys.stdout is None:
        raise OSError("standard output is closed")
    return sys.stdout


def _open_out(path: str | None, source: str | None):
    """The output ``path``, or ``_stdout()`` for none or ``-``. An output
    that is the regular file the command reads, ``source`` or stdin when
    that is None, is refused before opening it for writing empties it."""
    if not path or path == "-":
        return contextlib.nullcontext(_stdout())
    try:
        out = os.stat(path)
        src = (os.fstat(sys.stdin.fileno()) if source is None
               else os.stat(source))
    except (OSError, ValueError, AttributeError):
        pass  # no output file yet, or no file behind the input
    else:
        if stat.S_ISREG(out.st_mode) and os.path.samestat(out, src):
            raise DataError(f"output {path} is the input file; "
                            "refusing to overwrite it")
    return open(path, "w", encoding="utf-8")


# --- scan --------------------------------------------------------------------

def _scan_record(line: str, lexicon, config) -> tuple[dict, bool]:
    record = {"text": line}
    try:
        result = scan_line(line, lexicon, config)
    except Unfittable as exc:
        record.update(error="unfittable", achievable=list(exc.achievable),
                      nearest=[list(item) for item in exc.nearest])
        return record, False
    except DataError as exc:
        record.update(error=type(exc).__name__.lower(), detail=str(exc))
        return record, False
    record.update(
        syllables=result.hyphenated(),
        pattern=result.pattern,
        metrical_length=len(result.pattern),
        figures=[str(site) for site in result.applied],
        ambiguous=result.ambiguous,
    )
    if config.emit_diagnostics:
        record["candidates"] = list(result.diagnostics)
    return record, True


def _format_tsv(record: dict) -> str:
    if "error" in record:
        detail = record.get("achievable") or record.get("detail", "")
        return "\t".join([record["text"], "", "", "",
                          f"{record['error']}:{detail}", ""])
    return "\t".join([
        record["text"],
        record["syllables"],
        record["pattern"],
        str(record["metrical_length"]),
        ";".join(record["figures"]) or "-",
        "1" if record["ambiguous"] else "0",
    ])


def cmd_scan(args) -> int:
    lexicon = _load_lexicon(args.lexicon)
    # only jsonl prints the diagnostics, and keeping them costs the fitter
    config = ScanConfig(**_given(args, ("target_length",)),
                        h_blocks_synalepha=args.h_blocks_synalepha,
                        emit_diagnostics=args.diagnostics
                        and args.format == "jsonl")
    failed = 0
    from_stdin = not args.input or args.input == "-"
    if from_stdin and sys.stdin is None:
        raise OSError("standard input is closed")
    src = (numbered_lines("<stdin>", sys.stdin.buffer) if from_stdin
           else numbered_lines(args.input))
    with _open_out(args.output, None if from_stdin else args.input) as out:
        # stdin to stdout is a pipe: each record goes on as it is written
        stream = from_stdin and out is sys.stdout
        # line by line as read; str.splitlines also parts a line at \x85,
        # \u2028 and the like, as it would part the whole input
        for _, text in src:
            for line in text.splitlines():
                if not line.strip():
                    continue
                record, ok = _scan_record(line, lexicon, config)
                if not ok:
                    failed += 1
                if args.format == "jsonl":
                    out.write(json.dumps(record, ensure_ascii=False) + "\n")
                else:
                    out.write(_format_tsv(record) + "\n")
                if stream:
                    out.flush()
    return 2 if failed else 0


# --- prepare ------------------------------------------------------------------

def cmd_prepare(args) -> int:
    import logging
    from . import corpus
    _stdout()  # the report goes there: a closed one fails first
    # the one command that logs: parse_tei warns about skipped lines
    logging.basicConfig(level=logging.WARNING,
                        format="%(levelname)s %(message)s")
    tei = Path(args.tei)
    if tei.is_dir():
        lines = corpus.parse_tei_dir(tei)
    else:
        lines = corpus.parse_tei(tei)
    if args.manual_only:
        lines = [ln for ln in lines if ln.manual]
    lines = corpus.dedupe_and_clean(lines)
    if not lines:
        raise DataError(f"no annotated lines found under {tei}")
    ratios = corpus.DEFAULT_RATIOS
    if args.ratios is not None:
        try:
            ratios = tuple(float(r) for r in args.ratios.split(","))
        except ValueError:
            raise DataError(f"--ratios must be comma-separated numbers, "
                            f"got {args.ratios!r}") from None
    result = corpus.split(lines, ratios, **_given(args, ("seed",)))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus.write_tsv(lines, out_dir / "corpus.tsv", include_manual=True)
    meta = corpus.write_split(result, out_dir)
    print(f"poems: {len({ln.poem_id for ln in lines})}  lines: {len(lines)}")
    print("split: " + "  ".join(f"{k}={v}" for k, v in meta["counts"].items()))
    return 0


# --- evaluate / score ----------------------------------------------------------

def _print_report(report, as_json: bool) -> None:
    from . import metrics
    if as_json:
        doc = {
            "total": report.total,
            "correct": report.correct,
            "accuracy": round(report.accuracy, 2),
            "per_position_accuracy": [round(p, 6)
                                      for p in report.per_position_accuracy],
            "unmatched": report.unmatched,
            "distinct_predictions": report.distinct_predictions,
            "top_prediction_share": round(report.top_prediction_share, 6),
            "error_examples": [list(e) for e in report.error_examples],
        }
        print(json.dumps(doc, ensure_ascii=False, sort_keys=True))
    else:
        print(metrics.format_report(report))


def cmd_evaluate(args) -> int:
    from . import corpus, metrics
    _stdout()  # the report goes there: a closed one fails first
    if args.engine and args.pred:
        raise DataError("--engine and a predictions file are mutually exclusive")
    gold = corpus.read_tsv(args.gold)
    if args.engine:
        lexicon = _load_lexicon(args.lexicon)
        config = ScanConfig()
        pairs = []
        for line in gold:
            record, ok = _scan_record(line.text, lexicon, config)
            pairs.append((record["pattern"] if ok else None, line.gold,
                          line.text))
        report = metrics.evaluate(pairs)
    else:
        if not args.pred:
            raise DataError("need a predictions file or --engine")
        report = metrics.score_predictions_file(args.pred, gold)
    _print_report(report, args.json)
    return 0


# --- baseline -------------------------------------------------------------------

# baseline, and numpy with it, is imported by these two commands only

def cmd_baseline_train(args) -> int:
    import dataclasses
    from . import baseline, corpus
    _stdout()  # the report goes there: a closed one fails first
    train_set = corpus.read_tsv(args.train)
    eval_set = corpus.read_tsv(args.eval) if args.eval else []
    config = baseline.TrainConfig(**_given(args, {
        field.name for field in dataclasses.fields(baseline.TrainConfig)}))
    model = baseline.train(train_set, eval_set, config)
    for entry in model.train_meta["history"]:
        acc = entry["eval_exact_match"]
        acc_str = "-" if acc is None else f"{acc:.2f}"
        print(f"epoch {entry['epoch']:3d}  loss {entry['train_loss']:.4f}  "
              f"eval exact-match {acc_str}")
    baseline.save_model(model, args.model)
    print(f"model written to {args.model}")
    return 0


def cmd_baseline_predict(args) -> int:
    from . import baseline, corpus
    model = baseline.load_model(args.model)
    # a tab on the first non-blank line makes the file a canonical TSV,
    # whose bad rows are errors; otherwise every line is verse. The input
    # is read once, so a pipe works: the lines up to that one go back in
    # front of the rest
    rows, head, first = numbered_lines(args.input), [], ""
    for row in rows:
        head.append(row)
        if row[1].strip():
            first = row[1]
            break
    rows = itertools.chain(head, rows)
    with _open_out(args.output, args.input) as out:
        if "\t" in first:
            for line in corpus.read_tsv(args.input, rows):
                pattern = baseline.predict(model, line.text)
                out.write(f"{line.poem_id}\t{line.line_no}\t{pattern}\n")
        else:
            for _, raw in rows:
                raw = raw.strip()
                if raw:
                    out.write(baseline.predict(model, raw) + "\n")
    return 0


# --- wiring ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="escansion",
        description="Scansion of Spanish hendecasyllables and its harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scan", help="scan verse lines to stress patterns")
    p.add_argument("input", nargs="?", default="-",
                   help="file with one verse per line (default stdin)")
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--lexicon", help="function-word lexicon")
    p.add_argument("--target-length", type=int, default=argparse.SUPPRESS)
    p.add_argument("--h-blocks-synalepha", action="store_true")
    p.add_argument("--format", choices=("tsv", "jsonl"), default="tsv")
    p.add_argument("--diagnostics", action="store_true",
                   help="include every fitting pattern in jsonl output")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("prepare", help="TEI corpus to canonical TSV splits")
    p.add_argument("--tei", required=True, help="TEI file or directory")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--ratios")
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument("--manual-only", action="store_true",
                   help="keep only lines flagged as manually annotated")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("evaluate", help="score predictions or the engine on gold")
    p.add_argument("--gold", required=True, help="canonical gold TSV")
    p.add_argument("--pred", help="predictions TSV")
    p.add_argument("--engine", action="store_true",
                   help="scan the gold texts with the rule engine")
    p.add_argument("--lexicon")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("score", help="score a predictions file against gold")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_evaluate, engine=False, lexicon=None)

    p = sub.add_parser("baseline", help="train or apply the positional classifier")
    bsub = p.add_subparsers(dest="baseline_command", required=True)

    # a flag not given is left out: the config takes TrainConfig's default,
    # and each flag's dest is its field
    t = bsub.add_parser("train", argument_default=argparse.SUPPRESS)
    t.add_argument("--train", required=True, help="training TSV")
    t.add_argument("--eval", default=None,
                   help="evaluation TSV for early stopping")
    t.add_argument("--model", required=True, help="output model path")
    t.add_argument("--epochs", type=int)
    t.add_argument("--dim", dest="embedding_dim", type=int)
    t.add_argument("--lr", dest="learning_rate", type=float)
    t.add_argument("--ngram-min", type=int)
    t.add_argument("--ngram-max", type=int)
    t.add_argument("--patience", type=int)
    t.add_argument("--buckets", dest="bucket_count", type=int)
    t.add_argument("--seed", type=int)
    t.set_defaults(func=cmd_baseline_train)

    pr = bsub.add_parser("predict")
    pr.add_argument("--model", required=True)
    pr.add_argument("--input", required=True,
                    help="canonical TSV or plain one-verse-per-line file")
    pr.add_argument("-o", "--output", default="-")
    pr.set_defaults(func=cmd_baseline_predict)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # output files are UTF-8, so stdout is too, whatever the locale
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(encoding="utf-8")
    try:
        return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
