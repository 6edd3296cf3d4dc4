"""Time three layers against a git revision's: a cold word, a warm line and a
baseline prediction.

Run with the change in the working tree:

    python3 tools/layer_us.py [REV] [--rounds N]

REV (default HEAD) is exported into a temporary directory, as
``tools/scan_equal.py`` does. Three rows are printed, each as the best of
N rounds (default 7) for each side:

* cold ``analyze_word``, in µs a token: one pass of
  ``analyze_word.__wrapped__(token, default_lexicon())`` over the
  distinct whitespace-cut tokens of cli_novel pool files 0-9 at 400
  lines each, the cache bypassed, so each call is a cold word;
* warm ``scan_line``, in µs a line: 3,000 verse lines at seed 31, scanned
  once to fill the word cache, then timed over five more passes, of
  which the child keeps the fastest;
* warm ``baseline.predict``, in µs a line: a model trained at the
  harness workload's settings (10 epochs, dim 50, 2,000 buckets, lr 0.05,
  seed 13) on the first 2,580 lines of the harness corpus at seed 1, no
  eval set, then the 420 held-out lines predicted once and timed over
  five more passes, of which the child keeps the fastest.

The inputs come from ``perfbench/inputs.py``, which imports no
escansion, so both trees get the same ones. Each round runs one child
per tree and row, REV first on odd rounds and the working tree first on
even ones; a child pins itself to one CPU where the platform allows and
imports its tree's ``escansion``. Exit 2 when REV cannot be exported.
Standard library and ``tar``.
"""

from __future__ import annotations

import argparse
import itertools
import os
import subprocess
import sys
from pathlib import Path

from scan_equal import ROOT, checkout, inputs

FILES, LINES = range(10), 400
VERSE_SEED, VERSE_LINES = 31, 3000
# the harness workload's corpus size; its test split is 420 lines
HARNESS_SEED, HARNESS_LINES, HELD_OUT = 1, 3000, 420

PIN = """
import os, sys, time
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
"""

COLD = PIN + """
from escansion.phonology import analyze_word, default_lexicon
tokens, lexicon = sys.stdin.read().split(), default_lexicon()
analyze = analyze_word.__wrapped__
start = time.perf_counter()
for token in tokens:
    analyze(token, lexicon)
print((time.perf_counter() - start) / len(tokens) * 1e6)
"""

WARM = PIN + """
from escansion import default_lexicon, scan_line
from escansion.errors import DataError
lines, lexicon = sys.stdin.read().splitlines(), default_lexicon()

def scan_all():
    start = time.perf_counter()
    for line in lines:
        try:
            scan_line(line, lexicon)
        except DataError:
            pass
    return time.perf_counter() - start

scan_all()
print(min(scan_all() for _ in range(5)) / len(lines) * 1e6)
"""

PREDICT = PIN + f"""
from escansion import baseline
rows = [line.split("\\t") for line in sys.stdin.read().splitlines()]
config = baseline.TrainConfig(epochs=10, embedding_dim=50, learning_rate=0.05,
                              seed=13, bucket_count=2000, patience=10)
model = baseline.train(rows[:-{HELD_OUT}], [], config)
texts = [text for text, _ in rows[-{HELD_OUT}:]]

def predict_all():
    start = time.perf_counter()
    for text in texts:
        baseline.predict(model, text)
    return time.perf_counter() - start

predict_all()
print(min(predict_all() for _ in range(5)) / len(texts) * 1e6)
"""


def tokens() -> list[str]:
    return sorted({token for index in FILES
                   for line in inputs.novel_file(index, LINES)
                   for token in line.split()})


def verse() -> list[str]:
    return [text for text, _ in itertools.islice(
        inputs.verse_stream(VERSE_SEED), VERSE_LINES)]


def labelled() -> list[str]:
    return [f"{text}\t{template}" for _, _, text, template
            in inputs.labelled_corpus(HARNESS_LINES, HARNESS_SEED)]


def child_us(tree: Path, code: str, text: str) -> float:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-c", code], input=text,
                          capture_output=True, text=True, env=env,
                          check=True)
    return float(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rev", nargs="?", default="HEAD")
    parser.add_argument("--rounds", type=int, default=7)
    args = parser.parse_args()
    words, lines, corpus = tokens(), verse(), labelled()
    rows = {
        f"cold analyze_word, {len(words)} distinct tokens, µs a token":
            (COLD, "\n".join(words)),
        f"warm scan_line, {len(lines)} verse lines, µs a line":
            (WARM, "\n".join(lines)),
        f"warm baseline.predict, {HELD_OUT} held-out harness lines, µs a line":
            (PREDICT, "\n".join(corpus)),
    }
    sides = (args.rev, "working tree")
    best = {row: dict.fromkeys(sides, float("inf")) for row in rows}
    with checkout(args.rev) as rev_tree:
        trees = dict(zip(sides, (rev_tree, ROOT)))
        for round_no in range(1, args.rounds + 1):
            order = sides if round_no % 2 else sides[::-1]
            for row, (code, text) in rows.items():
                for side in order:
                    best[row][side] = min(best[row][side],
                                          child_us(trees[side], code, text))
    print(f"best of {args.rounds} rounds")
    for row, sides_us in best.items():
        print(row)
        for side, us in sides_us.items():
            print(f"  {side}: {us:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
