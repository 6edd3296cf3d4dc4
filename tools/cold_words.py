"""Time a cold ``phonology.analyze_word`` against a git revision's.

Run with the change in the working tree:

    python3 tools/cold_words.py [REV] [--rounds N]

REV (default HEAD) is checked out into a temporary git worktree, as
``tools/scan_equal.py`` does. The tokens are the distinct whitespace-cut
tokens of cli_novel pool files 0-9 at 400 lines each, from
``perfbench/inputs.py``, which imports no escansion, so both trees get
the same ones. Each round runs one child per tree, REV first on odd
rounds and the working tree first on even ones; a child pins itself to
one CPU where the platform allows, imports its tree's ``escansion`` and
times one pass of ``analyze_word.__wrapped__(token, default_lexicon())``
over every token, the cache bypassed, so each call is a cold word. The
best of N rounds (default 7) is printed for each side, in µs a token.
Exit 2 when REV cannot be checked out. Standard library only.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

from scan_equal import ROOT, inputs, worktree

FILES, LINES = range(10), 400

CHILD = """
import os, sys, time
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from escansion.phonology import analyze_word, default_lexicon
tokens, lexicon = sys.stdin.read().split(), default_lexicon()
analyze = analyze_word.__wrapped__
start = time.perf_counter()
for token in tokens:
    analyze(token, lexicon)
print((time.perf_counter() - start) / len(tokens) * 1e6)
"""


def tokens() -> list[str]:
    return sorted({token for index in FILES
                   for line in inputs.novel_file(index, LINES)
                   for token in line.split()})


def cold_us(tree: Path, text: str) -> float:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-c", CHILD], input=text,
                          capture_output=True, text=True, env=env,
                          check=True)
    return float(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rev", nargs="?", default="HEAD")
    parser.add_argument("--rounds", type=int, default=7)
    args = parser.parse_args()
    words = tokens()
    text = "\n".join(words)
    best = {args.rev: float("inf"), "working tree": float("inf")}
    with worktree(args.rev) as rev_tree:
        trees = {args.rev: rev_tree, "working tree": ROOT}
        for round_no in range(1, args.rounds + 1):
            order = list(trees) if round_no % 2 else list(trees)[::-1]
            for side in order:
                best[side] = min(best[side], cold_us(trees[side], text))
    print(f"{len(words)} distinct tokens, best of {args.rounds} rounds")
    for side, us in best.items():
        print(f"{side}: {us:.2f} µs a token")
    return 0


if __name__ == "__main__":
    sys.exit(main())
