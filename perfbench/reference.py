"""Reference outcomes for the pooled lines of ``site_heavy`` and ``cli_novel``.

An outcome is the 11-position pattern, or ``unfittable:`` and the
achievable lengths. Lines with more than 16 figure sites get none: there
the engine's search is a beam, not exhaustive, and a reference taken from
it would fail a fix. Verse lines need no table: the expected pattern of a
template-realized line is its template (the no-figure reading has 11
syllables, ictus on 10 and a rhythmic type, so the documented preference
order picks it), and the hand gold for mini-gold lines.

Record the table from the repository root with the engine under test:

    PYTHONPATH=src python3 perfbench/reference.py
"""

from __future__ import annotations

import gzip
import json
import sys
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
TABLE = HERE / "reference.json.gz"
SITE_HEAVY_ROUNDS = 30
CLI_FILES = 60
CLI_LINES_PER_FILE = 400


def outcome(scan_line, text: str, lexicon) -> str:
    """The engine's answer for ``text`` in reference form; DataErrors
    other than Unfittable come back as ``error:<type>``."""
    from escansion.errors import DataError, Unfittable
    try:
        return scan_line(text, lexicon).pattern
    except Unfittable as exc:
        return "unfittable:" + ",".join(str(n) for n in exc.achievable)
    except DataError as exc:
        return "error:" + type(exc).__name__


def load() -> dict:
    with gzip.open(TABLE, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def lookup(table: dict, workload: str, index: int, texts: list[str]):
    """Outcomes for pool unit ``index`` (a round or a file), or None past
    the pool. Refuses a unit whose texts no longer match the table."""
    units = table[workload]
    if index >= len(units):
        return None
    unit = units[index]
    if unit["digest"] != inputs.digest(texts):
        raise SystemExit(f"{workload} unit {index}: generated inputs differ "
                         "from the recorded ones; record the table again")
    return unit["outcomes"]


def record() -> None:
    from escansion import default_lexicon, scan_line
    lexicon = default_lexicon()
    table = {"pool_seed": inputs.POOL_SEED, "site_heavy": [], "cli_novel": []}
    for r in range(SITE_HEAVY_ROUNDS):
        round_ = inputs.site_heavy_round(r)
        table["site_heavy"].append({
            "digest": inputs.digest(text for text, _ in round_),
            "outcomes": [outcome(scan_line, text, lexicon)
                         if sites <= inputs.EXHAUSTIVE_MAX_SITES else None
                         for text, sites in round_]})
        print(f"site_heavy round {r + 1}/{SITE_HEAVY_ROUNDS}", file=sys.stderr)
    for f in range(CLI_FILES):
        texts = inputs.novel_file(f, CLI_LINES_PER_FILE)
        table["cli_novel"].append({
            "digest": inputs.digest(texts),
            "outcomes": [outcome(scan_line, text, lexicon) for text in texts]})
    with gzip.GzipFile(TABLE, "wb", mtime=0) as fh:
        fh.write(json.dumps(table, separators=(",", ":")).encode("utf-8"))


if __name__ == "__main__":
    record()
