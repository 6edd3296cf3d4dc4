"""Corpus ingestion and splitting.

Reads TEI-XML files whose verse lines carry a metrical annotation in the
``met`` attribute, normalizes every annotation to exactly 11 positions,
removes punctuation and duplicate verses, and cuts deterministic
train/eval/test splits at the poem level so near-identical lines of one
sonnet never leak across sets.

Canonical on-disk form is a UTF-8 TSV: poem_id, line_no, text, pattern
(plus a trailing ``manual`` flag when serializing full corpora).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import (DataError, InsufficientData, MalformedTei, MalformedTsv,
                     MalformedXml, UnnormalizableMet)
from .phonology import clean_text, numbered_lines
from .scansion import check_pattern

# Reverse-engineered from the published line counts 6558/2187/1401 of a
# 10146-line corpus.
DEFAULT_RATIOS = (6558 / 10146, 2187 / 10146, 1401 / 10146)


@dataclass(frozen=True)
class CorpusLine:
    poem_id: str
    line_no: int
    text: str
    gold: str
    manual: bool = False

    def __post_init__(self):
        check_pattern(self.gold)
        for name in ("poem_id", "text"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise DataError(f"{name} must be a string, not {value!r}")
        line_no = self.line_no
        if isinstance(line_no, bool) or not isinstance(line_no, int):
            raise DataError(f"line_no must be an integer, not {line_no!r}")
        if line_no < 1:
            raise DataError("line_no starts at 1")
        if not isinstance(self.manual, bool):
            raise DataError(f"manual must be a bool, not {self.manual!r}")


@dataclass(frozen=True)
class CorpusSplit:
    """Train, eval and test parts cut by ``seed`` and ``ratios``. No
    (poem_id, line_no) key and no text occurs twice in the three."""

    train: tuple[CorpusLine, ...]
    eval: tuple[CorpusLine, ...]
    test: tuple[CorpusLine, ...]
    seed: int
    ratios: tuple[float, float, float]

    def __post_init__(self):
        keys, texts = set(), set()
        for ln in self.train + self.eval + self.test:
            if (ln.poem_id, ln.line_no) in keys:
                raise DataError(f"poem {ln.poem_id} has line {ln.line_no} twice")
            if ln.text in texts:
                raise DataError("duplicate texts across splits")
            keys.add((ln.poem_id, ln.line_no))
            texts.add(ln.text)

    def parts(self) -> tuple[tuple[CorpusLine, ...], ...]:
        return (self.train, self.eval, self.test)

    def sizes(self) -> tuple[int, int, int]:
        return tuple(len(p) for p in self.parts())


def normalize_met(raw: str) -> str:
    """Coerce a raw met annotation to the canonical 11 positions.

    Accepts +/- or 1/0 alphabets. A 10-symbol pattern ending in stress
    (oxytone line) pads a trailing '-'; a 12-symbol pattern ending in two
    weak positions (proparoxytone line) collapses them into one. A result
    that fails ``check_pattern``, or a ``raw`` that is not a string,
    raises UnnormalizableMet.
    """
    if not isinstance(raw, str):
        raise UnnormalizableMet(f"met must be a string, not {raw!r}")
    met = raw.strip().replace("1", "+").replace("0", "-")
    if set(met) - {"+", "-"}:
        raise UnnormalizableMet(f"met {raw!r} not over +/- or 1/0")
    if len(met) == 10 and met.endswith("+"):
        met += "-"
    elif len(met) == 12 and met.endswith("--"):
        met = met[:-1]
    try:
        return check_pattern(met)
    except DataError as exc:
        raise UnnormalizableMet(f"met {raw!r}: {exc}") from None


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _looks_manual(attrs: dict) -> bool:
    return any(k in ("ana", "type", "cert", "resp") and "manual" in v.lower()
               for k, v in attrs.items())


def parse_tei(path) -> list[CorpusLine]:
    """Extract one CorpusLine per annotated verse element, in document order.

    Lines without a met attribute are skipped and counted in a warning; a
    bad met or a number below 1 raises MalformedTei naming the file, the
    poem and the line. An ``n`` is read as ``parse_line_no`` reads a
    line_no, ASCII digits only; a line whose ``n`` is no number is numbered
    by its place in the poem, and MalformedTei names it when another line
    of the poem has that number.
    The poem identifier comes from the nearest ancestor div/lg xml:id when
    present, otherwise from the file stem plus a running poem counter.
    """
    # the XML stack loads here, so commands that read no TEI skip it
    import xml.etree.ElementTree as ET

    path = Path(path)
    try:
        root = ET.parse(path).getroot()
    except (ET.ParseError, LookupError, ValueError) as exc:
        # LookupError and ValueError: an encoding expat does not know or
        # cannot read, as declared by the file
        raise MalformedXml(f"{path}: {exc}") from exc

    lines: list[CorpusLine] = []
    # (poem, number) -> how the l's n reads when it is no number, else ""
    seen: dict[tuple[str, int], str] = {}
    skipped = 0
    poem_counter = 0
    # depth first in document order, one entry per open element: its
    # children still to visit, its poem, manual flag and line counter
    stack = [(iter(root), None, _looks_manual(
        {_local(k): v for k, v in root.attrib.items()}), [0])]
    while stack:
        children, poem_id, manual, counter = stack[-1]
        child = next(children, None)
        if child is None:
            stack.pop()
            continue
        tag = _local(child.tag)
        attrs = {_local(k): v for k, v in child.attrib.items()}
        child_manual = manual or _looks_manual(attrs)
        if tag in ("div", "lg") and poem_id is None:
            poem_counter += 1
            new_id = attrs.get("id") or f"{path.stem}-{poem_counter:04d}"
            stack.append((iter(child), new_id, child_manual, [0]))
        elif tag == "l":
            met = attrs.get("met")
            text = " ".join("".join(child.itertext()).split())
            if not met or not text:
                skipped += 1
                continue
            counter[0] += 1
            n = attrs.get("n")
            try:
                number, unread = parse_line_no(n or "", MalformedTei), ""
            except MalformedTei:  # numbered by its place
                number = counter[0]
                unread = "no n" if n is None else f"n {n!r}"
            pid = poem_id or path.stem
            key = (pid, number)
            if key in seen and (unread or seen[key]):
                raise MalformedTei(
                    f"{path}: poem {pid}: an l with {unread or seen[key]} is "
                    f"numbered {number} by its place, a number another line "
                    "of the poem has")
            seen[key] = unread
            try:
                lines.append(CorpusLine(pid, number, text,
                                        normalize_met(met), child_manual))
            except ValueError as exc:
                raise MalformedTei(
                    f"{path}: poem {pid}, l {number}: {exc}") from exc
        else:
            stack.append((iter(child), poem_id, child_manual, counter))
    if skipped:
        import logging
        logging.getLogger(__name__).warning(
            "%s: skipped %d line(s) without met annotation", path, skipped)
    return lines


def parse_tei_dir(directory) -> list[CorpusLine]:
    """``parse_tei`` of every ``.xml`` file under ``directory``, in path
    order. Each poem is read from one file: a poem id, given or automatic,
    that two files yield raises MalformedTei naming both."""
    lines: list[CorpusLine] = []
    owners: dict[str, Path] = {}
    for f in sorted(Path(directory).glob("**/*.xml")):
        found = parse_tei(f)
        for ln in found:
            first = owners.setdefault(ln.poem_id, f)
            if first is not f:
                raise MalformedTei(
                    f"{f}: poem {ln.poem_id} was read from {first} already")
        lines.extend(found)
    return lines


def dedupe_and_clean(lines: list[CorpusLine]) -> list[CorpusLine]:
    """Strip punctuation from texts and drop exact duplicates (first wins)."""
    seen = set()
    out = []
    for ln in lines:
        text = clean_text(ln.text)
        if not text or text in seen:
            continue
        seen.add(text)
        out.append(CorpusLine(ln.poem_id, ln.line_no, text, ln.gold, ln.manual))
    return out


def split(lines: list[CorpusLine], ratios=DEFAULT_RATIOS, seed: int = 13) -> CorpusSplit:
    """Poem-level shuffle + greedy assignment toward the requested ratios.
    ``lines`` that are not a list or tuple of CorpusLines, ``ratios`` that
    are not three non-negative numbers summing to 1 and a ``seed`` that is
    not an integer raise DataError."""
    if not isinstance(lines, (list, tuple)):
        raise DataError(f"lines must be a list of CorpusLines, not {lines!r}")
    # written so that a NaN ratio fails both tests
    if (not isinstance(ratios, (list, tuple)) or len(ratios) != 3
            or not all(isinstance(r, (int, float)) and not isinstance(r, bool)
                       and r >= 0 for r in ratios)):
        raise DataError(f"need three non-negative ratios, got {ratios!r}")
    if not abs(sum(ratios) - 1.0) <= 1e-9:
        raise DataError(f"ratios {ratios!r} must sum to 1")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise DataError(f"seed must be an integer, not {seed!r}")

    poems: dict[str, list[CorpusLine]] = {}
    for ln in lines:
        if not isinstance(ln, CorpusLine):
            raise DataError(f"lines must hold CorpusLines, not {ln!r}")
        poems.setdefault(ln.poem_id, []).append(ln)
    poem_ids = sorted(poems)
    wanted_sets = sum(1 for r in ratios if r > 0)
    if len(poem_ids) < wanted_sets:
        raise InsufficientData(
            f"{len(poem_ids)} poem(s) cannot fill {wanted_sets} split(s)")

    import random
    rng = random.Random(seed)
    rng.shuffle(poem_ids)
    total = len(lines)
    targets = [r * total for r in ratios]
    filled = [0, 0, 0]
    buckets: tuple[list[CorpusLine], ...] = ([], [], [])
    for pid in poem_ids:
        deficits = [targets[i] - filled[i] for i in range(3)]
        dest = max(range(3), key=lambda i: (deficits[i], -i))
        buckets[dest].extend(poems[pid])
        filled[dest] += len(poems[pid])
    return CorpusSplit(
        train=tuple(buckets[0]), eval=tuple(buckets[1]), test=tuple(buckets[2]),
        seed=seed, ratios=tuple(ratios))


# --- serialization ----------------------------------------------------------

def write_tsv(lines, path, include_manual: bool = False) -> None:
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        for ln in lines:
            row = [ln.poem_id, str(ln.line_no), ln.text, ln.gold]
            if include_manual:
                row.append("1" if ln.manual else "0")
            fh.write("\t".join(row) + "\n")


def parse_line_no(text: str, error: type[DataError]) -> int:
    """The number in a line_no column, which holds ASCII digits only: ``01``
    is line 1, but ``1_0``, ``+2``, a space-padded ``3`` and the
    Arabic-Indic ``٣``, which ``int`` would also read, raise ``error``."""
    try:
        if text.isascii() and text.isdigit():
            return int(text)
    except ValueError:  # more digits than int converts
        pass
    raise error(f"line_no {text!r} is not an integer")


def read_tsv(path, rows=None) -> list[CorpusLine]:
    """Read a canonical TSV; a bad row raises MalformedTsv naming path:line.
    ``rows``, when given, are ``path``'s (line number, line) pairs, read
    from it once already by the caller."""
    lines = []
    for row, raw in numbered_lines(path) if rows is None else rows:
        if not raw:
            continue
        cols = raw.split("\t")
        try:
            if len(cols) < 4:
                raise MalformedTsv(
                    f"expected at least 4 columns, got {len(cols)}")
            line_no = parse_line_no(cols[1], MalformedTsv)
            manual = len(cols) > 4 and cols[4] == "1"
            lines.append(CorpusLine(cols[0], line_no, cols[2],
                                    normalize_met(cols[3]), manual))
        except ValueError as exc:
            raise MalformedTsv(f"{path}:{row}: {exc}") from exc
    return lines


def bundled_mini_gold() -> list[CorpusLine]:
    """The hand-verified Golden Age hendecasyllables shipped with the package."""
    ref = resources.files("escansion.data") / "mini_gold.tsv"
    with resources.as_file(ref) as path:
        return read_tsv(path)


def write_split(corpus_split: CorpusSplit, out_dir) -> dict:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = ("train", "eval", "test")
    for name, part in zip(names, corpus_split.parts()):
        write_tsv(part, out_dir / f"{name}.tsv")
    meta = {
        "seed": corpus_split.seed,
        "ratios": list(corpus_split.ratios),
        "counts": dict(zip(names, corpus_split.sizes())),
    }
    with open(out_dir / "split.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return meta
