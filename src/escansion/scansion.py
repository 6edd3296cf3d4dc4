"""Metrical analysis of a verse line.

A parsed line is a flat sequence of phonological syllables, each stressed
or not. ``phonological_parse`` returns it as a ``ParsedLine``: the words,
plus their frames from the lexicon's cached word analyses (``Frame`` in
``phonology``). Each frame holds what is fixed for its word wherever it
stands: its own syneresis and dieresis sites, the vowel sounds at its
edges and its stress bits in both forms, built once per word from its
syllabifier parts. The line brings the stresses: it ORs in the last
word's tonic bits, and a site involves a stress when the line stresses
a syllable it acts on. Finding sites offsets each word's cached sites
and tests only the word boundaries; fitting cuts the line's stress bits
into steps at the syllables the sites act on. No stage walks the line
syllable by syllable.
Three figures can reshape the sequence:

* synalepha  - merges the last syllable of a word with the vowel-initial
               first syllable of the next word (-1 per merged boundary);
* syneresis  - merges a word-internal hiatus into one syllable (-1);
* dieresis   - splits a word-internal diphthong in two (+1).

Fitting a line means choosing the subset of applicable figures whose
resulting metrical length (syllable count plus the ending adjustment:
+1 after a final stressed syllable, 0 after one trailing weak syllable,
-1 after two, -2 after three) equals the target, 11 for hendecasyllables.
Among the subsets that fit, a fixed preference picks the winner:

1. the obligatory ictus on position 10 needs no tier of its own: metrical
   length ends one position past the last stress, so every candidate of
   length 11 is stressed on 10;
2. candidates matching a classical rhythmic template (stress on 6, or on
   4 and 8) beat those that do not, when any exists (target 11 only);
3. fewest dieresis, then fewest syneresis, then most synalephas;
4. when synalephas must be left unapplied, boundaries that touch a
   stressed vowel or a silent h are released first, left to right;
5. remaining ties resolve left to right on site positions.

The last word of the line always counts as stressed (the final-accent
convention of Spanish metrics), which also guarantees every pattern
contains at least one '+'.

Whether a line fits is arithmetic: a subset's metrical length is the
group of the last stressed syllable q, plus 2, and each site shifts that
group by a fixed -1 (a merge at p < q), +1 (a dieresis at p < q, or at q
when the stress goes to the right half) or 0, so the reachable lengths
are one range and a target outside it is reported at once. A line that
fits is ranked by one left-to-right dynamic program over the flat
syllables whose state is the group count, capped at the target, and the
stresses at position target-1 and, for the rhythmic template, at 4, 6
and 8: at most (target+1)*16 states, so its cost grows linearly with
syllables; diagnostics keep every position. Each choice of a step
carries its cost, and each DP entry its subset's own stresses, so the
winner's pattern is read from its entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import (DataError, EmptyLine, EmptyAfterNormalization,
                     LengthMismatch, Unfittable)
from .phonology import (
    Frame,
    StressLexicon,
    WordAnalysis,
    analyze_token,
    default_lexicon,
)

_FIGURES = ("synalepha", "syneresis", "dieresis")
_DELTAS = {"synalepha": -1, "syneresis": -1, "dieresis": +1}
# The longest target that diagnostics may be kept for. They keep every
# stress position, so the fit's states, time and memory double with each
# step of the target: vowel-contact lines of ~30 words take up to ~25 ms at
# 16, ~0.3 s at 19 and ~2 s at 22. Spanish metres of common use stop at 16.
DIAGNOSTICS_MAX_TARGET = 16


@dataclass(frozen=True)
class ScanConfig:
    """The target, h blocking and diagnostics of a scan; defaults reproduce
    hendecasyllables. The fitting preference is fixed, not a setting."""

    target_length: int = 11
    h_blocks_synalepha: bool = False
    emit_diagnostics: bool = False

    def __post_init__(self):
        if self.target_length < 2:
            raise DataError("target_length must be at least 2")
        if (self.emit_diagnostics
                and self.target_length > DIAGNOSTICS_MAX_TARGET):
            raise DataError(f"target_length must be at most "
                            f"{DIAGNOSTICS_MAX_TARGET} with diagnostics")


class FigureSite(NamedTuple):
    """One place where a figure could apply.

    ``position`` indexes the flat phonological syllable sequence: for the
    merging figures it names the left syllable of the merged pair, for
    dieresis the syllable being split. A tuple: it equals the plain tuple
    of its fields.
    """

    kind: str
    position: int
    involves_stress: bool = False
    through_h: bool = False

    @property
    def delta(self) -> int:
        """What applying the figure does to the syllable count."""
        return _DELTAS[self.kind]

    def __str__(self):
        return f"{self.kind}@{self.position}"


@dataclass(frozen=True)
class ScanCandidate:
    applied: tuple[FigureSite, ...]
    metrical_length: int


@dataclass(frozen=True)
class ScansionResult:
    pattern: str
    candidate: ScanCandidate
    ambiguous: bool
    syllabification: tuple[tuple[str, ...], ...]
    diagnostics: tuple[str, ...] = ()

    def hyphenated(self) -> str:
        return " ".join("-".join(word) for word in self.syllabification)


def check_pattern(symbols: str, length: int = 11) -> str:
    """Validate a metrical pattern string and hand it back."""
    if len(symbols) != length:
        raise LengthMismatch(f"pattern {symbols!r} has {len(symbols)} positions, "
                             f"wanted {length}")
    if set(symbols) - {"+", "-"}:
        raise ValueError(f"pattern {symbols!r} not over +/-")
    if "+" not in symbols:
        raise ValueError("pattern needs at least one stressed position")
    return symbols


# --- parsing ----------------------------------------------------------------

class _Flat(NamedTuple):
    """The frames of a line's words in order, the index of each word's
    first syllable in the line, and the line's syllable count and bits,
    bit i for syllable i: the stressed syllables, the last word's tonic
    ones included, and those of them whose left half keeps the stress if
    a dieresis splits them."""

    frames: list[Frame]
    starts: list[int]
    size: int
    stresses: int
    lefts: int


def _build_flat(frames: list[Frame]) -> _Flat:
    starts, at, stresses, peaks = [], 0, 0, 0
    for frame in frames:
        starts.append(at)
        stresses |= frame.stresses << at
        peaks |= frame.peaks << at
        at += frame.size
    stresses |= frame.tonic << starts[-1]
    return _Flat(frames, starts, at, stresses, stresses & peaks)


class ParsedLine(list):
    """The words of a line as ``SyllabifiedWord``s, plus ``flat``, the
    line's word frames, taken once from the cached word analyses.
    Read-only: ``flat`` does not follow edits to the list."""

    def __init__(self, analyses: list[WordAnalysis]):
        super().__init__(a.word for a in analyses)
        self.flat = _build_flat([a.frame for a in analyses])


def phonological_parse(line: str, lexicon: StressLexicon) -> ParsedLine:
    """Tokenize, syllabify and stress every word of a raw verse line."""
    analyses = []
    for token in line.split():
        try:
            analyses.append(analyze_token(token, lexicon))
        except EmptyAfterNormalization:
            continue
    if not analyses:
        raise EmptyLine(f"nothing scannable in line {line!r}")
    return ParsedLine(analyses)


def find_figure_sites(words: ParsedLine,
                      config: ScanConfig | None = None) -> list[FigureSite]:
    """Enumerate every applicable figure, ordered by position and then as
    in ``_FIGURES``.

    Each word's syneresis and dieresis sites are cached in its frame at
    word-local positions; here they are offset to the line, and only the
    word boundaries are tested for a synalepha, from the vowel sounds the
    frames cache at their edges. A site involves a stress when the line
    stresses a syllable it acts on: p or p+1 for a merge at p, p for a
    dieresis.
    """
    config = config or ScanConfig()
    h_blocks = bool(config.h_blocks_synalepha)
    frames, starts, _, stresses, _ = words.flat
    sites = []
    for frame, start, after in zip(frames, starts, frames[1:] + [None]):
        for kind, position in frame.sites:
            at = start + position
            sites.append(FigureSite(kind, at, bool(
                stresses >> at & (1 if kind == "dieresis" else 3))))
        end = start + frame.size - 1
        if (after is not None and frame.ends_vowel
                and after.begins_vowel[h_blocks]):
            sites.append(FigureSite("synalepha", end, bool(stresses >> end & 3),
                                    frame.h_last or after.h_first))
        if frame.tail:
            sites.append(FigureSite("dieresis", end, bool(stresses >> end & 1)))
    return sites


# --- candidate evaluation ---------------------------------------------------

def _choices(flat: _Flat, sites: list[FigureSite], deltas: list[int]):
    """Every way the sites can be set, one step at a time.

    A step is a run of the line's syllables: one that a site acts on (or
    the first) and the syllables after it that no site acts on. A merge
    at p acts on syllable p+1, a dieresis at p on p. Each of the step's
    choices is ``(cost, bits, move)``. ``bits`` are the mask bits of the
    sites it applies: the merge before the first syllable and the
    dieresis on it, and ``cost`` is the sum of their ``deltas``. ``move``
    is ``(joined, opened, stresses)``, what the run does to the metrical
    groups: the stress a merge joins into the open group, the number of
    groups the run opens and their stress bits, the first opened group
    the least significant. Only ``fit_to_target`` folds a move into groups.
    The moves are cut from the line's stress bits, so any sub-list of
    ``find_figure_sites``' list gives the steps of its own sites.
    """
    _, _, size, stresses, lefts = flat
    joins, splits = {}, {}
    for i, site in enumerate(sites):
        if site.kind == "dieresis":
            splits[site.position] = i
        else:
            joins[site.position + 1] = i
    cuts = sorted({0, *joins, *splits})
    steps = []
    for start, end in zip(cuts, cuts[1:] + [size]):
        run = end - start
        stressed = stresses >> start & (1 << run) - 1
        choices = [(0, 0, (0, run, stressed))]
        if start in splits:
            # the syllable opens two groups, its stress on the left or right
            i, left = splits[start], lefts >> start & 1
            choices.append((deltas[i], 1 << i,
                            (0, run + 1, left | (stressed ^ left) << 1)))
        if start in joins:
            # the first group the choice would open joins the open one
            i = joins[start]
            choices += [(cost + deltas[i], bits | 1 << i,
                         (new & 1, opened - 1, new >> 1))
                        for cost, bits, (_, opened, new) in choices]
        steps.append(choices)
    return steps


def _site_deltas(sites: list[FigureSite]) -> list[int]:
    """Per site, what applying it adds to a subset's cost.

    A subset's cost is the sum of these over its sites, plus a constant,
    and orders subsets as the preference does. Each tier has its own bit
    field, so no tier carries into the one above; from the most
    significant down:

    * one count per figure, in ``_FIGURES`` order with the last highest
      (syneresis and dieresis count when applied, synalepha when left out);
    * the drop ranks of the released synalephas: those touching a stress
      or an h first, each group left to right;
    * the positions of the applied syneresis sites, then dieresis sites.

    On equal counts the tuples in the last two tiers have equal sizes, and
    the lexicographically smaller of two sorted tuples of k distinct
    indices out of n is the one with the larger sum of 2^(n-1-index). So
    each of those fields sums 2^(n-1-index) over the indices left out of
    its tuple: the applied synalephas, the syneresis and dieresis sites
    not applied. Ranked in one order, synalephas by drop rank, then
    syneresis, then dieresis sites, the site of rank k owns bit n-1-k of
    the n tie bits, and distinct subsets get distinct costs.
    """
    n = len(sites)
    ranked = sorted(range(n), key=lambda i: (
        _FIGURES.index(sites[i].kind), sites[i].kind == "synalepha"
        and not (sites[i].involves_stress or sites[i].through_h), i))
    width = n.bit_length()
    count_bit = {f: 1 << (n + width * t) for t, f in enumerate(_FIGURES)}
    deltas = [0] * n
    for rank, i in enumerate(ranked):
        kind, tie = sites[i].kind, 1 << (n - 1 - rank)
        deltas[i] = (tie - count_bit[kind] if kind == "synalepha"
                     else count_bit[kind] - tie)
    return deltas


def _render(stresses: int, length: int) -> str:
    """The pattern of a state's ``stresses``: groups 0..length-2, then the
    one final position everything after the last stress collapses into."""
    return "".join("-+"[stresses >> i & 1] for i in range(length - 1)) + "-"


def _applied(sites: list[FigureSite], mask: int) -> tuple[FigureSite, ...]:
    return tuple(s for i, s in enumerate(sites) if mask >> i & 1)


def _unfittable(sites, shifts, low, high, target) -> Unfittable:
    """Every achievable length, ``low`` to ``high``, and the three subsets
    nearest the target, ties by mask: the one applying every site whose
    shift is toward the target, that one plus its lowest free sites (shift
    0), then that one with one shifting site flipped, a step further."""
    toward = 1 if target > high else -1
    end = high if target > high else low
    best = sum(1 << i for i, shift in enumerate(shifts) if shift == toward)
    free = [1 << i for i, shift in enumerate(shifts) if not shift]
    flipped = sorted(best ^ 1 << i for i, shift in enumerate(shifts) if shift)
    nearest = ([(end, best)] + [(end, best | bit) for bit in free[:2]]
               + [(end - toward, mask) for mask in flipped[:2]])[:3]
    achievable = range(low, high + 1)
    return Unfittable(
        f"no figure subset reaches length {target} "
        f"(achievable: {list(achievable)})",
        achievable=achievable,
        nearest=[(length, ";".join(map(str, _applied(sites, mask))) or "none")
                 for length, mask in nearest])


def fit_to_target(words: ParsedLine, sites: list[FigureSite],
                  config: ScanConfig | None = None) -> ScansionResult:
    """Choose the figure subset that lands the line on the target length.

    ``sites`` is ``find_figure_sites``' list for ``words`` or any sub-list
    of it, in order: the fit chooses among the sites given, and the others
    stay unapplied. Mask bit i is ``sites[i]``. A site of a kind not in
    ``_FIGURES`` raises ValueError.

    The reachable lengths are read from each site's shift, as the module
    docstring tells: a target out of their range raises Unfittable, and
    more than one subset fits when a site shifts nothing or the target is
    strictly inside it. A line that fits is ranked by one left-to-right DP
    over the flat syllables on states ``(groups, stresses)``: the groups
    opened so far, the last still open to a join, and bit i the stress of
    group i. A state that stresses group target-1 or later dies, ``groups``
    stops at target, and ``stresses`` keeps bit target-2 and, for the
    rhythmic template, bits 3, 5 and 7, so there are at most (target+1)*16
    states; ``emit_diagnostics`` keeps every bit. Each state keeps the
    cheapest subset reaching it under ``_site_deltas`` with its own groups
    and every stress bit. The winner's pattern is read from those, with no
    second pass, and its length is the target: a feasible state is stressed
    on group target-2 and on none after it.
    """
    config = config or ScanConfig()
    for site in sites:
        if site.kind not in _DELTAS:
            raise ValueError(f"unknown figure kind {site.kind!r}")
    target = config.target_length
    _, _, _, stresses, lefts = words.flat
    top = stresses.bit_length() - 1  # the last stressed syllable
    shifts = [site.delta if site.position < top or site.position == top
              and site.kind == "dieresis" and not lefts >> top & 1 else 0
              for site in sites]
    low, high = top + 2 - shifts.count(-1), top + 2 + shifts.count(1)
    if not low <= target <= high:
        raise _unfittable(sites, shifts, low, high, target)

    steps = _choices(words.flat, sites, _site_deltas(sites))
    rhythmic = target == 11
    dead = 1 << target - 1  # a stress on any group from target-1 on
    keep = (dead - 1 if config.emit_diagnostics
            else 1 << target - 2 | (0b10101000 if rhythmic else 0))

    # (groups, kept stresses) -> (cost, mask, the mask's own groups and
    # stresses); a final step opens one unstressed group to close the last
    # one, so every feasible state has target groups
    states = {(0, 0): (0, 0, 0, 0)}
    for choices in steps + [[(0, 0, (0, 1, 0))]]:
        grown: dict[tuple[int, int], tuple[int, int, int, int]] = {}
        for added, bits, (joined, opened, new) in choices:
            for cost, mask, groups, stresses in states.values():
                stresses |= joined << groups >> 1 | new << groups
                if stresses >= dead:
                    continue
                groups += opened
                key = (groups if groups < target else target, stresses & keep)
                seen = grown.get(key)
                if seen is None or cost + added < seen[0]:
                    grown[key] = (cost + added, mask | bits, groups, stresses)
        states = grown

    # stresses -> entry for the feasible states: stressed on target-2
    finals = {stresses: entry for (groups, stresses), entry in states.items()
              if groups == target and stresses >> target - 2}
    # the rhythmic template: stress on 6, or on 4 and 8
    hits = [s for s in finals if rhythmic
            and (s & 0b100000 or s & 0b10001000 == 0b10001000)]
    _, mask, _, stresses = min(finals[s] for s in hits or finals)

    diagnostics = ()
    if config.emit_diagnostics:
        diagnostics = tuple(sorted(_render(s, target) for s in finals))
    return ScansionResult(
        pattern=check_pattern(_render(stresses, target), target),
        candidate=ScanCandidate(_applied(sites, mask), target),
        ambiguous=0 in shifts or low < target < high,
        syllabification=tuple(sw.syllables for sw in words),
        diagnostics=diagnostics,
    )


def scan_line(line: str, lexicon: StressLexicon | None = None,
              config: ScanConfig | None = None) -> ScansionResult:
    """Raw text in, 11-position stress pattern out."""
    lexicon = lexicon if lexicon is not None else default_lexicon()
    config = config or ScanConfig()
    words = phonological_parse(line, lexicon)
    sites = find_figure_sites(words, config)
    return fit_to_target(words, sites, config)
