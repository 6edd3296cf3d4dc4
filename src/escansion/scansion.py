"""Metrical analysis of a verse line.

A parsed line is a flat sequence of phonological syllables, each stressed
or not. ``phonological_parse`` builds it as a ``ParsedLine`` in the one
loop that reads the tokens: for each it takes the word's cached analysis
under the lexicon, which carries the word's frame (``Frame`` in
``phonology``), records the syllable the frame starts at, and ORs the
frame's bits into the line's there. Each frame holds what is fixed for
its word wherever it stands: its own syneresis and dieresis sites, the
vowel sounds at its edges and its stress bits in both forms, built once
per word from its syllabifier parts. The line brings the stresses: it
ORs in the last word's tonic bits, and a site involves a stress when the
line stresses a syllable it acts on. Finding sites offsets each word's
cached sites and tests only the word boundaries; fitting cuts the line's
stress bits at the syllables the sites move. No stage walks the line
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

One rule places every stressed syllable: each site has a cut, the first
syllable whose group it moves (p+1 for a merge at p or for a dieresis at
p whose stress stays on the left half, p for any other dieresis), and
syllable s lands in group s plus the shifts of the applied sites cut at
or before it, -1 per merge and +1 per dieresis. A subset's metrical
length is the group of the last stressed syllable q, plus 2, so a site
cut after q shifts it by 0, the reachable lengths are one range, and a
target outside it is reported at once. Tiers 3 to 5 are met by
counting, with no search: the applied sites must move q to group
target-2, so the cheapest subset applies the fewest dieresis sites that
can, the leftmost, and makes the merges still needed with synalephas,
releasing the first in drop order, and once those run out with the
leftmost syneresis sites. That subset wins at any target but 11, and at
11 whenever it is rhythmic, since the template only promotes rhythmic
candidates. Otherwise the template tier is counted too: a rhythmic subset
puts a stressed syllable s on group 5, or two, s1 < s2, on groups 3 and
7, so each such choice cuts the shifting sites into segments, each with
the shift it must make and its own cheapest subset by the same count.
Costs are sums over sites, so the cheapest rhythmic subset is the
cheapest union of segment picks, each costed in O(1) from prefix sums:
O(n + k^2) for n sites and k stressed syllables. When no subset is
rhythmic the counted subset wins. Diagnostics list every fitting pattern
from one pass over the shifting sites in cut order whose states, a set of
(shift, stresses) pairs, carry no cost and keep every position. Every
winner's stresses are laid out by ``_place``, with the rule above.

The records a scan takes and gives, ``ScanConfig``, ``FigureSite``,
``ScanCandidate`` and ``ScansionResult``, are named tuples: each equals
the plain tuple of its fields. Only ``ScanConfig`` checks its fields when
built; a site is checked where it enters the fit. A scanned line is one ``ScansionResult``,
built once from what the fit holds: the pattern, the applied sites, the
ambiguity, the line's words and the diagnostics. Its metrical length is
the pattern's, so ``candidate`` is built only when read, as are the
syllable texts, which the words carry. An unfittable line's
``Unfittable`` carries its message and achievable lengths; the nearest
subsets it names are worked out by ``_nearest`` only when read.
Hendecasyllable patterns are read from a table of the 1,024 built at
import, other targets rendered, and every pattern still passes
``check_pattern``, which also refuses a value that is not a string.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import partial
from typing import NamedTuple

from .errors import (DataError, EmptyLine, EmptyAfterNormalization,
                     LengthMismatch, Unfittable)
from .phonology import (StressLexicon, SyllabifiedWord, analyze_word,
                        default_lexicon)

_DELTAS = {"synalepha": -1, "syneresis": -1, "dieresis": +1}
# The longest target that diagnostics may be kept for. They keep every
# stress position, so the fit's states, time and memory double with each
# step of the target: lines of 15 to 18 vowel-contact words take up to
# ~70 ms at 16, ~0.7 s at 19 and ~7 s at 22 (one core of a 2-vCPU VM).
# Spanish metres of common use stop at 16.
DIAGNOSTICS_MAX_TARGET = 16


class _ScanSettings(NamedTuple):
    target_length: int = 11
    h_blocks_synalepha: bool = False
    emit_diagnostics: bool = False


class ScanConfig(_ScanSettings):
    """The target, h blocking and diagnostics of a scan; defaults reproduce
    hendecasyllables. The fitting preference is fixed, not a setting. A
    target that is no integer, below 2, or above ``DIAGNOSTICS_MAX_TARGET``
    with diagnostics, and a flag that is not a bool, raise DataError here,
    for library callers as for the CLI."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        target = self.target_length
        if not isinstance(target, int) or isinstance(target, bool):
            raise DataError(
                f"target_length must be an integer, not {target!r}")
        if target < 2:
            raise DataError("target_length must be at least 2")
        for name in ("h_blocks_synalepha", "emit_diagnostics"):
            flag = getattr(self, name)
            if not isinstance(flag, bool):
                raise DataError(f"{name} must be a bool, not {flag!r}")
        if self.emit_diagnostics and target > DIAGNOSTICS_MAX_TARGET:
            raise DataError(f"target_length must be at most "
                            f"{DIAGNOSTICS_MAX_TARGET} with diagnostics")
        return self

    @classmethod
    def _make(cls, iterable):
        # _replace builds through here: check its result too
        return cls(*iterable)


# the config of a call given none: built once, since each build re-checks
_DEFAULT_CONFIG = ScanConfig()


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


class ScanCandidate(NamedTuple):
    """The applied figures of a fitted line and its metrical length."""

    applied: tuple[FigureSite, ...]
    metrical_length: int


class ScansionResult(NamedTuple):
    """A scanned line: its pattern, the applied figures in site order,
    whether more than one subset fits, the line's ``SyllabifiedWord``s
    and, when the config asks for them, every fitting pattern in
    ``diagnostics``. It is built once per line from what the fit already
    holds; ``candidate``, ``syllabification`` and ``hyphenated()`` are
    read from its fields when asked for. Equal results have equal words,
    each with its surface form and frame."""

    pattern: str
    applied: tuple[FigureSite, ...]
    ambiguous: bool
    words: tuple[SyllabifiedWord, ...]
    diagnostics: tuple[str, ...] = ()

    @property
    def candidate(self) -> ScanCandidate:
        """The applied figures and the metrical length, the pattern's."""
        return ScanCandidate(self.applied, len(self.pattern))

    @property
    def syllabification(self) -> tuple[tuple[str, ...], ...]:
        return tuple([word.syllables for word in self.words])

    def hyphenated(self) -> str:
        return " ".join("-".join(word.syllables) for word in self.words)


PATTERN_LENGTH = 11  # a hendecasyllable's positions, gold or predicted


def check_pattern(symbols: str, length: int = PATTERN_LENGTH) -> str:
    """The one rule for a pattern: a string of ``length`` positions over +
    and -, one + at least. Hands ``symbols`` back, or raises DataError
    (LengthMismatch for a wrong length)."""
    if not isinstance(symbols, str):
        raise DataError(f"pattern {symbols!r} is not a string")
    if len(symbols) != length:
        raise LengthMismatch(f"pattern {symbols!r} has {len(symbols)} positions, "
                             f"wanted {length}")
    if symbols.strip("+-"):
        raise DataError(f"pattern {symbols!r} is not over +/-")
    if "+" not in symbols:
        raise DataError(f"pattern {symbols!r} has no stressed position")
    return symbols


# --- parsing ----------------------------------------------------------------

class ParsedLine(list):
    """The words of a line as ``SyllabifiedWord``s, each with its frame,
    plus the line that ``phonological_parse`` lays out as it reads them:
    ``starts``, the index of each word's first syllable in the line, and
    two bit sets, bit i for syllable i: ``stresses``, the stressed
    syllables, the last word's tonic ones included, and ``lefts``, those
    of them whose left half keeps the stress if a dieresis splits them.
    Read-only: the attributes do not follow edits to the list."""

    __slots__ = ("starts", "stresses", "lefts")


def phonological_parse(line: str, lexicon: StressLexicon) -> ParsedLine:
    """Tokenize, syllabify and stress every word of a raw verse line, and
    lay the frames of its words end to end in the same loop. A line that
    is not a ``str``, or a lexicon that is not a ``StressLexicon``, raises
    DataError."""
    if not isinstance(line, str):
        raise DataError(f"line must be a string, not {line!r}")
    if not isinstance(lexicon, StressLexicon):
        raise DataError(f"lexicon must be a StressLexicon, not {lexicon!r}")
    words = ParsedLine()
    starts, at, stresses, peaks = [], 0, 0, 0
    for token in line.split():
        try:
            word = analyze_word(token, lexicon)
        except EmptyAfterNormalization:
            continue
        frame = word.frame
        words.append(word)
        starts.append(at)
        stresses |= frame.stresses << at
        peaks |= frame.peaks << at
        at += frame.size
    if not words:
        raise EmptyLine(f"nothing scannable in line {line!r}")
    stresses |= frame.tonic << starts[-1]
    words.starts = starts
    words.stresses, words.lefts = stresses, stresses & peaks
    return words


def find_figure_sites(words: ParsedLine,
                      config: ScanConfig | None = None) -> list[FigureSite]:
    """Enumerate every applicable figure, ordered by position and then
    synalepha, syneresis, dieresis.

    Each word's syneresis and dieresis sites are cached in its frame at
    word-local positions; here they are offset to the line, and only the
    word boundaries are tested for a synalepha, from the vowel sounds the
    frames cache at their edges. A site involves a stress when the line
    stresses a syllable it acts on: p or p+1 for a merge at p, p for a
    dieresis. ``words`` that are not a ``ParsedLine``, and a config that
    is neither None, the default, nor a ``ScanConfig``, raise DataError.
    """
    if not isinstance(words, ParsedLine):
        raise DataError(f"words must be a ParsedLine, from "
                        f"phonological_parse, not {words!r}")
    if config is None:
        config = _DEFAULT_CONFIG
    elif not isinstance(config, ScanConfig):
        raise DataError(f"config must be a ScanConfig, not {config!r}")
    h_blocks = bool(config.h_blocks_synalepha)
    starts, stresses = words.starts, words.stresses
    frames = [word.frame for word in words]
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

def _rank_costs(ends: tuple[int, ...]) -> list[int]:
    """What applying sites adds to a subset's cost, as prefix sums over
    the shifting sites in rank order: the synalephas in drop order (those
    touching a stress or an h first, each group left to right), then the
    syneresis sites and the dieresis sites, each left to right. ``ends``
    holds the rank each of the four tiers ends at: the released
    synalephas, the held ones, the syneresis and the dieresis sites. Entry
    k is the cost of ranks 0 to k-1, so the ranks of a slice cost its stop
    entry less its start entry.

    A subset's cost is the sum over its sites, plus a constant, and orders
    subsets as the preference does. Each tier has its own bit field, so no
    tier carries into the one above; from the most significant down:

    * one count per figure, dieresis highest, then syneresis, synalepha
      (syneresis and dieresis count when applied, synalepha when left out);
    * the drop ranks of the released synalephas;
    * the positions of the applied syneresis sites, then dieresis sites.

    On equal counts the tuples in the last two tiers have equal sizes, and
    the lexicographically smaller of two sorted tuples of k distinct
    indices out of n is the one with the larger sum of 2^(n-1-index). So
    each of those fields sums 2^(n-1-index) over the indices left out of
    its tuple: the applied synalephas, the syneresis and dieresis sites
    not applied. In rank order, the site of rank k owns bit n-1-k of the
    n tie bits, and distinct subsets get distinct costs.

    Every tier compares sites by kind, flags and list order alone, so the
    costs of a sub-list order its subsets as the whole list's costs do:
    the fit passes only the sites that can shift the line.
    """
    n = ends[3]
    width = n.bit_length()
    costs, cost = [0], 0
    tie = 1 << n  # halved before each rank, so rank k gets bit n-1-k
    for rank in range(n):
        tie >>= 1
        if rank < ends[1]:
            cost += tie - (1 << n)
        elif rank < ends[2]:
            cost += (1 << n + width) - tie
        else:
            cost += (1 << n + 2 * width) - tie
        costs.append(cost)
    return costs


_SYMBOLS = str.maketrans("01", "-+")


def _eleven() -> tuple[str, ...]:
    """Every 11-position pattern, indexed by its stress bits below
    position 10: each step puts a new position 0 in front, bit 0 of the
    new index."""
    table = ["-"]
    for _ in range(10):
        table = [symbol + rest for rest in table for symbol in "-+"]
    return tuple(table)


_ELEVEN = _eleven()


def _render(stresses: int, length: int) -> str:
    """The pattern of a state's ``stresses``: groups 0..length-2, then the
    one final position everything after the last stress collapses into.
    Hendecasyllables are read from a table."""
    if length == 11:
        return _ELEVEN[stresses & 0x3FF]
    bits = stresses & (1 << length - 1) - 1
    return format(bits, f"0{length - 1}b")[::-1].translate(_SYMBOLS) + "-"


def _place(stresses: int, shifting, runs) -> tuple[list[int], int]:
    """The site indices of the ``(cut, shift, i)`` shifting sites whose
    ranks lie in the slices ``runs``, in site order, and the groups of the
    ``stresses`` once they apply: each moves every syllable from its cut
    on. Every winner's stresses are laid out here."""
    steps = []
    for run in runs:
        steps += shifting[run]
    steps.sort()  # cut order
    own = at = moved = 0
    for cut, shift, _ in steps:
        own |= (stresses >> at & (1 << cut - at) - 1) << at + moved
        at, moved = cut, moved + shift
    return (sorted([i for _, _, i in steps]),
            own | stresses >> at << at + moved)


def _rhythmic(stresses: int) -> bool:
    """The classical template: stress on 6, or on 4 and 8."""
    return bool(stresses & 0b100000) or stresses & 0b10001000 == 0b10001000


def _pick(lo, hi, shift):
    """The cheapest subset of the shifting sites whose ranks lie from the
    tier offsets ``lo`` up to ``hi`` (released, held, syneresis, dieresis)
    that shifts them by ``shift``, which one of them must: the leftmost
    ``max(0, shift)`` dieresis sites, and as many merges as they exceed
    ``shift`` by, synalephas while there are any, the ones left out being
    the first in drop order, and past them the leftmost syneresis sites.
    It is given as one slice of ranks per tier."""
    released, held, fusing, splitting = lo
    released_end, held_end, _, _ = hi
    splits = shift if shift > 0 else 0
    fused = splits - shift - (released_end - released) - (held_end - held)
    if fused < 0:
        fused = 0
    joined = splits - shift - fused  # the last synalephas in drop order
    kept = joined if joined < held_end - held else held_end - held
    return (slice(splitting, splitting + splits),
            slice(fusing, fusing + fused), slice(held_end - kept, held_end),
            slice(released_end - joined + kept, released_end))


def _template(stresses: int, shifting, top: int, need: int,
              starts: tuple[int, ...], ends: tuple[int, ...]):
    """The runs of the cheapest rhythmic subset of the ``(cut, shift, i)``
    shifting sites, in rank order, or None when no subset is rhythmic. A
    choice of s on group 5, or of s1 on 3 and s2 on 7, cuts the sites into
    segments, each picked by ``_pick`` and costed in O(1) from
    ``_rank_costs``; costs are sums over sites, so the choice's cheapest
    subset is the union of its segments' picks. The tier offsets are read
    from the sites' cuts only at the stressed syllables, and
    the prefix (to group 3 or 5) and suffix (from 5 or 7) of each s are
    costed once, the middle of a pair once per pair: at most 4k + k(k-1)/2
    segments for the k stressed syllables before ``top``."""
    costs = _rank_costs(ends)
    cuts = [cut for cut, _, _ in shifting]
    down, up = ends[2], ends[3] - ends[2]  # merges and splits in all

    def priced(lo, hi, shift):
        d, y, h, r = runs = _pick(lo, hi, shift)
        return (costs[d.stop] - costs[d.start] + costs[y.stop] - costs[y.start]
                + costs[h.stop] - costs[h.start] + costs[r.stop]
                - costs[r.start]), runs

    choices, heads = [], []
    released, held, fusing, splitting = starts
    rest = stresses & (1 << top) - 1
    while rest:
        s = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        # the sites cut at or before s move it; each tier is in cut order
        released = bisect_right(cuts, s, released, ends[0])
        held = bisect_right(cuts, s, held, ends[1])
        fusing = bisect_right(cuts, s, fusing, ends[2])
        splitting = bisect_right(cuts, s, splitting, ends[3])
        here = (released, held, fusing, splitting)
        merges = released + held - starts[1] + fusing - starts[2]
        splits = splitting - starts[3]
        if s - merges > 7:
            break  # no later stressed syllable reaches group 7 either
        # the groups s can land on, with the sites after it still able to
        # bring the last stress to its group
        low = s + max(-merges, need - up + splits)
        high = s + min(splits, need + down - merges)
        if low <= 5 <= high:
            head, tail = priced(starts, here, 5 - s), priced(here, ends,
                                                              need - 5 + s)
            choices.append((head[0] + tail[0], head[1] + tail[1]))
        if low <= 7 <= high:
            tail = priced(here, ends, need - 7 + s)
            for s1, there, merges1, splits1, head in heads:
                shift = 4 - s + s1  # between s1 on group 3 and s on 7
                if merges1 - merges <= shift <= splits - splits1:
                    middle = priced(there, here, shift)
                    choices.append((head[0] + middle[0] + tail[0],
                                    head[1] + middle[1] + tail[1]))
        if low <= 3 <= high:
            heads.append((s, here, merges, splits,
                          priced(starts, here, 3 - s)))
    return min(choices)[1] if choices else None


def _nearest(sites, shifting, end, toward) -> tuple[tuple[int, str], ...]:
    """The subsets of ``sites`` nearest the target of an unfittable line,
    from its ``shifting`` sites as ``(cut, shift, i)`` for ``sites[i]``,
    ``end``, the achievable length nearest the target, and ``toward``, +1
    when the target lies above the range and -1 below: the subset applying
    every site whose shift is toward the target, that one plus its lowest
    free sites (those not among the shifting ones), then that one with one
    shifting site flipped, a step further. Three at most, ties by mask,
    each given as its length and its sites, as ``kind@position`` joined by
    ``;``, or ``none``."""
    best = sum(1 << i for _, shift, i in shifting if shift == toward)
    moving = {i for _, _, i in shifting}
    free = [1 << i for i in range(len(sites)) if i not in moving]
    flipped = sorted(best ^ 1 << i for _, _, i in shifting)
    masks = ([(end, best)] + [(end, best | bit) for bit in free[:2]]
             + [(end - toward, mask) for mask in flipped[:2]])[:3]
    return tuple((length, ";".join([str(site) for i, site in enumerate(sites)
                                    if mask >> i & 1]) or "none")
                 for length, mask in masks)


def _unfittable(sites, shifting, low, high, target) -> Unfittable:
    """Every achievable length, ``low`` to ``high``; the nearest subsets
    are worked out by ``_nearest``, from a snapshot of ``sites``, when
    ``Unfittable.nearest`` is first read."""
    achievable = range(low, high + 1)
    toward = 1 if target > high else -1
    return Unfittable(
        f"no figure subset reaches length {target} "
        f"(achievable: {list(achievable)})",
        achievable=achievable, nearest=partial(
            _nearest, tuple(sites), shifting, high if toward > 0 else low,
            toward))


def _patterns(stresses: int, shifting, top: int, need: int,
              target: int) -> tuple[str, ...]:
    """Every fitting pattern, sorted: one pass over the ``(cut, shift, _)``
    shifting sites in cut order whose states are a set of ``(shift so far,
    stresses placed so far)`` pairs. Before each cut, the line's stresses
    since the last cut are moved by a state's shift and ORed in; then the
    site is applied or not. A state that the sites still to come cannot
    bring to ``need`` is dropped. The last step closes the pass: a step at
    cut ``top + 1`` with no site, which ORs in the last run and applies
    nothing, so every state left is final, with the target as its length.
    States keep every stress, so they double with each step of the
    target."""
    states, at = {(0, 0)}, 0
    # the shifts so far that the sites still to come can bring to need
    up = sum(shift > 0 for _, shift, _ in shifting)
    lo, hi = need - up, need + len(shifting) - up
    for cut, shift, _ in sorted(shifting) + [(top + 1, 0, None)]:
        lo, hi = lo + (shift > 0), hi - (shift < 0)
        run = stresses >> at & (1 << cut - at) - 1
        grown = set()
        for moved, placed in states:
            placed |= run << at + moved
            if lo <= moved <= hi:  # skip the site
                grown.add((moved, placed))
            if shift and lo <= moved + shift <= hi:  # apply it
                grown.add((moved + shift, placed))
        states, at = grown, cut
    return tuple(sorted(_render(placed, target) for _, placed in states))


def fit_to_target(words: ParsedLine, sites: list[FigureSite],
                  config: ScanConfig | None = None) -> ScansionResult:
    """Choose the figure subset that lands the line on the target length.

    ``sites`` is ``find_figure_sites``' list for ``words`` or any sub-list
    of it, in order: the fit chooses among the sites given, and the others
    stay unapplied. ``words`` that are not a ``ParsedLine``, ``sites``
    that are not a list or tuple of ``FigureSite``s, a site of a kind
    other than synalepha, syneresis and dieresis or at a position that is
    no int (a bool is none) from 0 to the line's last syllable, each ahead
    of any Unfittable, and a config that is neither None, the default, nor
    a ``ScanConfig`` raise DataError.

    The reachable lengths are read from each site's shift, as the module
    docstring tells: a target out of their range raises Unfittable, and
    more than one subset fits when a site shifts nothing or the target is
    strictly inside it. A site that shifts nothing is cut after the last
    stress, so it is a syneresis or dieresis, whose cost is positive, and
    is never applied. The others go to ``shifting`` as ``(cut, shift, i)``
    for ``sites[i]``, in rank order as ``_rank_costs`` costs them, so a
    site's rank is its index. ``need`` is the shift that puts the last
    stress on group target-2, and ``_pick`` counts out their cheapest
    subset. It wins at a target other than 11, and at 11 when its pattern
    is rhythmic; else ``_template``'s cheapest rhythmic subset wins when
    there is one. ``_place`` lays out the winner's stresses and lists its
    sites in site order, and ``emit_diagnostics`` adds every fitting
    pattern, from ``_patterns``.
    """
    if not isinstance(words, ParsedLine):
        raise DataError(f"words must be a ParsedLine, from "
                        f"phonological_parse, not {words!r}")
    if not isinstance(sites, (list, tuple)):
        raise DataError(f"sites must be a list of FigureSites, not {sites!r}")
    if config is None:
        config = _DEFAULT_CONFIG
    elif not isinstance(config, ScanConfig):
        raise DataError(f"config must be a ScanConfig, not {config!r}")
    target = config.target_length
    stresses, lefts = words.stresses, words.lefts
    top = stresses.bit_length() - 1  # the last stressed syllable
    size = words.starts[-1] + words[-1].frame.size  # the line's syllables
    # one pass: check each kind, cut each site where it moves the line (p+1
    # for a merge at p or a split of p that keeps its stress on the left,
    # p for any other split), and put each site that shifts the last stress
    # in its tier; a site's rank is then its index in shifting
    released, held, fusing, splitting = [], [], [], []
    ambiguous = False
    for i, site in enumerate(sites):
        if not isinstance(site, FigureSite):
            raise DataError(f"a site must be a FigureSite, not {site!r}")
        kind, position, stress, h = site
        shift = _DELTAS.get(kind)
        if shift is None:
            raise DataError(f"unknown figure kind {kind!r}")
        if type(position) is not int or not 0 <= position < size:
            raise DataError(f"site {site!r}: position must be an integer "
                            f"from 0 to {size - 1}")
        cut = position + (shift < 0 or lefts >> position & 1)
        if cut > top:
            ambiguous = True  # it shifts nothing
        elif shift > 0:
            splitting.append((cut, shift, i))
        elif kind == "syneresis":
            fusing.append((cut, shift, i))
        else:
            (released if stress or h else held).append((cut, shift, i))
    shifting = released + held + fusing + splitting
    up = len(splitting)
    down = len(shifting) - up
    low, high = top + 2 - down, top + 2 + up
    if not low <= target <= high:
        raise _unfittable(sites, shifting, low, high, target)

    need = target - top - 2  # the shift that puts the last stress on target-2
    picked, own = [], stresses  # with no shifting site, nothing can apply
    if shifting:
        starts = (0, len(released), down - len(fusing), down)
        ends = starts[1:] + (len(shifting),)
        picked, own = _place(stresses, shifting, _pick(starts, ends, need))
        if target == 11 and not _rhythmic(own):
            runs = _template(stresses, shifting, top, need, starts, ends)
            if runs:
                picked, own = _place(stresses, shifting, runs)
    diagnostics = ()
    if config.emit_diagnostics:
        diagnostics = _patterns(stresses, shifting, top, need, target)
    return _result(words, tuple([sites[i] for i in picked]), own, target,
                   ambiguous or low < target < high, diagnostics)


def _result(words, applied, stresses, target, ambiguous,
            diagnostics=()) -> ScansionResult:
    return ScansionResult(check_pattern(_render(stresses, target), target),
                          applied, ambiguous, tuple(words), diagnostics)


def scan_line(line: str, lexicon: StressLexicon | None = None,
              config: ScanConfig | None = None) -> ScansionResult:
    """Raw text in, 11-position stress pattern out. A config that is
    neither None nor a ``ScanConfig`` raises DataError, from
    ``find_figure_sites``."""
    lexicon = lexicon if lexicon is not None else default_lexicon()
    words = phonological_parse(line, lexicon)
    sites = find_figure_sites(words, config)
    return fit_to_target(words, sites, config)
