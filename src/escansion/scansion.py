"""Metrical analysis of a verse line.

A parsed line is a flat sequence of phonological syllables, each stressed
or not. ``phonological_parse`` builds it as a ``ParsedLine`` in the one
loop that reads the tokens: for each it takes the word and its frame from
the lexicon's cached word analyses (``Frame`` in ``phonology``), records
the syllable the frame starts at, and ORs the frame's bits into the
line's there. Each frame holds what is fixed for its word wherever it
stands: its own syneresis and dieresis sites, the vowel sounds at its
edges and its stress bits in both forms, built once per word from its
syllabifier parts. The line brings the stresses: it ORs in the last
word's tonic bits, and a site involves a stress when the line stresses
a syllable it acts on. Finding sites offsets each word's cached sites
and tests only the word boundaries; fitting cuts the line's stress bits
at the syllables the sites move. No stage walks the line syllable by
syllable.
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
candidates. Otherwise, and with diagnostics, the line is ranked by one
dynamic program over the shifting sites in cut order whose state is the
shift so far and the stresses of positions 4, 6 and 8 for the template:
at most 8 states per shift, so its cost grows linearly with the sites;
diagnostics keep every position. Each state holds only the ``(cost,
mask)`` of the cheapest subset reaching it, and the DP closes with a
step past the last stress that has no site, so its states are then the
final ones. Either path's winning stresses are laid out from its subset
by ``_place``, with the rule above.

The records a scan takes and gives, ``ScanConfig``, ``FigureSite``,
``ScanCandidate`` and ``ScansionResult``, are named tuples: each equals
the plain tuple of its fields.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import (DataError, EmptyLine, EmptyAfterNormalization,
                     LengthMismatch, Unfittable)
from .phonology import StressLexicon, analyze_token, default_lexicon

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
    target below 2, or above ``DIAGNOSTICS_MAX_TARGET`` with diagnostics,
    raises DataError here, for library callers as for the CLI."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.target_length < 2:
            raise DataError("target_length must be at least 2")
        if (self.emit_diagnostics
                and self.target_length > DIAGNOSTICS_MAX_TARGET):
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
    """A scanned line; ``diagnostics`` lists every fitting pattern when
    the config asks for them."""

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

class ParsedLine(list):
    """The words of a line as ``SyllabifiedWord``s, plus the line that
    ``phonological_parse`` lays out as it reads them: ``frames``, the
    words' frames in order; ``starts``, the index of each word's first
    syllable in the line; and two bit sets, bit i for syllable i:
    ``stresses``, the stressed syllables, the last word's tonic ones
    included, and ``lefts``, those of them whose left half keeps the stress
    if a dieresis splits them. Read-only: the attributes do not follow
    edits to the list."""

    __slots__ = ("frames", "starts", "stresses", "lefts")


def phonological_parse(line: str, lexicon: StressLexicon) -> ParsedLine:
    """Tokenize, syllabify and stress every word of a raw verse line, and
    lay its words' frames end to end in the same loop."""
    words = ParsedLine()
    frames, starts, at, stresses, peaks = [], [], 0, 0, 0
    for token in line.split():
        try:
            word, frame = analyze_token(token, lexicon)
        except EmptyAfterNormalization:
            continue
        words.append(word)
        frames.append(frame)
        starts.append(at)
        stresses |= frame.stresses << at
        peaks |= frame.peaks << at
        at += frame.size
    if not frames:
        raise EmptyLine(f"nothing scannable in line {line!r}")
    stresses |= frame.tonic << starts[-1]
    words.frames, words.starts = frames, starts
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
    dieresis.
    """
    config = config or _DEFAULT_CONFIG
    h_blocks = bool(config.h_blocks_synalepha)
    frames, starts, stresses = words.frames, words.starts, words.stresses
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

def _tiers(sites: list[FigureSite]) -> tuple[list[int], list[int], list[int]]:
    """The indices of ``sites`` by tier: the synalephas in drop order (those
    touching a stress or an h first, each group left to right), then the
    syneresis sites and the dieresis sites, each left to right."""
    released, held, syneresis, dieresis = [], [], [], []
    for i, (kind, _, stress, h) in enumerate(sites):
        if kind == "synalepha":
            (released if stress or h else held).append(i)
        elif kind == "syneresis":
            syneresis.append(i)
        else:
            dieresis.append(i)
    return released + held, syneresis, dieresis


def _site_deltas(sites: list[FigureSite]) -> list[int]:
    """Per site, what applying it adds to a subset's cost.

    A subset's cost is the sum of these over its sites, plus a constant,
    and orders subsets as the preference does. Each tier has its own bit
    field, so no tier carries into the one above; from the most
    significant down:

    * one count per figure, dieresis highest, then syneresis, synalepha
      (syneresis and dieresis count when applied, synalepha when left out);
    * the drop ranks of the released synalephas, in ``_tiers``' order;
    * the positions of the applied syneresis sites, then dieresis sites.

    On equal counts the tuples in the last two tiers have equal sizes, and
    the lexicographically smaller of two sorted tuples of k distinct
    indices out of n is the one with the larger sum of 2^(n-1-index). So
    each of those fields sums 2^(n-1-index) over the indices left out of
    its tuple: the applied synalephas, the syneresis and dieresis sites
    not applied. Ranked in one order, synalephas by drop rank, then
    syneresis, then dieresis sites, the site of rank k owns bit n-1-k of
    the n tie bits, and distinct subsets get distinct costs.

    Every tier compares sites by kind, flags and list order alone, so the
    costs of a sub-list order its subsets as the whole list's costs do:
    the fit passes only the sites that can shift the line.
    """
    n = len(sites)
    drop, syneresis, dieresis = _tiers(sites)
    width = n.bit_length()
    deltas = [0] * n
    tie = 1 << n  # halved before each rank, so rank k gets bit n-1-k
    for i in drop:
        tie >>= 1
        deltas[i] = tie - (1 << n)
    count = 1 << n + width
    for i in syneresis:
        tie >>= 1
        deltas[i] = count - tie
    count <<= width
    for i in dieresis:
        tie >>= 1
        deltas[i] = count - tie
    return deltas


_SYMBOLS = str.maketrans("01", "-+")


def _render(stresses: int, length: int) -> str:
    """The pattern of a state's ``stresses``: groups 0..length-2, then the
    one final position everything after the last stress collapses into."""
    bits = stresses & (1 << length - 1) - 1
    return format(bits, f"0{length - 1}b")[::-1].translate(_SYMBOLS) + "-"


def _applied(sites: list[FigureSite], mask: int) -> tuple[FigureSite, ...]:
    return tuple(s for i, s in enumerate(sites) if mask >> i & 1)


def _place(stresses: int, steps) -> int:
    """The groups of the ``stresses`` once the ``(cut, shift, _)`` steps, in
    cut order, are applied: each moves every syllable from its cut on. Both
    paths of the fit lay out their winner here."""
    own = at = moved = 0
    for cut, shift, _ in steps:
        own |= (stresses >> at & (1 << cut - at) - 1) << at + moved
        at, moved = cut, moved + shift
    return own | stresses >> at << at + moved


def _rhythmic(stresses: int) -> bool:
    """The classical template: stress on 6, or on 4 and 8."""
    return bool(stresses & 0b100000) or stresses & 0b10001000 == 0b10001000


def _unfittable(sites, shifting, low, high, target) -> Unfittable:
    """Every achievable length, ``low`` to ``high``, and the three subsets
    nearest the target, ties by mask: the one applying every site whose
    shift is toward the target, that one plus its lowest free sites (those
    not among the ``(cut, shift, i)`` of ``shifting``), then that one with
    one shifting site flipped, a step further."""
    toward = 1 if target > high else -1
    end = high if target > high else low
    best = sum(1 << i for _, shift, i in shifting if shift == toward)
    moving = {i for _, _, i in shifting}
    free = [1 << i for i in range(len(sites)) if i not in moving]
    flipped = sorted(best ^ 1 << i for _, _, i in shifting)
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
    stay unapplied. Mask bit i is ``sites[i]``. A site of a kind other than
    synalepha, syneresis and dieresis raises ValueError, ahead of any
    Unfittable.

    The reachable lengths are read from each site's shift, as the module
    docstring tells: a target out of their range raises Unfittable, and
    more than one subset fits when a site shifts nothing or the target is
    strictly inside it. A site that shifts nothing is cut after the last
    stress, so it is a syneresis or dieresis, whose cost is positive, and
    is never applied. Among the other sites, ``need`` is the shift that
    puts the last stress on group target-2. The cheapest subset is counted
    out from ``_tiers`` of them, the same kinds and flags ``_site_deltas``
    costs: the leftmost ``max(0, need)`` dieresis sites, and as many
    merges as they exceed ``need`` by. The merges are synalephas while
    there are any, the ones left out being the first in drop order, and
    past them the leftmost syneresis sites. Its stresses are laid out by
    ``_place`` from the sites' cuts.

    Without diagnostics, it is the winner at a target other than 11, and
    at 11 when its pattern is rhythmic. Else one DP over the shifting
    sites in cut order ranks every subset. A state is keyed by ``(shift,
    kept)``: the sum of the applied shifts so far, and bit i the stress
    of group i for the kept groups, 3, 5 and 7 for the rhythmic template,
    so there are at most 8 states per shift; ``emit_diagnostics`` keeps
    every bit. It holds only ``(cost, mask)``, the cheapest subset
    reaching it. Before each cut, the line's stresses since the last cut
    are moved by the state's shift and their kept bits ORed in; then the
    site is applied or not. A state that the sites still to come cannot
    bring to ``need`` is dropped. The loop's last step closes it: a step
    at cut ``top + 1`` with no site, which ORs in the last run and applies
    nothing, so every state left is final, with the target as its length.
    The winner, the rhythmic states and the diagnostics are read from
    those states, and the winner's stresses are laid out from its mask by
    ``_place``, as the counted subset's are.
    The costs are ``_site_deltas`` of the shifting sites alone: every
    subset the DP compares is made of them, and a sub-list's costs order
    its subsets as the whole list's do, so leaving the others out changes
    no winner.
    """
    config = config or _DEFAULT_CONFIG
    target = config.target_length
    stresses, lefts = words.stresses, words.lefts
    top = stresses.bit_length() - 1  # the last stressed syllable
    # one pass: check each kind, cut each site where it moves the line (p+1
    # for a merge at p or a split of p that keeps its stress on the left,
    # p for any other split) and keep the sites that shift the last stress
    shifting, down, up, ambiguous = [], 0, 0, False
    for i, (kind, position, _, _) in enumerate(sites):
        shift = _DELTAS.get(kind)
        if shift is None:
            raise ValueError(f"unknown figure kind {kind!r}")
        cut = position + (shift < 0 or lefts >> position & 1)
        if cut > top:
            ambiguous = True  # it shifts nothing
            continue
        shifting.append((cut, shift, i))
        if shift < 0:
            down += 1
        else:
            up += 1
    low, high = top + 2 - down, top + 2 + up
    if not low <= target <= high:
        raise _unfittable(sites, shifting, low, high, target)

    need = target - top - 2  # the shift that puts the last stress on target-2
    # the cheapest subset, counted out: the fewest dieresis sites, then the
    # fewest syneresis sites, and the other merges as synalephas, releasing
    # the first in drop order; each tier takes its leftmost sites
    shifted = [sites[i] for _, _, i in shifting]
    drop, syneresis, dieresis = _tiers(shifted)
    splits = max(0, need)
    fused = max(0, splits - need - len(drop))
    picked = sorted(dieresis[:splits] + syneresis[:fused]
                    + drop[len(drop) + need - splits + fused:])
    own = _place(stresses, sorted([shifting[k] for k in picked]))
    ambiguous = ambiguous or low < target < high
    if not config.emit_diagnostics and (target != 11 or _rhythmic(own)):
        return _result(words, tuple([shifted[k] for k in picked]), own,
                       target, ambiguous)

    # the template tier or diagnostics: rank every subset
    keep = -1 if config.emit_diagnostics else 0b10101000
    # (shift so far, kept stresses) -> (cost, mask)
    states = {(0, 0): (0, 0)}
    at = 0
    # the shifts so far that the sites still to come can bring to need
    lo, hi = need - up, need + down
    # the shifting sites in cut order, costed among themselves
    steps = sorted((cut, shift, 1 << i, added) for (cut, shift, i), added
                   in zip(shifting, _site_deltas(shifted)))
    # the close: a step past the last stress with no site, which brings in
    # the last run and applies nothing
    for cut, shift, bit, added in steps + [(top + 1, 0, 0, 0)]:
        lo, hi = lo + (shift > 0), hi - (shift < 0)
        run = stresses >> at & (1 << cut - at) - 1
        grown: dict[tuple[int, int], tuple[int, int]] = {}
        for (moved, kept), (cost, mask) in states.items():
            kept |= run << at + moved & keep
            if lo <= moved <= hi:  # skip the site
                key = (moved, kept)
                seen = grown.get(key)
                if seen is None or cost < seen[0]:
                    grown[key] = (cost, mask)
            if bit and lo <= moved + shift <= hi:  # apply it
                key = (moved + shift, kept)
                seen = grown.get(key)
                if seen is None or cost + added < seen[0]:
                    grown[key] = (cost + added, mask | bit)
        states, at = grown, cut

    # every state left is final, its last stress on group target-2
    hits = [key for key in states if target == 11 and _rhythmic(key[1])]
    _, mask = min(states[key] for key in hits or states)
    diagnostics = ()
    if config.emit_diagnostics:
        diagnostics = tuple(sorted(_render(kept, target) for _, kept in states))
    own = _place(stresses, [(cut, shift, bit) for cut, shift, bit, _
                            in steps if bit & mask])
    return _result(words, _applied(sites, mask), own, target, ambiguous,
                   diagnostics)


def _result(words, applied, stresses, target, ambiguous,
            diagnostics=()) -> ScansionResult:
    return ScansionResult(check_pattern(_render(stresses, target), target),
                          ScanCandidate(applied, target), ambiguous,
                          tuple([sw.syllables for sw in words]), diagnostics)


def scan_line(line: str, lexicon: StressLexicon | None = None,
              config: ScanConfig | None = None) -> ScansionResult:
    """Raw text in, 11-position stress pattern out."""
    lexicon = lexicon if lexicon is not None else default_lexicon()
    config = config or _DEFAULT_CONFIG
    words = phonological_parse(line, lexicon)
    sites = find_figure_sites(words, config)
    return fit_to_target(words, sites, config)
