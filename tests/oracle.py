"""Independent brute-force re-implementation of candidate semantics.

Used to cross-check the fitter: applies a figure subset to the line's
syllables with plain first-principles code (nothing shared with the
search in escansion.scansion beyond the public site list), computes the
metrical length from the last stressed unit and re-derives the selection
preference, so any disagreement flags a real defect. The syllables,
with their stress, hiatus and dieresis flags, are rebuilt here one by
one from each word's (onset, nucleus, coda) parts, cut at the offsets
of ``reference_spans``, the syllabifier as it was before it classed
letters (one regex match per unit), and from its stressed syllables,
which ``stressed_syllable_indices`` finds here from the syllable texts
by the written-accent and last-letter rules. No syllabifier or stress
code of the engine's is used, nor its frames or line stitching, so the
reference checks them all.

``reference_sites`` is the per-syllable site finder the engine used
before it cached each word's sites in the word's frame: one ordered walk
over the line's syllables, testing every word boundary from the words'
spelling. The vowel-sound rules it tests them with live here, read from
the letters at either edge, while the engine reads its word edges from
the syllabifier's parts, so each checks the other.

``reference_frame`` is a word's ``Frame`` as the engine read it before
it read frames from syllable offsets: from the (onset, nucleus, coda)
strings of ``reference_spans`` and the stressed syllables, field by
field.
"""

import re
from typing import NamedTuple

from escansion.errors import NoVowel
from escansion.phonology import Frame

_VOWELS = set("aeiouáéíóúüï")
_ACCENTED = set("áéíóú")
# a vowel that keeps the stress when a dieresis splits its nucleus: an
# open vowel or an accented closed one
_STRONG = set("aeoáéóíú")


# Onset clusters that can never be split.
_CLUSTERS = {"pr", "br", "tr", "dr", "cr", "gr", "fr",
             "pl", "bl", "cl", "gl", "fl"}
# A word's units, one per match, classed by the group that matched:
# 1 consonant: ch, ll, rr, the qu/gu of que/qui/gue/gui, a y before a
# vowel; 2 closed vowel: i, u, y elsewhere, a ü after g (güe, güi);
# 3 open or accented vowel; 4 a vowel that always stands alone: ï, and ü
# elsewhere; 5 h; 6 any other character, a consonant.
_UNIT_RE = re.compile(
    "(ch|ll|rr|[qg]u(?=[eéií])|y(?=[aeiouáéíóúüï]))|([iuy]|(?<=g)ü)"
    "|([aeoáéíóú])|([üï])|(h)|(.)", re.DOTALL)
_CLASSES = " ciaxhc"  # a unit's class letter, by group number
# A nucleus: a stand-alone vowel, or closed and open vowels with an
# optional h between any two, never two open vowels in a row.
_NUCLEUS_RE = re.compile("x|[ia](?:h?i|(?<!a)h?a)*")


def reference_spans(word: str) -> list[tuple[int, int, int, int]]:
    """The (start, nucleus start, nucleus end, end) offsets of each
    syllable of a mark-free word, as the engine cut it before it classed
    letters: one regex match per unit, the nuclei found in the string of
    unit classes and mapped back to letters through each unit's start.

    Of the consonant units between two nuclei the next onset takes the
    last, or the last two when they form an inseparable cluster. A
    cluster is two one-letter consonant units, and no letter of a
    nucleus or of a two-letter unit can begin one, so it is read as the
    two letters before the nucleus."""
    units = list(_UNIT_RE.finditer(word))
    nuclei = [m.span() for m in _NUCLEUS_RE.finditer(
        "".join([_CLASSES[m.lastindex] for m in units]))]
    if not nuclei:
        raise NoVowel(f"no syllable nucleus in {word!r}")
    starts = [m.start() for m in units]
    starts.append(len(word))
    spans, a = [], 0
    start, end = nuclei[0]
    for next_start, next_end in nuclei[1:]:
        at = starts[next_start]
        b = starts[next_start - (next_start > end)
                   - (word[at - 2:at] in _CLUSTERS)]
        spans.append((a, starts[start], starts[end], b))
        a, start, end = b, next_start, next_end
    spans.append((a, starts[start], starts[end], len(word)))
    return spans


def _parts(sw) -> list[tuple[str, str, str]]:
    """The (onset, nucleus, coda) of each syllable of a word, cut from its
    mark-free spelling at the ``reference_spans``."""
    plain = _plain(sw)
    return [(plain[a:s], plain[s:e], plain[e:b])
            for a, s, e, b in reference_spans(plain)]


def _plain(sw) -> str:
    """A word's normalized spelling without its contraction marks."""
    return sw.word.normalized.replace("'", "").replace("-", "")


def ends_in_vowel_sound(plain: str) -> bool:
    """A vowel or y last, or an h after a vowel (not after y: ayh)."""
    c = plain[-1]
    return c in _VOWELS or c == "y" or c == "h" and plain[-2] in _VOWELS


def begins_with_vowel_sound(plain: str, h_blocks: bool) -> bool:
    """A vowel first; a y alone or before a consonant (y, ytal); or, unless
    an h blocks synalepha, an h before a vowel that is no consonantal
    glide (not hydra, hueso, hielo)."""
    c, rest = plain[0], plain[1:]
    if c in _VOWELS:
        return True
    if c == "y":
        return rest[:1] not in _VOWELS
    return (c == "h" and not h_blocks and rest[:1] in _VOWELS
            and rest[:2] not in ("ue", "ie"))


# Words ending in "mente" that are not adverbs, as the engine lists them;
# an adverb in -mente keeps the stress of its stem as well as the one on
# -men-.
_NOT_MENTE_ADVERB = {
    "mente", "demente", "clemente", "inclemente", "vehemente",
    "alimente", "atormente", "cimente", "complemente", "documente",
    "experimente", "fermente", "fundamente", "implemente", "incremente",
    "instrumente", "ornamente", "pavimente", "pigmente", "reglamente",
    "sedimente",
}


def _strong(syllables) -> int:
    """The index of the strong syllable of these syllable texts: the first
    with a written accent; else the next to last when the last letter is
    a vowel, n or s, and the last otherwise (a monosyllable's one)."""
    for i, syllable in enumerate(syllables):
        if not _ACCENTED.isdisjoint(syllable):
            return i
    last = syllables[-1][-1]
    return len(syllables) - (2 if len(syllables) > 1 and (
        last in _VOWELS or last in "ns") else 1)


def stressed_syllable_indices(sw, force=False) -> tuple[int, ...]:
    """Indices of the syllables of ``sw`` that carry prosodic stress: none
    when the lexicon makes the word atonic, unless ``force`` makes it
    tonic as the last word of a line; else the strong syllable, and for
    an adverb in -mente (a stem of three letters or more, three syllables
    or more) the stem's strong syllable and -men-."""
    if not (sw.prosodic or force):
        return ()
    syllables, plain = sw.syllables, _plain(sw)
    if (plain.endswith("mente") and len(plain) >= 8 and len(syllables) >= 3
            and plain not in _NOT_MENTE_ADVERB):
        return (_strong(syllables[:-2]), len(syllables) - 2)
    return (_strong(syllables),)


class Syllable(NamedTuple):
    stressed: bool
    # only an h, or nothing, separates it from the previous syllable of its
    # word: the two can merge by syneresis
    hiatus: bool
    # (left stressed, right stressed) after a dieresis split, or None for
    # single-vowel nuclei
    split: tuple[bool, bool] | None


def word_syllables(sw, *, tonic=False):
    """The ``Syllable``s of one word, forced tonic if ``tonic``."""
    hits = stressed_syllable_indices(sw, force=tonic)
    parts = _parts(sw)
    out = []
    for i, (onset, nucleus, _) in enumerate(parts):
        stressed = i in hits
        hiatus = i > 0 and parts[i - 1][2] == "" and onset in ("", "h")
        vowels = [c for c in nucleus if c != "h"]
        split = None
        if len(vowels) > 1:
            left = stressed and vowels[0] in _STRONG
            split = (left, stressed and not left)
        out.append(Syllable(stressed, hiatus, split))
    return out


def _bits(indices) -> int:
    return sum(1 << i for i in indices)


def reference_frame(sw) -> Frame:
    """A word's ``Frame``, read from its (onset, nucleus, coda) strings:
    a syneresis where a syllable with no coda meets an onset of nothing
    or h; a dieresis, and a peak when its first vowel is strong, where a
    nucleus has two vowels; the edges from the first onset and nucleus
    and the last nucleus and coda."""
    parts = _parts(sw)
    last = len(parts) - 1
    sites, peaks = [], 0
    for i, (_, nucleus, coda) in enumerate(parts):
        if i < last and coda == "" and parts[i + 1][0] in ("", "h"):
            sites.append(("syneresis", i))
        vowels = nucleus.replace("h", "")
        if len(vowels) >= 2:
            sites.append(("dieresis", i))
            peaks |= (vowels[0] in _STRONG) << i
    tail = sites[-1:] == [("dieresis", last)]
    if tail:
        sites.pop()
    onset, nucleus, _ = parts[0]
    _, final, coda = parts[-1]
    h_begins = (onset == "h" and nucleus[0] != "y"
                and nucleus[:2] not in ("ue", "ie"))
    return Frame(last + 1, tuple(sites), tail,
                 coda == "" or coda == "h" and final[-1] != "y",
                 (onset == "" or h_begins, onset == ""),
                 onset[:1] == "h", coda[-1:] == "h", peaks,
                 _bits(stressed_syllable_indices(sw)),
                 _bits(stressed_syllable_indices(sw, force=True)))


def line_syllables(words):
    """The ``Syllable``s of a parsed line in order, the last word tonic."""
    out = []
    for wi, sw in enumerate(words):
        out.extend(word_syllables(sw, tonic=wi == len(words) - 1))
    return out


def apply_subset(words, sites, chosen):
    """Metrical units for one subset of sites, computed naively."""
    flat = line_syllables(words)
    split_at = {s.position for s in chosen if s.kind == "dieresis"}
    merged = {s.position for s in chosen if s.kind != "dieresis"}
    units = []  # the stress of each unit
    bounds = []  # True when the boundary BEFORE this unit is merged
    for i, syl in enumerate(flat):
        # a split syllable is two units, each with its stress flag
        pieces = syl.split if i in split_at else (syl.stressed,)
        for j, stressed in enumerate(pieces):
            bounds.append(j == 0 and i > 0 and (i - 1) in merged)
            units.append(stressed)
    groups = []
    for stressed, joined in zip(units, bounds):
        if joined and groups:
            groups[-1] = groups[-1] or stressed
        else:
            groups.append(stressed)
    return groups


def reference_sites(words, h_blocks):
    """Every applicable figure as (kind, position, involves_stress,
    through_h), ordered by position and then synalepha/syneresis before
    dieresis, found syllable by syllable."""
    flat = line_syllables(words)
    starts = [0]
    for sw in words:
        starts.append(starts[-1] + len(sw.syllables))
    sites = []
    for wi, (start, end) in enumerate(zip(starts, starts[1:])):
        for i in range(start, end):
            if i + 1 < end:
                if flat[i + 1].hiatus:
                    sites.append(("syneresis", i, flat[i].stressed
                                  or flat[i + 1].stressed, False))
            elif wi + 1 < len(words):
                left, right = _plain(words[wi]), _plain(words[wi + 1])
                if ends_in_vowel_sound(left) and begins_with_vowel_sound(
                        right, h_blocks):
                    sites.append(("synalepha", i, flat[i].stressed
                                  or flat[i + 1].stressed,
                                  right[0] == "h" or left[-1] == "h"))
            if flat[i].split is not None:
                sites.append(("dieresis", i, flat[i].stressed, False))
    return sites


def length_and_pattern(groups):
    stressed = [i for i, s in enumerate(groups) if s]
    if not stressed:
        return None, None
    last = stressed[-1]
    return last + 2, "".join("+" if s else "-" for s in groups[:last + 1]) + "-"


def chosen(sites, mask):
    """The sites of a subset, in order: mask bit i is ``sites[i]``."""
    return tuple(s for i, s in enumerate(sites) if mask >> i & 1)


def enumerate_all(words, sites, target):
    """Every subset with its length; feasible ones carry their pattern."""
    results = []
    for mask in range(1 << len(sites)):
        groups = apply_subset(words, sites, chosen(sites, mask))
        length, pattern = length_and_pattern(groups)
        results.append((mask, length, pattern if length == target else None))
    return results


def preferred(results, sites, target):
    """(mask, pattern) of the subsets surviving the documented preference
    tiers, best first: the first mask is the winner, whose sites the
    fitter applies."""
    feasible = [(m, p) for m, _l, p in results if p is not None]
    if not feasible:
        return []
    pool = feasible
    hits = [fp for fp in pool if fp[1][target - 2] == "+"]
    if hits:
        pool = hits
    if target == 11:
        rhythmic = [fp for fp in pool
                    if fp[1][5] == "+" or (fp[1][3] == "+" and fp[1][7] == "+")]
        if rhythmic:
            pool = rhythmic
    key = preference_key(sites)
    return sorted(pool, key=lambda item: key(item[0]))


def preference_key(sites):
    """The sort key of a subset (mask) under the count and tie-break tiers:
    fewest dieresis, then fewest syneresis, then most synalephas."""
    syna = [i for i, s in enumerate(sites) if s.kind == "synalepha"]
    early = [i for i in syna if sites[i].involves_stress or sites[i].through_h]
    ranks = {idx: r for r, idx in enumerate(
        early + [i for i in syna if i not in early])}

    def key(mask):
        n = {"synalepha": 0, "syneresis": 0, "dieresis": 0}
        for i, s in enumerate(sites):
            if mask >> i & 1:
                n[s.kind] += 1
        dropped = tuple(sorted(ranks[i] for i in ranks if not mask >> i & 1))
        merges = tuple(s.position for i, s in enumerate(sites)
                       if mask >> i & 1 and s.kind == "syneresis")
        splits = tuple(s.position for i, s in enumerate(sites)
                       if mask >> i & 1 and s.kind == "dieresis")
        return (n["dieresis"], n["syneresis"], -n["synalepha"],
                dropped, merges, splits, mask)

    return key


# --- the ranking reference ---------------------------------------------------

_SHIFTS = {"synalepha": -1, "syneresis": -1, "dieresis": +1}


def _reference_deltas(sites):
    """Per site, what applying it adds to a subset's cost: one bit field
    per tier, from the top the dieresis, syneresis and synalepha counts,
    then one tie bit per site, ranked by the synalephas in drop order
    (those touching a stress or an h first), the syneresis sites, then the
    dieresis sites. A synalepha costs when left out; the tie bits sum over
    the applied synalephas and the syneresis and dieresis sites left out."""
    n = len(sites)
    syna = [i for i, s in enumerate(sites) if s.kind == "synalepha"]
    early = [i for i in syna if sites[i].involves_stress or sites[i].through_h]
    drop = early + [i for i in syna if i not in early]
    syneresis = [i for i, s in enumerate(sites) if s.kind == "syneresis"]
    dieresis = [i for i, s in enumerate(sites) if s.kind == "dieresis"]
    width = n.bit_length()
    deltas = [0] * n
    tie = 1 << n
    for i in drop:
        tie >>= 1
        deltas[i] = tie - (1 << n)
    for count, tier in ((1 << n + width, syneresis),
                        (1 << n + 2 * width, dieresis)):
        for i in tier:
            tie >>= 1
            deltas[i] = count - tie
    return deltas


def reference_fit(words, sites, target=11):
    """The fitter's winner by ranking, as ``(pattern, applied sites,
    ambiguous)``, or None when no subset reaches ``target``.

    One dynamic program over the sites that shift the last stress, in cut
    order, ranks every subset: a state is the shift so far and, at 11, the
    stresses placed on groups 3, 5 and 7, which the rhythmic template reads,
    and holds the ``(cost, mask)`` of the cheapest subset reaching it. The
    winner is the cheapest final state, among the rhythmic ones when any
    is. It shares no code with the fitter's counting; its pattern is
    rebuilt from the applied sites by ``apply_subset``."""
    stresses, lefts = words.stresses, words.lefts
    top = stresses.bit_length() - 1
    shifting, ambiguous = [], False
    for i, site in enumerate(sites):
        shift = _SHIFTS[site.kind]
        cut = site.position + (shift < 0 or lefts >> site.position & 1)
        if cut > top:
            ambiguous = True
        else:
            shifting.append((cut, shift, i))
    down = sum(shift < 0 for _, shift, _ in shifting)
    up = len(shifting) - down
    if not -down <= target - top - 2 <= up:
        return None
    need = target - top - 2
    keep = 0b10101000 if target == 11 else 0
    deltas = _reference_deltas([sites[i] for _, _, i in shifting])
    steps = sorted((cut, shift, 1 << i, added) for (cut, shift, i), added
                   in zip(shifting, deltas))
    states = {(0, 0): (0, 0)}
    at, lo, hi = 0, need - up, need + down
    for cut, shift, bit, added in steps + [(top + 1, 0, 0, 0)]:
        lo, hi = lo + (shift > 0), hi - (shift < 0)
        run = stresses >> at & (1 << cut - at) - 1
        grown = {}
        for (moved, kept), (cost, mask) in states.items():
            kept |= run << at + moved & keep
            options = [(moved, cost, mask)]
            if bit:
                options.append((moved + shift, cost + added, mask | bit))
            for moved_to, cost_to, mask_to in options:
                key = (moved_to, kept)
                if lo <= moved_to <= hi and (key not in grown
                                             or cost_to < grown[key][0]):
                    grown[key] = (cost_to, mask_to)
        states, at = grown, cut
    hits = [key for key in states if target == 11 and (
        key[1] & 0b100000 or key[1] & 0b10001000 == 0b10001000)]
    _, mask = min(states[key] for key in hits or states)
    applied = chosen(sites, mask)
    _, pattern = length_and_pattern(apply_subset(words, sites, applied))
    low, high = top + 2 - down, top + 2 + up
    return pattern, applied, ambiguous or low < target < high
