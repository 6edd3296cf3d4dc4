"""Independent brute-force re-implementation of candidate semantics.

Used to cross-check the fitter: applies a figure subset to the line's
syllables with plain first-principles code (nothing shared with the
search in escansion.scansion beyond the public site list), computes the
metrical length from the last stressed unit and re-derives the selection
preference, so any disagreement flags a real defect. The syllables,
with their stress, hiatus and dieresis flags, are rebuilt here one by
one from what the engine's word analysis starts from: each word's
syllabifier parts (``_syllabify_plain``) and its stressed syllables
(``stressed_syllable_indices``). Nothing of the engine's frames or line
stitching is used, so the reference checks them.

``reference_sites`` is the per-syllable site finder the engine used
before it cached each word's sites in the word's frame: one ordered walk
over the line's syllables, testing every word boundary from the words'
spelling. The vowel-sound rules it tests them with live here, read from
the letters at either edge, while the engine reads its word edges from
the syllabifier's parts, so each checks the other.
"""

from typing import NamedTuple

from escansion.phonology import _syllabify_plain, stressed_syllable_indices

_VOWELS = set("aeiouáéíóúüï")
# a vowel that keeps the stress when a dieresis splits its nucleus: an
# open vowel or an accented closed one
_STRONG = set("aeoáéóíú")


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
    parts = _syllabify_plain(_plain(sw))
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


def enumerate_all(words, sites, target):
    """Every subset with its length; feasible ones carry their pattern."""
    results = []
    for mask in range(1 << len(sites)):
        chosen = [s for i, s in enumerate(sites) if mask >> i & 1]
        length, pattern = length_and_pattern(apply_subset(words, sites, chosen))
        results.append((mask, length, pattern if length == target else None))
    return results


def preferred_patterns(results, sites, target):
    """Patterns surviving the documented preference tiers, best first."""
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
    return [p for _, p in sorted(pool, key=lambda item: key(item[0]))]


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
