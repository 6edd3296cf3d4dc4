"""Independent brute-force re-implementation of candidate semantics.

Used to cross-check the fitter: applies a figure subset to the flat
syllable sequence with plain first-principles code (nothing shared with
the search in escansion.scansion beyond the public site list and the
dieresis split each parsed syllable carries), computes the metrical
length from the last stressed unit and re-derives the selection
preference, so any disagreement flags a real defect.
"""

from escansion.phonology import stressed_syllable_indices


def flat_stresses(words):
    """(syllable text, stressed) pairs with the final word forced tonic."""
    out = []
    for wi, sw in enumerate(words):
        hits = set(stressed_syllable_indices(sw, force=(wi == len(words) - 1)))
        for si, syl in enumerate(sw.syllables):
            out.append((syl, si in hits))
    return out


def apply_subset(words, sites, chosen):
    """Metrical units for one subset of sites, computed naively."""
    flat = flat_stresses(words)
    split_at = {s.position for s in chosen if s.kind == "dieresis"}
    merged = {s.position for s in chosen if s.kind != "dieresis"}
    units = []
    bounds = []  # True when the boundary BEFORE this unit is merged
    for i, (text, stressed) in enumerate(flat):
        if i in split_at:
            pieces = list(words.flat.syllables[i].split)  # only the shape
        else:
            pieces = [(text, stressed)]
        for j, piece in enumerate(pieces):
            bounds.append(j == 0 and i > 0 and (i - 1) in merged)
            units.append(piece)
    groups = []
    for unit, joined in zip(units, bounds):
        if joined and groups:
            groups[-1] = groups[-1] or unit[1]
        else:
            groups.append(unit[1])
    return groups


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


DEFAULT_PREFERENCE = ("synalepha", "syneresis", "dieresis")


def preferred_patterns(results, sites, target,
                       figure_preference=DEFAULT_PREFERENCE,
                       rhythmic_template=True):
    """Patterns surviving the documented preference tiers, best first."""
    feasible = [(m, p) for m, _l, p in results if p is not None]
    if not feasible:
        return []
    pool = feasible
    hits = [fp for fp in pool if fp[1][target - 2] == "+"]
    if hits:
        pool = hits
    if target == 11 and rhythmic_template:
        rhythmic = [fp for fp in pool
                    if fp[1][5] == "+" or (fp[1][3] == "+" and fp[1][7] == "+")]
        if rhythmic:
            pool = rhythmic
    key = preference_key(sites, figure_preference)
    return [p for _, p in sorted(pool, key=lambda item: key(item[0]))]


def preference_key(sites, figure_preference=DEFAULT_PREFERENCE):
    """The sort key of a subset (mask) under the count and tie-break tiers.

    The count tiers run over ``figure_preference`` from its last entry to
    its first; each takes the fewest of its figure, or for synalepha the
    most."""
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
        tiers = tuple(-n[f] if f == "synalepha" else n[f]
                      for f in reversed(figure_preference))
        return tiers + (dropped, merges, splits, mask)

    return key
