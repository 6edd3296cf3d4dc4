"""Orthographic syllabification and stress assignment for Spanish words.

Implements normative RAE syllabification (onset maximization with the
inseparable obstruent+liquid clusters, digraphs ch/ll/rr/qu/gu as units,
diphthong vs hiatus by vowel strength and written accent, transparent 'h')
plus the two stress layers needed for scansion:

* lexical stress: which syllable of the word is strong, counted from the end
  (1 = aguda, 2 = llana, 3 = esdrujula, 4 = sobresdrujula);
* prosodic stress: whether the word keeps that stress in connected speech.
  Closed-class function words (articles, clitics, prepositions, atonic
  conjunctions/relatives, prenominal possessives) do not, and are listed in a
  plain-text lexicon shipped with the package. Homographs such as el/él,
  mas/más, se/sé are told apart purely by the written accent.

The syllabifier decides each syllable's onset, nucleus and coda in one
table-driven pass over the word with its contraction marks (' and -)
removed, so marks decide nothing (nor do they in the stress and synalepha
rules or the lexicon lookup); each goes back into the syllable text with
the letter after it. One regex cuts the word into classed units
(consonant, closed vowel, open or accented vowel, a vowel that always
stands alone, h), a second finds the nuclei in the string of classes, and
the consonant units between two nuclei go to the next onset: the last,
or the last two when they form an inseparable cluster.

A verse repeats its words, so ``analyze_token`` keeps each token's analysis
in a cache owned by the lexicon it was stressed with: the syllabified word
and its one ``Frame``, read from the syllabifier's parts. A frame is what
scansion reads of the word, whatever its place in a line: its own
syneresis and dieresis sites, the vowel sounds and ``h`` at its edges, and
three ints of per-syllable bits (splits keeping the stress in its left
half; stressed as the lexicon says; stressed when forced tonic, as at the
end of a line), so a line's sites and stresses are stitched word by word
instead of walked syllable by syllable. The cache holds at most
``_CACHE_SIZE`` tokens and is emptied when full, so open-ended
vocabularies cost bounded memory. The lexicon's lists are read-only, so a
cached stress cannot go stale.

This module also owns text normalization for scan, ``prepare`` and the
baseline: ``clean_text`` folds a line to lowercase Spanish letters and
marks, and ``normalize_token`` is the same fold applied to one token.
Every text input, the lexicon's included, is cut into numbered lines by
its one reader, ``numbered_lines``, the standard library's UTF-8 text
layer with universal newlines.
"""

from __future__ import annotations

import io
import re
import unicodedata
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from itertools import accumulate
from types import MappingProxyType
from typing import NamedTuple

from .errors import (DataError, EmptyAfterNormalization, MalformedLexicon,
                     NotUtf8, NoVowel)

# Vowel letters. 'ï' is kept because Golden Age editions mark forced
# dieresis with it (vïola, rüido); it always breaks a diphthong, as does
# 'ü' anywhere but after g (güe, güi).
VOWEL_CHARS = set("aeiouáéíóúüï")
ACCENTED = set("áéíóú")
# A vowel pair is a hiatus iff both members are in this set (open vowels
# plus accent-carrying closed vowels). Everything else is a diphthong.
_HIATUS_CORE = set("aeoáéóíú")
# Onset clusters that can never be split.
_CLUSTERS = {"pr", "br", "tr", "dr", "cr", "gr", "fr",
             "pl", "bl", "cl", "gl", "fl"}

_MARKS = "'-"
# Old orthography: ç for modern z, grave accents on atonic particles.
_TRANSLIT = str.maketrans("çàèìòù", "zaeiou")
_KEEP = VOWEL_CHARS | set("bcdfghjklmnñpqrstvwxyz") | set(_MARKS)
# anything but a kept character or a space
_DROP_RE = re.compile("[^" + re.escape("".join(sorted(_KEEP))) + " ]")

# Words ending in "mente" that are not adverbs (nouns, adjectives and
# -mentar verb forms); adverbs in -mente carry two prosodic stresses.
_NOT_MENTE_ADVERB = {
    "mente", "demente", "clemente", "inclemente", "vehemente",
    "alimente", "atormente", "cimente", "complemente", "documente",
    "experimente", "fermente", "fundamente", "implemente", "incremente",
    "instrumente", "ornamente", "pavimente", "pigmente", "reglamente",
    "sedimente",
}

# Tokens whose analyses one lexicon keeps before it empties its cache.
_CACHE_SIZE = 1024


@dataclass(frozen=True)
class Word:
    """A verse token: the raw surface form and its normalized shape."""

    surface: str
    normalized: str

    def __post_init__(self):
        if not self.normalized:
            raise EmptyAfterNormalization(f"empty word from {self.surface!r}")
        bad = set(self.normalized) - _KEEP
        if bad:
            raise ValueError(f"disallowed characters {bad!r} in {self.normalized!r}")
        if not any(c in VOWEL_CHARS or c == "y" for c in self.normalized):
            raise EmptyAfterNormalization(f"no vowel in {self.normalized!r}")


@dataclass(frozen=True)
class SyllabifiedWord:
    """A word cut into syllables, with both stress layers resolved."""

    word: Word
    syllables: tuple[str, ...]
    stress_from_end: int  # 1 aguda, 2 llana, 3 esdrujula, 4 sobresdrujula
    prosodic: bool

    def __post_init__(self):
        if not 1 <= self.stress_from_end <= len(self.syllables):
            raise ValueError(
                f"stress_from_end {self.stress_from_end} out of range for "
                f"{self.syllables!r}")

    @property
    def stressed_index(self) -> int:
        return len(self.syllables) - self.stress_from_end


def clean_text(text: str) -> str:
    """Lowercase and turn all but Spanish letters, ' and - into single
    spaces, so ``a,b`` is two words."""
    text = unicodedata.normalize("NFC", text).lower().translate(_TRANSLIT)
    return " ".join(_DROP_RE.sub(" ", text).split())


def _unmarked(text: str) -> str:
    """``text`` without its contraction marks, which decide nothing."""
    return text.replace("'", "").replace("-", "")


def normalize_token(raw: str) -> Word:
    """Lowercase a token and strip everything that is not a Spanish letter.

    ``clean_text`` with the spaces removed, so characters it drops vanish
    inside the token. Diacritics are preserved; word-internal apostrophes
    and hyphens survive (archaic contractions like d'amor). Raises
    EmptyAfterNormalization when nothing pronounceable remains.
    """
    text = clean_text(raw).replace(" ", "").strip(_MARKS)
    text = re.sub(r"['-]{2,}", lambda m: m.group(0)[0], text)
    if not text:
        raise EmptyAfterNormalization(f"nothing left of token {raw!r}")
    return Word(surface=raw, normalized=text)


# --- syllabification -------------------------------------------------------

# A word's units, one per match, classed by the group that matched:
# 1 consonant: ch, ll, rr, the qu/gu of que/qui/gue/gui, a y before a
# vowel; 2 closed vowel: i, u, y elsewhere, a ü after g (güe, güi);
# 3 open or accented vowel; 4 a vowel that always stands alone: ï, and ü
# elsewhere; 5 h; none: any other character, a consonant.
_VOWELS, _OPEN = ("".join(sorted(s)) for s in (VOWEL_CHARS, _HIATUS_CORE))
_CLOSED = "".join(sorted(VOWEL_CHARS - _HIATUS_CORE - set("üï")))
_UNIT_RE = re.compile(
    f"(ch|ll|rr|[qg]u(?=[eéií])|y(?=[{_VOWELS}]))|([{_CLOSED}y]|(?<=g)ü)"
    f"|([{_OPEN}])|([üï])|(h)|.", re.DOTALL)
_CLASSES = "cciaxh"  # a unit's class letter, by group number (0: none)
# A nucleus: a stand-alone vowel, or closed and open vowels with an
# optional h between any two, never two open vowels in a row.
_NUCLEUS_RE = re.compile("x|[ia](?:h?i|(?<!a)h?a)*")


def _syllabify_plain(word: str) -> list[tuple[str, str, str]]:
    """The (onset, nucleus, coda) of each syllable of a mark-free word.

    Of the consonant units between two nuclei the next onset takes the
    last, or the last two when they form an inseparable cluster."""
    units = list(_UNIT_RE.finditer(word))
    nuclei = [m.span() for m in _NUCLEUS_RE.finditer(
        "".join(_CLASSES[m.lastindex or 0] for m in units))]
    if not nuclei:
        raise NoVowel(f"no syllable nucleus in {word!r}")
    texts = [m.group() for m in units]
    cuts = [0]
    for (_, end), (start, _) in zip(nuclei, nuclei[1:]):
        cons = texts[end:start]
        cuts.append(start - bool(cons) - ("".join(cons[-2:]) in _CLUSTERS))
    cuts.append(len(texts))
    return [("".join(texts[a:start]), "".join(texts[start:end]),
             "".join(texts[end:b]))
            for a, (start, end), b in zip(cuts, nuclei, cuts[1:])]


def _cut(text: str, counts) -> list[str]:
    """``text`` cut after its first n letters, for each n of the ascending
    ``counts``. Marks are not letters: one stays with the letter after it."""
    ends = [i + 1 for i, c in enumerate(text) if c not in _MARKS]
    bounds = [0] + [ends[n - 1] for n in counts] + [len(text)]
    return [text[a:b] for a, b in zip(bounds, bounds[1:])]


def _syllable_parts(normalized: str):
    """The syllables of a normalized word with its marks, and the (onset,
    nucleus, coda) of each without them."""
    parts = _syllabify_plain(_unmarked(normalized))
    ends = accumulate(len(o) + len(n) + len(c) for o, n, c in parts[:-1])
    return _cut(normalized, ends), parts


def syllabify(word: Word | str) -> list[str]:
    """Split a word into syllables; their concatenation is the input."""
    normalized = word.normalized if isinstance(word, Word) else word
    return _syllable_parts(normalized)[0]


def lexical_stress(syllables: list[str] | tuple[str, ...], word: Word | str) -> int:
    """Position of the strong syllable, counted from the end (1-based).

    A written accent wins; otherwise words ending in a vowel, n or s are
    llanas and the rest agudas. Monosyllables are agudas.
    """
    if not syllables:
        raise NoVowel("empty syllable list")
    for idx, syl in enumerate(syllables):
        if any(c in ACCENTED for c in syl):
            return len(syllables) - idx
    if len(syllables) == 1:
        return 1
    normalized = word.normalized if isinstance(word, Word) else word
    last = normalized.rstrip(_MARKS)[-1]
    return 2 if (last in VOWEL_CHARS or last in "ns") else 1


# what an undecodable byte decodes to under errors="surrogateescape"
_SURROGATE_RE = re.compile("[\ud800-\udfff]")


def numbered_lines(path, stream=None):
    r"""(line number from 1, line) pairs of a UTF-8 file, or of ``stream``'s
    bytes named ``path``, decoded one line at a time whatever the locale.
    Lines end at \n, \r or \r\n and come without their end; one that does
    not decode raises NotUtf8 naming its line. The bytes are read as they
    arrive, never whole: a line comes once its end is read, or, ended by
    a lone \r, once the byte after it is. A file opens at the call, so a
    missing one fails before anything else happens, and closes when the
    pairs end, raise or are dropped, read or not; ``stream`` is left
    open."""
    data = open(path, "rb") if stream is None else stream

    def pairs():
        text = io.TextIOWrapper(data, encoding="utf-8",
                                errors="surrogateescape", newline=None)
        try:
            yield  # reached at the call, so that the finally always runs
            for row, line in enumerate(text, 1):
                if _SURROGATE_RE.search(line):
                    raise NotUtf8(f"{path}:{row}: not UTF-8 text")
                yield row, line.removesuffix("\n")
        finally:
            if stream is None:
                text.close()
            else:
                text.detach()
    rows = pairs()
    next(rows)
    return rows


@dataclass(frozen=True)
class StressLexicon:
    """Closed-class words treated as prosodically unstressed, plus overrides."""

    unstressed_words: frozenset[str] = frozenset()
    overrides: Mapping[str, bool] = field(default_factory=dict)
    # raw token -> WordAnalysis under this lexicon, see analyze_token
    _analyses: dict = field(default_factory=dict, init=False,
                            compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "unstressed_words",
                           frozenset(map(_unmarked, self.unstressed_words)))
        object.__setattr__(self, "overrides", MappingProxyType(
            {_unmarked(w): v for w, v in self.overrides.items()}))
        clash = self.unstressed_words & set(self.overrides)
        if clash:
            raise ValueError(f"words in both lists: {sorted(clash)!r}")

    @classmethod
    def load(cls, path) -> "StressLexicon":
        unstressed, overrides = set(), {}
        # unnamed, so an error here drops the reader and closes the file
        for row, text in numbered_lines(path):
            # \x85, \x0c and the like part entries, as in scan, but end no row
            for line in text.splitlines():
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                try:
                    if "\t" in line:
                        word, value = line.split("\t", 1)
                        value = value.strip()
                        if value not in ("stressed", "unstressed"):
                            raise MalformedLexicon(
                                f"override for {word!r} must be "
                                f"stressed|unstressed, got {value!r}")
                        word = _unmarked(normalize_token(word).normalized)
                        overrides[word] = value == "stressed"
                        unstressed.discard(word)
                    else:
                        word = _unmarked(normalize_token(line).normalized)
                        if word not in overrides:
                            unstressed.add(word)
                except DataError as exc:
                    raise MalformedLexicon(f"{path}:{row}: {exc}") from exc
        return cls(frozenset(unstressed), overrides)


@lru_cache(maxsize=1)
def default_lexicon() -> StressLexicon:
    ref = resources.files("escansion.data") / "function_words.txt"
    with resources.as_file(ref) as path:
        return StressLexicon.load(path)


def is_prosodically_stressed(word: Word | str, lexicon: StressLexicon) -> bool:
    """Whether the word keeps its stress; lexicon entries match it with
    its marks removed, so ``d'el`` is ``del``."""
    key = _unmarked(word.normalized if isinstance(word, Word) else word)
    if key in lexicon.overrides:
        return lexicon.overrides[key]
    return key not in lexicon.unstressed_words


def _is_mente_adverb(normalized: str, n_syllables: int) -> bool:
    return (normalized.endswith("mente")
            and len(normalized) >= 8  # stem of 3+ letters
            and n_syllables >= 3
            and normalized not in _NOT_MENTE_ADVERB)


def stressed_syllable_indices(sw: SyllabifiedWord, *, force: bool = False) -> tuple[int, ...]:
    """Indices of syllables that carry prosodic stress.

    Usually a single index (or none for atonic words); adverbs in -mente
    keep the stress of their stem as well as the one on -men-. ``force``
    marks the word stressed regardless of the lexicon, which is how the
    last word of a verse line behaves.
    """
    if not (sw.prosodic or force):
        return ()
    normalized = _unmarked(sw.word.normalized)
    if _is_mente_adverb(normalized, len(sw.syllables)):
        mente_idx = len(sw.syllables) - 2
        stem = sw.syllables[:-2]
        root_idx = len(stem) - lexical_stress(stem, normalized[:-5])
        if root_idx != mente_idx:
            return (root_idx, mente_idx)
        return (mente_idx,)
    return (sw.stressed_index,)


class Frame(NamedTuple):
    """What a word brings to a line, read once from its syllabifier parts:
    its figure sites at word-local positions, the facts at its edges that
    decide a synalepha with a neighbour, and three ints of syllable bits,
    bit i for syllable i. Nothing in it depends on where the word stands:
    the line ORs in the last word's ``tonic`` bits and reads each site's
    stress from its own."""

    size: int  # syllables
    # (kind, position) of each syneresis and dieresis but the tail, in
    # emission order
    sites: tuple[tuple[str, int], ...]
    tail: bool  # the last syllable can split by dieresis
    ends_vowel: bool
    begins_vowel: tuple[bool, bool]  # indexed by h_blocks_synalepha
    h_first: bool
    h_last: bool
    # a two-vowel nucleus led by a strong vowel, which keeps the stress
    # when a dieresis splits it
    peaks: int
    stresses: int  # stressed as the lexicon says
    tonic: int  # stressed when forced tonic, as the last word of a line


class WordAnalysis(NamedTuple):
    """A token's analysis under one lexicon, as ``analyze_token`` caches it."""

    word: SyllabifiedWord
    frame: Frame


def _frame(parts, stresses: int, tonic: int) -> Frame:
    """The ``Frame`` of a word from its syllabifier's (onset, nucleus, coda)
    ``parts`` and its ``stresses`` and ``tonic`` bits.

    A syllable merges with the next by syneresis when only an h, or
    nothing, separates them; it splits by dieresis when its nucleus has two
    vowels, and is a peak when the first of them is strong. A word begins
    in a vowel sound when its onset is empty, or is an h (unless an h
    blocks synalepha) before a vowel that is not a consonantal glide: y,
    ue, ie (hydra, hueso, hielo); it ends in one when its coda is empty, or
    is an h after a vowel other than y."""
    last = len(parts) - 1
    sites, peaks = [], 0
    for i, (_, nucleus, coda) in enumerate(parts):
        if i < last and coda == "" and parts[i + 1][0] in ("", "h"):
            sites.append(("syneresis", i))
        vowels = nucleus.replace("h", "")
        if len(vowels) >= 2:
            sites.append(("dieresis", i))
            peaks |= (vowels[0] in _HIATUS_CORE) << i
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
                 onset[:1] == "h", coda[-1:] == "h", peaks, stresses, tonic)


def analyze_token(raw: str, lexicon: StressLexicon) -> WordAnalysis:
    """normalize + syllabify + stress in one step, cached per lexicon.

    The key is the raw token, which is also the word's ``surface``, so a
    cached analysis is exactly what a fresh one would be.
    """
    cache = lexicon._analyses
    hit = cache.get(raw)
    if hit is None:
        word = normalize_token(raw)
        texts, parts = _syllable_parts(word.normalized)
        sw = SyllabifiedWord(
            word=word,
            syllables=tuple(texts),
            stress_from_end=lexical_stress(texts, word),
            prosodic=is_prosodically_stressed(word, lexicon),
        )
        tonic = sum(1 << i for i in stressed_syllable_indices(sw, force=True))
        hit = WordAnalysis(sw, _frame(parts, tonic if sw.prosodic else 0,
                                      tonic))
        # unlocked: threads that race here store equal analyses, and can
        # overshoot the bound only by their number
        if len(cache) >= _CACHE_SIZE:
            cache.clear()
        cache[raw] = hit
    return hit


def analyze_word(raw: str, lexicon: StressLexicon) -> SyllabifiedWord:
    """normalize + syllabify + stress in one step, cached per lexicon."""
    return analyze_token(raw, lexicon).word
