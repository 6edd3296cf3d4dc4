"""Orthographic syllabification and stress assignment for Spanish words.

Implements normative RAE syllabification (onset maximization with the
inseparable obstruent+liquid clusters, digraphs ch/ll/rr/qu/gu as units,
diphthong vs hiatus by vowel strength and written accent, transparent 'h')
plus the two stress layers needed for scansion:

* lexical stress: which syllable of the word is strong (an adverb in -mente
  has two: its stem's and -men-);
* prosodic stress: whether the word keeps that stress in connected speech.
  Closed-class function words (articles, clitics, prepositions, atonic
  conjunctions/relatives, prenominal possessives) do not, and are listed in a
  plain-text lexicon shipped with the package. Homographs such as el/él,
  mas/más, se/sé are told apart purely by the written accent.

The syllabifier decides each syllable's onset, nucleus and coda in one
table-driven pass over the word with its contraction marks (' and -)
removed, so marks decide nothing (nor do they in the stress and synalepha
rules or the lexicon lookup). One ``str.translate`` gives each letter of
the word its class (consonant, closed vowel, open or accented vowel, a
vowel that always stands alone, h), after a few guarded fix-ups for the
letters whose class depends on a neighbour: the second letter of ch,
ll, rr and of the qu, gu of que, qui, gue, gui is marked as the tail of
a two-letter consonant, a y before a vowel is a consonant and a ü after
g a closed vowel. A regex finds the nuclei in that class string, so its
offsets are letter offsets, and of the consonants between two nuclei
the next onset takes the last: one letter, or two when they are a
two-letter consonant or an inseparable cluster. Each syllable is cut at
those offsets, as the spans (start, nucleus start, nucleus end, end) of
the mark-free word, and its text is a slice of that word; only a word
with a mark is cut again, so that each mark goes back into the syllable
text with the letter after it. The same pass over the nuclei notes what
the word's frame reads of them: its sites, peaks and first written
accent.

A verse repeats its words, so ``analyze_word`` keeps each token's one
record, a ``SyllabifiedWord``, in an ``lru_cache`` keyed by the token and
the lexicon it was stressed with: the word, its syllable texts and its
``Frame``, read from that pass and the mark-free word. A frame is what
scansion reads of the word, whatever its place in a line: its own
syneresis and dieresis sites, the vowel sounds and ``h`` at its edges,
and three ints of per-syllable bits (splits keeping the stress in its
left half; stressed as the lexicon says; stressed when forced tonic, as
at the end of a line), so a line's sites and stresses are stitched word
by word instead of walked syllable by syllable. The word's stress is
found in the same pass that reads its sites, and stored there and only
there: the tonic bits always hold its lexical stress (and
the stem's, for an adverb in -mente), and the lexicon's bits are those
or none, so the word is prosodically stressed exactly when they are
not 0. The cache holds at most ``_CACHE_SIZE`` analyses across all
lexicons and evicts the least recently used first, so open-ended
vocabularies cost bounded memory. A lexicon is hashed by identity and
holds only a frozenset and a read-only mapping, so a cached stress cannot
go stale. ``Word`` and ``SyllabifiedWord`` are named tuples with no
checks of their own: text is checked where it enters, in
``normalize_token``, ``syllabify`` and ``is_prosodically_stressed``,
and a value that is not a string raises DataError there. The last two
fold a string through ``normalize_token`` first, as ``analyze_word``
folds a token, so ``Amor`` is ``amor``.

This module also owns text normalization for scan, ``prepare`` and the
baseline: ``clean_text`` folds a line and turns all but Spanish letters
and the marks ' and - into spaces; ``normalize_token`` folds one token
alike but deletes those characters, then strips the marks at its edges,
keeps the first mark of a run and refuses a token with no vowel.
Every text input, the lexicon's included, is cut into numbered lines by
its one reader, ``numbered_lines``, the standard library's UTF-8 text
layer with universal newlines.
"""

from __future__ import annotations

import io
import re
import unicodedata
from collections.abc import Iterable, Mapping
from functools import lru_cache
from importlib import resources
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
_OLD_LETTERS = frozenset(map(chr, _TRANSLIT))
_KEEP = VOWEL_CHARS | set("bcdfghjklmnñpqrstvwxyz") | set(_MARKS)
_KEPT = re.escape("".join(sorted(_KEEP)))
# anything but a kept character or a space
_DROP_RE = re.compile(f"[^{_KEPT} ]")
# anything but a kept character
_DROP_TOKEN_RE = re.compile(f"[^{_KEPT}]")
# a run of two or more marks, which keeps only its first
_MARK_RUN_RE = re.compile(r"(['-])['-]+")

# Words ending in "mente" that are not adverbs (nouns, adjectives and
# -mentar verb forms); adverbs in -mente carry two prosodic stresses.
_NOT_MENTE_ADVERB = {
    "mente", "demente", "clemente", "inclemente", "vehemente",
    "alimente", "atormente", "cimente", "complemente", "documente",
    "experimente", "fermente", "fundamente", "implemente", "incremente",
    "instrumente", "ornamente", "pavimente", "pigmente", "reglamente",
    "sedimente",
}

# Analyses the word cache keeps, across all lexicons; the least recently
# used goes first.
_CACHE_SIZE = 1024


class Word(NamedTuple):
    """A verse token: the raw surface form and its normalized shape."""

    surface: str
    normalized: str


def _fold(text: str) -> str:
    """NFC, lowercase, and old letters as modern ones (translated only
    when there is one: most words have none)."""
    text = unicodedata.normalize("NFC", text).lower()
    if _OLD_LETTERS.isdisjoint(text):
        return text
    return text.translate(_TRANSLIT)


def clean_text(text: str) -> str:
    """Lowercase and turn all but Spanish letters, ' and - into single
    spaces, so ``a,b`` is two words. A ``text`` that is not a string
    raises DataError."""
    if not isinstance(text, str):
        raise DataError(f"text must be a string, not {text!r}")
    return " ".join(_DROP_RE.sub(" ", _fold(text)).split())


def _unmarked(text: str) -> str:
    """``text`` without its contraction marks, which decide nothing."""
    return text.replace("'", "").replace("-", "")


def normalize_token(raw: str) -> Word:
    """A token's normalized form: the fold of ``clean_text``, with what it
    turns into spaces deleted, the marks ' and - at the edges stripped and
    a run of marks cut to its first: ``a,b`` is ``ab``, ``d''amor`` is
    ``d'amor``, ``--hola''`` is ``hola``. Diacritics are preserved. Raises
    EmptyAfterNormalization when nothing remains, or no vowel (y counts),
    and DataError for a token that is not a string.
    """
    if not isinstance(raw, str):
        raise DataError(f"token must be a string, not {raw!r}")
    text = _DROP_TOKEN_RE.sub("", _fold(raw)).strip(_MARKS)
    if "'" in text or "-" in text:
        text = _MARK_RUN_RE.sub(r"\1", text)
    if not text:
        raise EmptyAfterNormalization(f"nothing left of token {raw!r}")
    if VOWEL_CHARS.isdisjoint(text) and "y" not in text:
        raise EmptyAfterNormalization(f"no vowel in {text!r}")
    return Word(raw, text)


# --- syllabification -------------------------------------------------------

# A letter's class, as the nucleus regex reads it: c consonant, i closed
# vowel (i, u, y), a open or accented vowel, x a vowel that always stands
# alone (ï, and ü but after g), h; "-", which no mark-free word holds,
# is left as it is, for the second letter of a two-letter consonant.
_CLASS_OF = str.maketrans({letter: cls for cls, letters in (
    ("c", "bcdfgjklmnñpqrstvwxz"), ("i", "iuy"), ("a", "aeoáéíóú"),
    ("x", "üï"), ("h", "h")) for letter in letters})
# the u of que, qui, gue, gui, which is silent
_SILENT_U_RE = re.compile("(?<=[qg])u(?=[eéií])")
# a y before a vowel, which is a consonant
_ONSET_Y_RE = re.compile(f"y(?=[{''.join(sorted(VOWEL_CHARS))}])")
# A nucleus: a stand-alone vowel, or closed and open vowels with an
# optional h between any two, never two open vowels in a row. So a
# nucleus begins and ends in a vowel and has two vowels exactly when it
# has two letters.
_NUCLEUS_RE = re.compile("x|[ia](?:h?i|(?<!a)h?a)*")


def _classes(word: str) -> str:
    """A mark-free word's letters as their classes, one for one. One
    translate classes each letter by itself; first, each fix-up that the
    word needs rewrites the letters whose class depends on a neighbour:
    the second letter of ch, ll, rr and of the qu, gu of que, qui, gue,
    gui becomes "-", a y before a vowel a consonant (j) and a ü after g a
    closed vowel (u). Pairs are read from the left, as in allla: all-la."""
    if "ch" in word:
        word = word.replace("ch", "c-")
    if "ll" in word:
        word = word.replace("ll", "l-")
    if "rr" in word:
        word = word.replace("rr", "r-")
    if "qu" in word or "gu" in word:
        word = _SILENT_U_RE.sub("-", word)
    if "y" in word:
        word = _ONSET_Y_RE.sub("j", word)
    if "gü" in word:
        word = word.replace("gü", "gu")
    return word.translate(_CLASS_OF)


def _walk(word: str):
    """One pass over the nuclei of a mark-free word: the (start, nucleus
    start, nucleus end, end) offsets of each syllable, and what its
    ``_frame`` reads on the way: the syneresis and dieresis sites in
    emission order, but the last syllable's dieresis; the peaks; and the
    first syllable with a written accent, or -1.

    The nucleus regex runs over the word's ``_classes``, so its offsets
    are letter offsets. Of the consonants between two nuclei the next
    onset takes the last: one letter, or two when it is ch, ll, rr, qu or
    gu, whose second letter is classed "-", or when the two letters
    before the nucleus form an inseparable cluster. A syllable merges
    with the next by syneresis when only an h, or nothing, separates
    their nuclei; it splits by dieresis when its nucleus has two vowels,
    and is a peak when the first of them is strong."""
    classes = _classes(word)
    spans, sites, peaks, accent = [], [], 0, -1
    a = start = end = 0
    for i, m in enumerate(_NUCLEUS_RE.finditer(classes)):
        next_start, next_end = m.span()
        if i:  # syllable i - 1 ends where the onset of this nucleus begins
            b = next_start
            if b > end:
                b -= 1 + (classes[b - 1] == "-" or word[b - 2:b] in _CLUSTERS)
            if word[end:next_start] in ("", "h"):
                sites.append(("syneresis", i - 1))
            if end - start >= 2:
                sites.append(("dieresis", i - 1))
            spans.append((a, start, end, b))
            a = b
        start, end = next_start, next_end
        if end - start >= 2:
            peaks |= (word[start] in _HIATUS_CORE) << i
        if accent < 0 and not ACCENTED.isdisjoint(word[start:end]):
            accent = i
    if not end:  # a nucleus ends past offset 0, so there was none
        raise NoVowel(f"no syllable nucleus in {word!r}")
    spans.append((a, start, end, len(word)))
    return spans, sites, peaks, accent


def _spans(word: str) -> list[tuple[int, int, int, int]]:
    """The (start, nucleus start, nucleus end, end) offsets of each
    syllable of a mark-free word, as ``_walk`` reads them."""
    return _walk(word)[0]


def _syllabify_plain(word: str) -> list[tuple[str, str, str]]:
    """The (onset, nucleus, coda) of each syllable of a mark-free word."""
    return [(word[a:s], word[s:e], word[e:b]) for a, s, e, b in _spans(word)]


def _cut(text: str, counts) -> list[str]:
    """``text`` cut after its first n letters, for each n of the ascending
    ``counts``. Marks are not letters: one stays with the letter after it."""
    ends = [i + 1 for i, c in enumerate(text) if c not in _MARKS]
    bounds = [0] + [ends[n - 1] for n in counts] + [len(text)]
    return [text[a:b] for a, b in zip(bounds, bounds[1:])]


def _syllable_parts(normalized: str):
    """The syllables of a normalized word with its marks, the word without
    them and the ``_walk`` of that word."""
    plain = _unmarked(normalized)
    walk = _walk(plain)
    spans = walk[0]
    if plain != normalized:
        return _cut(normalized, [b for *_, b in spans[:-1]]), plain, walk
    return [plain[a:b] for a, _, _, b in spans], plain, walk


def _text(word: Word | str) -> str:
    """The normalized text of a ``Word``, or of a string, which
    ``normalize_token`` folds as it folds a token of a line; anything else
    raises DataError."""
    if isinstance(word, Word):
        return word.normalized
    if isinstance(word, str):
        return normalize_token(word).normalized
    raise DataError(f"word must be a Word or a string, not {word!r}")


def syllabify(word: Word | str) -> list[str]:
    """Split a word into syllables; they concatenate to its normalized
    form, so ``Amor`` gives ``a-mor``. A string with nothing to scan
    raises EmptyAfterNormalization, as ``normalize_token`` does."""
    return _syllable_parts(_text(word))[0]


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


class StressLexicon:
    """Closed-class words treated as prosodically unstressed, plus overrides:
    a frozenset and a read-only copy of the caller's mapping, both without
    contraction marks. Every word is a string, ``unstressed_words`` is a
    collection of them and not one string or bytes, ``overrides`` is a
    mapping, an override is a bool, and a word may not sit in both; each
    fault raises MalformedLexicon."""

    __slots__ = ("unstressed_words", "overrides")

    def __init__(self, unstressed_words=frozenset(),
                 overrides=MappingProxyType({})):
        if (isinstance(unstressed_words, (str, bytes))
                or not isinstance(unstressed_words, Iterable)):
            raise MalformedLexicon(f"unstressed_words must be a collection "
                                   f"of words, not {unstressed_words!r}")
        if not isinstance(overrides, Mapping):
            raise MalformedLexicon(f"overrides must be a mapping of words "
                                   f"to bools, not {overrides!r}")
        unstressed_words = list(unstressed_words)
        for word in unstressed_words + list(overrides):
            if not isinstance(word, str):
                raise MalformedLexicon(
                    f"a lexicon word must be a string, not {word!r}")
        for word, value in overrides.items():
            if not isinstance(value, bool):
                raise MalformedLexicon(f"override for {word!r} must be a "
                                       f"bool, not {value!r}")
        self.unstressed_words = frozenset(map(_unmarked, unstressed_words))
        self.overrides = MappingProxyType(
            {_unmarked(w): v for w, v in overrides.items()})
        clash = self.unstressed_words & set(self.overrides)
        if clash:
            raise MalformedLexicon(f"words in both lists: {sorted(clash)!r}")

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
    """Whether the word keeps its stress; a string is normalized first,
    and lexicon entries match the word with its marks removed, so ``La``
    is ``la`` and ``d'el`` is ``del``. A word that is neither a ``Word``
    nor a string, and a lexicon that is not a ``StressLexicon``, raise
    DataError."""
    return _keeps_stress(_unmarked(_text(word)), lexicon)


def _keeps_stress(plain: str, lexicon: StressLexicon) -> bool:
    """Whether the mark-free word ``plain`` keeps its stress; a lexicon
    that is not a ``StressLexicon`` raises DataError. ``analyze_word``
    calls it in its cached body, so only a miss pays for the check."""
    if not isinstance(lexicon, StressLexicon):
        raise DataError(f"lexicon must be a StressLexicon, not {lexicon!r}")
    if plain in lexicon.overrides:
        return lexicon.overrides[plain]
    return plain not in lexicon.unstressed_words


class Frame(NamedTuple):
    """What a word brings to a line, read once from its syllables' spans:
    its figure sites at word-local positions, the facts at its edges that
    decide a synalepha with a neighbour, and three ints of syllable bits,
    bit i for syllable i, the stress among them, found in the same walk.
    Nothing in it depends on where the word stands: the line ORs in the
    last word's ``tonic`` bits and reads each site's stress from its own."""

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
    stresses: int  # stressed as the lexicon says: ``tonic``, or 0
    tonic: int  # stressed when forced tonic, as the last word of a line


class SyllabifiedWord(NamedTuple):
    """A word cut into syllables, and its ``Frame``, which holds its
    stress: the one record ``analyze_word`` caches per token and
    lexicon."""

    word: Word
    syllables: tuple[str, ...]
    frame: Frame

    @property
    def prosodic(self) -> bool:
        """Whether the word keeps its stress in connected speech."""
        return self.frame.stresses != 0


def _strong(accent: int, size: int, last: str) -> int:
    """The index of the strong syllable of ``size`` syllables ending in the
    letter ``last``: the ``accent``ed one, unless that is -1; else the
    next-to-last after a vowel, n or s, and the last after anything else
    or when alone."""
    if accent >= 0:
        return accent
    return size - 1 - (size > 1 and (last in VOWEL_CHARS or last in "ns"))


def _frame(word: str, walk, keeps: bool) -> Frame:
    """The ``Frame`` of a mark-free word from its ``_walk``, stressed as
    the lexicon says when it ``keeps`` its stress.

    The last syllable splits by dieresis when its nucleus has two vowels.
    A word begins in a vowel sound when its onset is empty, or is an h
    (unless an h blocks synalepha) before a vowel that is not a
    consonantal glide: y, ue, ie (hydra, hueso, hielo); it ends in one
    when its coda is empty, or is an h after a vowel other than y. No
    nucleus begins or ends in an h, so an h first or last is in the onset
    or coda. The stress is on the first nucleus with an accent, else
    where ``_strong`` puts it; an adverb in -mente has it on its stem,
    found alike, and on -men-."""
    spans, sites, peaks, accent = walk
    last = len(spans) - 1
    # a stem of 3+ letters and 1+ syllables
    if (word.endswith("mente") and len(word) >= 8 and last >= 2
            and word not in _NOT_MENTE_ADVERB):
        tonic = 1 << _strong(accent, last - 1, word[-6]) | 1 << last - 1
    else:
        tonic = 1 << _strong(accent, last + 1, word[-1])
    # the first nucleus starts after the onset, the last ends before the
    # coda; a u or i before an e always shares its nucleus
    onset, (_, start, final, _) = spans[0][1], spans[-1]
    h_begins = (onset == 1 and word[0] == "h" and word[1] != "y"
                and word[1:3] not in ("ue", "ie"))
    return Frame(last + 1, tuple(sites), final - start >= 2,
                 final == len(word) or final == len(word) - 1
                 and word[-1] == "h" and word[-2] != "y",
                 (onset == 0 or h_begins, onset == 0),
                 word[0] == "h", word[-1] == "h", peaks,
                 tonic if keeps else 0, tonic)


@lru_cache(maxsize=_CACHE_SIZE)
def analyze_word(raw: str, lexicon: StressLexicon) -> SyllabifiedWord:
    """normalize + syllabify + stress in one step, cached per token and
    lexicon: one ``_walk`` over the nuclei gives the syllables and what
    ``_frame`` reads, stress included, and ``frame.tonic`` has the strong
    syllable's bit set.

    The key is the raw token, which is also the word's ``surface``, and
    the lexicon by identity, so a cached analysis is exactly what a fresh
    one would be. A token that is not a string raises DataError, from
    ``normalize_token``, and so does a lexicon that is not a
    ``StressLexicon``, from ``_keeps_stress``; an argument that cannot be
    hashed, such as a list, raises the cache's TypeError before that.
    """
    word = normalize_token(raw)
    texts, plain, walk = _syllable_parts(word.normalized)
    return SyllabifiedWord(word, tuple(texts), _frame(
        plain, walk, _keeps_stress(plain, lexicon)))
