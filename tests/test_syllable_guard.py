"""The syllabifier's (onset, nucleus, coda) parts, pinned word by word.

``data/syllable_guard.tsv`` holds one row per word: the word, then its
syllables written ``onset(nucleus)coda`` and separated by spaces, or
``novowel`` when the word has no nucleus. The words are every string of
one to three letters over the vowels and the letters that change a
syllable boundary, each ``a``+XY+``a`` for two consonant units X and Y,
and the words of the mini gold and of ``wordbank``.

Record the table again from the repository root, with the syllabifier
under test:

    PYTHONPATH=src python3 tests/test_syllable_guard.py --record
"""

import sys
from itertools import product
from pathlib import Path

import wordbank
from escansion.corpus import bundled_mini_gold
from escansion.errors import EmptyAfterNormalization, NoVowel
from escansion.phonology import _syllabify_plain, _unmarked, normalize_token

TABLE = Path(__file__).resolve().parent / "data" / "syllable_guard.tsv"
LETTERS = "aeiíuüïyhgqlr"
CONSONANT_UNITS = "b c d f g l p r t ch ll rr".split()


def guard_words() -> list[str]:
    words = {"".join(p) for n in (1, 2, 3) for p in product(LETTERS, repeat=n)}
    words.update("a" + x + y + "a"
                 for x, y in product(CONSONANT_UNITS, repeat=2))
    words.update(w for group in wordbank.SHAPES.values() for w in group)
    words.update(wordbank.TONIC + wordbank.ATONIC)
    for line in bundled_mini_gold():
        for token in line.text.split():
            try:
                words.add(_unmarked(normalize_token(token).normalized))
            except EmptyAfterNormalization:
                pass
    return sorted(words)


def parts_of(word: str) -> str:
    try:
        parts = _syllabify_plain(word)
    except NoVowel:
        return "novowel"
    return " ".join(f"{onset}({nucleus}){coda}"
                    for onset, nucleus, coda in parts)


def recorded() -> dict[str, str]:
    rows = TABLE.read_text(encoding="utf-8").splitlines()
    return dict(row.split("\t") for row in rows)


def test_parts_equal_the_recorded_ones():
    table = recorded()
    assert sorted(table) == guard_words()
    wrong = {w: (want, parts_of(w)) for w, want in table.items()
             if parts_of(w) != want}
    assert not wrong, f"{len(wrong)} words differ, e.g. {sorted(wrong.items())[:5]}"


def record() -> None:
    TABLE.write_text("".join(f"{w}\t{parts_of(w)}\n" for w in guard_words()),
                     encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    record()
