"""Seeded input generators for the benchmark.

Nothing here imports escansion, so a change to the engine cannot change
the input it gets. ``verse`` lines and the ``harness`` surface come straight
from the seed. ``site_heavy`` rounds and ``cli_novel`` files come from fixed
pools, each unit seeded on its own: ``reference.json.gz`` holds the seed
engine's outcome for every pooled line, and the run's seed only orders the
units. A program that gets through the pool in one run goes on past it.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from pathlib import Path

POOL_SEED = 20201118
VOWELS = set("aeiouáéíóú")

# --- verse: template-realized hendecasyllables ----------------------------

# Common rhythmic types of the Golden Age hendecasyllable, weighted.
TEMPLATES = (
    ("-+---+---+-", 22), ("--+--+---+-", 16), ("+--+---+-+-", 12),
    ("-+-+-+-+-+-", 10), ("-+---+-+-+-", 10), ("---+---+-+-", 8),
    ("--+--+-+-+-", 7), ("-+-+---+-+-", 8), ("+----+---+-", 7),
)

# Words by (syllables, index of the stressed syllable or None for a
# function word). Many begin or end in a vowel or carry a diphthong, so
# lines have synalepha, syneresis and dieresis sites, 0 to about 7.
SHAPES: dict[tuple[int, int | None], tuple[str, ...]] = {
    (1, 0): ("sol", "mar", "luz", "flor", "cruz", "paz", "bien", "voz",
             "fe", "rey", "ley", "dios", "son", "van", "ya"),
    (2, 0): ("alma", "ola", "oro", "ala", "ave", "ira", "eco", "agua",
             "aire", "aula", "cielo", "fuego", "tiempo", "viento", "tierra",
             "fuente", "piedra", "gloria", "muerte", "duerme", "vuela",
             "suelo", "nieve", "noche", "campo", "verde", "dulce", "rosa",
             "vida", "sombra", "clara", "pura", "triste", "canta", "mira",
             "llora", "corre", "blanco", "feo", "mío", "alto", "hondo"),
    (2, 1): ("jardín", "cristal", "clavel", "dolor", "señor", "calor",
             "verdad", "razón", "virtud", "mortal", "cantar", "morir",
             "vivir", "soñar", "temor", "sabor", "real", "leal", "baúl"),
    (3, 1): ("hermosa", "ventura", "mañana", "ribera", "memoria", "destino",
             "secreto", "camino", "paloma", "serena", "divina", "aroma",
             "orilla", "amiga", "olvido", "oscuro", "idea", "aldea", "marea",
             "poeta", "oeste", "ardiente", "oía", "leía"),
    (3, 2): ("corazón", "soledad", "claridad", "caminar", "florecer",
             "juventud", "libertad", "tempestad", "resplandor", "ideal"),
    (3, 0): ("lágrima", "música", "cándida", "pájaros", "lástima", "área"),
    (4, 2): ("primavera", "pensamiento", "maravilla", "mariposa",
             "despertaba", "caminaba", "suspiraba", "verdadera"),
    (1, None): ("de", "la", "el", "los", "las", "un", "que", "si", "mas",
                "con", "por", "sin", "su", "mi", "tu", "se", "me", "te",
                "le", "lo", "ni", "y", "en"),
    (2, None): ("para", "sobre", "entre", "cuando", "donde", "como",
                "hasta", "contra", "desde", "hacia", "porque", "mientras",
                "vuestra", "nuestra"),
}
_SHAPE_KEYS = tuple(SHAPES)


_OPTIONS: dict[tuple[str, int], tuple] = {}


def _options(template: str, pos: int) -> tuple:
    """Shapes that can start at ``pos``; the last word must be llana."""
    key = (template, pos)
    if key not in _OPTIONS:
        fits = []
        for n, stress in _SHAPE_KEYS:
            if pos + n > len(template):
                continue
            if pos + n == len(template) and stress != n - 2:
                continue
            if all(template[pos + i] == ("+" if i == stress else "-")
                   for i in range(n)):
                fits.append((n, stress))
        _OPTIONS[key] = tuple(fits)
    return _OPTIONS[key]


def realize(template: str, rng: random.Random) -> str | None:
    """Words whose plain stresses spell ``template``."""
    for _ in range(50):
        words, pos = [], 0
        while pos < len(template):
            options = _options(template, pos)
            if not options:
                break
            shape = rng.choice(options)
            words.append(rng.choice(SHAPES[shape]))
            pos += shape[0]
        if pos == len(template):
            return " ".join(words)
    return None


def verse_stream(seed: int):
    """Endless distinct (text, realized template) pairs."""
    rng = random.Random(seed)
    templates, weights = zip(*TEMPLATES)
    seen = set()
    while True:
        template = rng.choices(templates, weights)[0]
        text = realize(template, rng)
        if text is not None and text not in seen:
            seen.add(text)
            yield text, template


def mini_gold(root: Path) -> list[tuple[str, str]]:
    """(text, hand gold) of the hand-verified lines shipped with escansion."""
    rows = []
    path = root / "src" / "escansion" / "data" / "mini_gold.tsv"
    for raw in path.read_text(encoding="utf-8").splitlines():
        if raw.strip():
            cols = raw.split("\t")
            rows.append((cols[2], cols[3]))
    return rows


# --- site_heavy: vowel-contact lines with an exact site count ---------------

# (word, syllables, word-internal figure sites). Adjacent words where the
# first ends and the second begins with a vowel add one synalepha site.
CONTACT_WORDS = (
    ("oía", 3, 2), ("leía", 3, 2), ("reía", 3, 2), ("caía", 3, 2),
    ("aéreo", 4, 2), ("aire", 2, 1), ("agua", 2, 1), ("aula", 2, 1),
    ("idea", 3, 1), ("aldea", 3, 1), ("oeste", 3, 1), ("área", 3, 1),
    ("aúna", 3, 1), ("poeta", 3, 1), ("marea", 3, 1), ("feo", 2, 1),
    ("mío", 2, 1), ("país", 2, 1), ("baúl", 2, 1), ("real", 2, 1),
    ("cielo", 2, 1), ("fuego", 2, 1), ("alma", 2, 0), ("ola", 2, 0),
    ("oro", 2, 0), ("ala", 2, 0), ("ave", 2, 0), ("eco", 2, 0),
    ("aroma", 3, 0), ("orilla", 3, 0), ("sol", 1, 0), ("mar", 1, 0),
    ("luz", 1, 0),
)
BUCKETS = (("b0_4", 0, 4), ("b5_8", 5, 8), ("b9_12", 9, 12),
           ("b13_16", 13, 16), ("b17p", 17, 20))
# Lines per bucket in one round; each bucket cycles through its exact
# site counts so every round has the same cost profile.
ROUND_QUOTA = {"b0_4": 20, "b5_8": 12, "b9_12": 8, "b13_16": 4, "b17p": 4}
EXHAUSTIVE_MAX_SITES = 16


def bucket_of(sites: int) -> str:
    """The site bucket of a line; ``b17p`` holds every count from 17."""
    return next((name for name, _, hi in BUCKETS if sites <= hi), BUCKETS[-1][0])


def _contact_line(sites: int, rng: random.Random) -> str:
    """A line of contact words with exactly ``sites`` figure sites and
    roughly the syllables a fit to 11 positions can absorb."""
    lo = hi = 12 + sites // 2
    while True:
        words, count, syllables = [], 0, 0
        while syllables < hi and (count < sites or syllables < lo):
            need, room = sites - count, hi - syllables
            options = []
            for word, n, internal in CONTACT_WORDS:
                added = internal + (bool(words) and words[-1][-1] in VOWELS
                                    and word[0] in VOWELS)
                # dense words only while the site budget outruns the room
                if added <= need and (need <= room // 2 or added >= n // 2 + 1):
                    options.append((word, n, added))
            if not options:
                break
            word, n, added = rng.choice(options)
            words.append(word)
            count += added
            syllables += n
        if count == sites and lo <= syllables <= hi:
            return " ".join(words)


def site_heavy_round(index: int) -> list[tuple[str, int]]:
    """Round ``index`` of the pool: (text, exact site count) per line, one
    bucket quota each. Rounds are seeded apart so any one can be built
    without the others."""
    rng = random.Random(f"{POOL_SEED}/site_heavy/{index}")
    seen, round_ = set(), []
    for name, lo, hi in BUCKETS:
        for sites in itertools.islice(itertools.cycle(range(lo, hi + 1)),
                                      ROUND_QUOTA[name]):
            text = _contact_line(sites, rng)
            while text in seen:
                text = _contact_line(sites, rng)
            seen.add(text)
            round_.append((text, sites))
    return round_


# --- cli_novel: lines of pseudo-words ---------------------------------------

_ONSETS = ("b", "c", "d", "f", "g", "l", "m", "n", "p", "r", "s", "t", "v",
           "br", "cr", "pl", "tr", "ch", "ll", "")
_NUCLEI = ("a", "e", "i", "o", "u", "a", "e", "o", "ie", "ue", "ai")
_CODAS = ("", "", "", "n", "s", "r", "l")
_ACUTE = str.maketrans("aeiou", "áéíóú")


def _pseudo_word(rng: random.Random, n: int, final: bool) -> str:
    parts = [rng.choice(_ONSETS) + rng.choice(_NUCLEI) + rng.choice(_CODAS)
             for _ in range(n)]
    if final:
        # a plain llana ending, so the line's length is its syllable count
        parts[-1] = parts[-1].rstrip("lr")
    elif n > 1 and rng.random() < 0.3:
        i = rng.randrange(n)
        parts[i] = parts[i].translate(_ACUTE)
    return "".join(parts)


def novel_file(index: int, lines: int) -> list[str]:
    """File ``index`` of the pool: distinct lines of pseudo-words with 11
    written syllables each. Files are seeded apart like the rounds."""
    rng = random.Random(f"{POOL_SEED}/cli_novel/{index}")
    seen, out = set(), []
    while len(out) < lines:
        sizes, left = [], 11
        while left:
            n = min(left, rng.choice((1, 2, 2, 3, 3, 4)))
            if left - n == 1 or (left == n and n == 1):
                continue
            sizes.append(n)
            left -= n
        text = " ".join(_pseudo_word(rng, n, i == len(sizes) - 1)
                        for i, n in enumerate(sizes))
        if text not in seen:
            seen.add(text)
            out.append(text)
    return out


# --- harness: a labelled TEI corpus ----------------------------------------

POEM_LINES = 14


def labelled_corpus(n: int, seed: int) -> list[tuple[str, int, str, str]]:
    """(poem_id, line_no, raw text, realized template) rows of the corpus
    pool, poems in seeded order. The seed also picks each line's
    capitalization and punctuation, which cleaning must undo, so every seed
    trains on the same cleaned corpus and split."""
    rng = random.Random(seed)
    rows = []
    for i, (text, template) in enumerate(itertools.islice(verse_stream(POOL_SEED), n)):
        raw = (text[0].upper() + text[1:] if rng.random() < 0.8 else text)
        rows.append((f"poem-{i // POEM_LINES:04d}", i % POEM_LINES + 1,
                     raw + rng.choice((",", ";", ".", ":", "", "!")), template))
    poems = [rows[i:i + POEM_LINES] for i in range(0, len(rows), POEM_LINES)]
    rng.shuffle(poems)
    return [row for poem in poems for row in poem]


def _xml_escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def write_tei(rows, out_dir: Path, poems_per_file: int = 20) -> list[Path]:
    """Write the corpus as TEI files of ``poems_per_file`` sonnets each."""
    out_dir.mkdir(parents=True, exist_ok=True)
    poems: dict[str, list] = {}
    for row in rows:
        poems.setdefault(row[0], []).append(row)
    ids = list(poems)
    paths = []
    for f in range(0, len(ids), poems_per_file):
        body = []
        for pid in ids[f:f + poems_per_file]:
            body.append(f'<lg type="sonnet" xml:id="{pid}">')
            body.extend(f'  <l n="{no}" met="{met}">{_xml_escape(text)}</l>'
                        for _, no, text, met in poems[pid])
            body.append("</lg>")
        path = out_dir / f"corpus-{f // poems_per_file:03d}.xml"
        path.write_text(
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            '<TEI xmlns="http://www.tei-c.org/ns/1.0"><text><body>\n'
            + "\n".join(body) + "\n</body></text></TEI>\n", encoding="utf-8")
        paths.append(path)
    return paths


def digest(items) -> str:
    """sha256 over the given strings, one per line."""
    h = hashlib.sha256()
    for item in items:
        h.update(item.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()
