import re
import unicodedata

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracle
from escansion.errors import EmptyAfterNormalization, MalformedLexicon
from escansion.phonology import (
    StressLexicon,
    analyze_token,
    analyze_word,
    clean_text,
    is_prosodically_stressed,
    lexical_stress,
    normalize_token,
    stressed_syllable_indices,
    syllabify,
    Word,
    _syllabify_plain,
)
from escansion.scansion import find_figure_sites, phonological_parse

# Hand-checked against normative hyphenation references.
SYLLABLE_TABLE = {
    "cumbre": ["cum", "bre"],
    "hermosa": ["her", "mo", "sa"],
    "sol": ["sol"],
    "poeta": ["po", "e", "ta"],
    "ciudad": ["ciu", "dad"],
    "corazón": ["co", "ra", "zón"],
    "cándido": ["cán", "di", "do"],
    "día": ["dí", "a"],
    "baúl": ["ba", "úl"],
    "creía": ["cre", "í", "a"],
    "buey": ["buey"],
    "ahora": ["a", "ho", "ra"],
    "ahijado": ["ahi", "ja", "do"],
    "búho": ["bú", "ho"],
    "prohíbe": ["pro", "hí", "be"],
    "anhelo": ["an", "he", "lo"],
    "que": ["que"],
    "guerra": ["gue", "rra"],
    "pingüino": ["pin", "güi", "no"],
    "agua": ["a", "gua"],
    "cuando": ["cuan", "do"],
    "quando": ["quan", "do"],  # Golden Age spelling
    "ayer": ["a", "yer"],
    "cuyo": ["cu", "yo"],
    "muy": ["muy"],
    "hoy": ["hoy"],
    "rey": ["rey"],
    "y": ["y"],
    "examen": ["e", "xa", "men"],
    "extra": ["ex", "tra"],
    "instante": ["ins", "tan", "te"],
    "abstracto": ["abs", "trac", "to"],
    "atlas": ["at", "las"],
    "isla": ["is", "la"],
    "triunfa": ["triun", "fa"],
    "averiguáis": ["a", "ve", "ri", "guáis"],
    "vïola": ["vï", "o", "la"],
    "süave": ["sü", "a", "ve"],
    "rüido": ["rü", "i", "do"],
    "viola": ["vio", "la"],
    "saavedra": ["sa", "a", "ve", "dra"],
    "leyes": ["le", "yes"],
    "veintiún": ["vein", "tiún"],
    "casuística": ["ca", "suís", "ti", "ca"],
}

# with the contraction marks, which normalization keeps inside a word
_WORD_ALPHABET = "abcdefghijklmnñopqrstuvwxyzáéíóúü'-"


def _unmarked(text: str) -> str:
    return text.replace("'", "").replace("-", "")


def _syllables(raw, lexicon, *, tonic=False):
    """A token's per-syllable reference, as the oracle rebuilds it."""
    return oracle.word_syllables(analyze_word(raw, lexicon), tonic=tonic)


def words(min_size=1, max_size=12, alphabet=_WORD_ALPHABET):
    return st.text(alphabet=alphabet, min_size=min_size, max_size=max_size)


class TestNormalizeToken:
    def test_strips_punctuation_and_lowercases(self):
        assert normalize_token("Cumbre,").normalized == "cumbre"
        assert normalize_token("Rosa,Azucena").normalized == "rosaazucena"

    def test_keeps_diacritics(self):
        assert normalize_token("—¿Qué?").normalized == "qué"

    def test_pure_punctuation_rejected(self):
        with pytest.raises(EmptyAfterNormalization):
            normalize_token("...")

    def test_digits_rejected(self):
        with pytest.raises(EmptyAfterNormalization):
            normalize_token("1605")

    def test_archaic_cedilla(self):
        assert normalize_token("coraçón").normalized == "corazón"

    def test_internal_apostrophe_kept(self):
        assert normalize_token("d'amor").normalized == "d'amor"

    def test_edge_marks_stripped(self):
        assert normalize_token("'cumbre-").normalized == "cumbre"


# The two normalizers as they were before they shared one implementation,
# with the module constants they read written out: the shared one must
# give the same outputs.
_TRANSLIT = str.maketrans("çàèìòù", "zaeiou")
_MARKS = "'-"
_KEEP = (set("aeiouáéíóúüï") | set("bcdfghjklmnñpqrstvwxyz")
         | set(_MARKS))
_WORD_CHARS = "a-záéíóúüïñ"
_DROP_RE = re.compile(rf"[^{_WORD_CHARS}'\- ]")


def _reference_normalize_token(raw: str) -> Word:
    text = unicodedata.normalize("NFC", raw).lower().translate(_TRANSLIT)
    text = "".join(c for c in text if c in _KEEP)
    text = text.strip(_MARKS)
    text = re.sub(r"['-]{2,}", lambda m: m.group(0)[0], text)
    if not text:
        raise EmptyAfterNormalization(f"nothing left of token {raw!r}")
    return Word(surface=raw, normalized=text)


def _reference_clean_text(text: str) -> str:
    text = unicodedata.normalize("NFC", text).lower().translate(_TRANSLIT)
    text = _DROP_RE.sub(" ", text)
    return " ".join(text.split())


# characters the fold treats specially, mixed into arbitrary text
_AWKWARD = st.sampled_from(list(
    "aAeÉíÍüÜïñÑçÇàÈìÒùßİﬁ'-,.; \t\x85\u0301\u0308\u0327\u00a0"))


def _outcome(normalize, raw):
    try:
        return normalize(raw)
    except ValueError as exc:
        return type(exc), str(exc)


class TestOneNormalizer:
    @settings(max_examples=500, deadline=None)
    @given(st.one_of(st.text(), st.lists(_AWKWARD).map("".join)))
    def test_matches_the_reference(self, raw):
        assert clean_text(raw) == _reference_clean_text(raw)
        assert _outcome(normalize_token, raw) == _outcome(
            _reference_normalize_token, raw)


class TestSyllabify:
    @pytest.mark.parametrize("word,expected", sorted(SYLLABLE_TABLE.items()))
    def test_table(self, word, expected):
        assert syllabify(normalize_token(word)) == expected

    def test_contraction_round_trips(self):
        assert syllabify(normalize_token("d'amor")) == ["d'a", "mor"]

    @given(words())
    @settings(max_examples=300)
    def test_round_trip(self, raw):
        try:
            word = normalize_token(raw)
        except EmptyAfterNormalization:
            assume(False)
        assert "".join(syllabify(word)) == word.normalized

    @given(words())
    @settings(max_examples=300)
    def test_nucleus_uniqueness(self, raw):
        try:
            word = normalize_token(raw)
        except EmptyAfterNormalization:
            assume(False)
        for syl in syllabify(word):
            assert len(_syllabify_plain(_unmarked(syl))) == 1, (
                word.normalized, syl)

    @given(words())
    @example("allla")
    @settings(max_examples=300)
    def test_digraph_integrity(self, raw):
        try:
            word = normalize_token(raw)
        except EmptyAfterNormalization:
            assume(False)
        syllables = [_unmarked(syl) for syl in syllabify(word)]
        for left, right in zip(syllables, syllables[1:]):
            pair = (left[-1], right[0])
            # in a tripled l or r (allla: all-la) a whole digraph meets a
            # single letter, so some boundary has the letter on both sides
            assert (pair not in {("c", "h"), ("l", "l"), ("r", "r")}
                    or left[-2:] in ("ll", "rr")), (left, right)
            assert not (left[-1] == "q" and right[0] == "u")
            assert not (left[-1] == "g" and right[:2] in ("ue", "ui", "ué", "uí"))

    @given(words())
    @settings(max_examples=100)
    def test_deterministic(self, raw):
        try:
            word = normalize_token(raw)
        except EmptyAfterNormalization:
            assume(False)
        assert syllabify(word) == syllabify(word)


class TestLexicalStress:
    @pytest.mark.parametrize("word,expected", [
        ("corazón", 1),
        ("cumbre", 2),
        ("sol", 1),
        ("cándido", 3),
        ("estoy", 1),   # final y counts as a consonant for the default rule
        ("caminar", 1),
        ("lunes", 2),
        ("volumen", 2),
        ("dígamelo", 4),
    ])
    def test_table(self, word, expected):
        w = normalize_token(word)
        assert lexical_stress(syllabify(w), w) == expected

    @st.composite
    @staticmethod
    def _accent_injected(draw):
        base = draw(words(alphabet="abcdefghijklmnñopqrstuvwxyz", max_size=10))
        spots = [i for i, c in enumerate(base) if c in "aeiou"]
        assume(spots)
        pos = draw(st.sampled_from(spots))
        acc = dict(zip("aeiou", "áéíóú"))[base[pos]]
        return base[:pos] + acc + base[pos + 1:]

    @given(_accent_injected())
    @settings(max_examples=300)
    def test_accent_dominates(self, raw):
        word = normalize_token(raw)
        syllables = syllabify(word)
        sfe = lexical_stress(syllables, word)
        stressed = syllables[len(syllables) - sfe]
        assert any(c in "áéíóú" for c in stressed)


class TestProsodicStress:
    @pytest.mark.parametrize("word,stressed", [
        ("la", False),
        ("de", False),
        ("cumbre", True),
        ("él", True),
        ("el", False),
        ("más", True),
        ("mas", False),
        ("sé", True),
        ("se", False),
        ("tú", True),
        ("tu", False),
        ("qué", True),
        ("que", False),
        ("aun", False),
        ("no", True),
        ("otro", True),
        ("este", True),   # demonstratives are tonic
        # contraction marks are transparent to the lexicon too
        ("porq-ue", False),
        ("d'el", False),
        ("pa-ra", False),
    ])
    def test_homographs_and_function_words(self, word, stressed, lexicon):
        assert is_prosodically_stressed(normalize_token(word), lexicon) is stressed

    def test_override_wins(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("la\ncumbre\tunstressed\nmar\tstressed\n", encoding="utf-8")
        lex = StressLexicon.load(path)
        assert not is_prosodically_stressed(normalize_token("cumbre"), lex)
        assert is_prosodically_stressed(normalize_token("mar"), lex)
        assert not is_prosodically_stressed(normalize_token("la"), lex)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("# header\n\nla  # article\n", encoding="utf-8")
        assert "la" in StressLexicon.load(path).unstressed_words

    def test_overrides_are_read_only(self):
        given = {"la": True}
        lex = StressLexicon(frozenset(), given)
        with pytest.raises(TypeError):
            lex.overrides["la"] = False
        given["la"] = False  # the caller's dict is copied, not shared
        assert lex.overrides["la"] is True

    def test_word_cannot_sit_in_both_lists(self):
        with pytest.raises(ValueError):
            StressLexicon(frozenset({"la"}), {"la": True})
        with pytest.raises(ValueError):
            StressLexicon(frozenset({"d'el"}), {"del": True})

    def test_entries_match_without_their_marks(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("d'el\ndel\tstressed\npa-ra\n", encoding="utf-8")
        lex = StressLexicon.load(path)
        assert lex.overrides == {"del": True}
        assert lex.unstressed_words == {"para"}
        assert is_prosodically_stressed(normalize_token("d-el"), lex)
        assert not is_prosodically_stressed(normalize_token("para"), lex)

    def test_rows_are_numbered_as_every_reader_numbers_them(self, tmp_path):
        # \x85 and \x0c part entries, as they part scan's lines, but only
        # \n, \r and \r\n end a row
        path = tmp_path / "lex.txt"
        path.write_bytes("el\x85la\x0clos\rque\tstressed\n".encode("utf-8"))
        lex = StressLexicon.load(path)
        assert lex.unstressed_words == {"el", "la", "los"}
        assert lex.overrides == {"que": True}
        path.write_bytes("el\x85la\x0clos\rque\tmaybe\n".encode("utf-8"))
        with pytest.raises(MalformedLexicon) as exc:
            StressLexicon.load(path)
        assert str(exc.value).startswith(f"{path}:2: ")


class TestWordCache:
    def test_cached_analysis_equals_a_fresh_one(self, lexicon):
        first = analyze_word("¡Hermosa,", lexicon)
        assert analyze_word("¡Hermosa,", lexicon) is first
        fresh = StressLexicon(lexicon.unstressed_words, lexicon.overrides)
        assert analyze_word("¡Hermosa,", fresh) == first
        assert first.word.surface == "¡Hermosa,"

    def test_cache_is_per_lexicon(self, lexicon):
        tonic_la = StressLexicon(frozenset(), {"la": True})
        assert analyze_word("la", tonic_la).prosodic
        assert not analyze_word("la", lexicon).prosodic
        assert analyze_word("la", tonic_la).prosodic

    def test_syllables_carry_hiatus_and_split(self, lexicon):
        shapes = _syllables("cielo", lexicon)
        assert analyze_word("cielo", lexicon).syllables == ("cie", "lo")
        assert [s.hiatus for s in shapes] == [False, False]
        assert [s.stressed for s in shapes] == [True, False]
        # the stress stays on the strong vowel of the split diphthong
        assert shapes[0].split == (False, True)
        assert shapes[1].split is None
        # only nothing or a silent h between two syllables is a hiatus
        for raw, hiatus in (("poeta", [False, True, False]),
                            ("búho", [False, True]),
                            ("anhelo", [False, False, False])):
            syllables = _syllables(raw, lexicon)
            assert [s.hiatus for s in syllables] == hiatus, raw

    def test_tonic_shapes_stress_an_atonic_word(self, lexicon):
        frame = analyze_token("la", lexicon).frame
        assert (frame.stresses, frame.tonic) == (0, 0b1)
        # a word that is tonic anyway is stressed alike in either form
        frame = analyze_token("sol", lexicon).frame
        assert frame.tonic == frame.stresses == 0b1


class TestMenteAdverbs:
    def test_double_stress(self, lexicon):
        sw = analyze_word("gloriosamente", lexicon)
        assert stressed_syllable_indices(sw) == (1, 3)  # rio, men

    def test_accented_stem(self, lexicon):
        sw = analyze_word("fácilmente", lexicon)
        assert stressed_syllable_indices(sw) == (0, 2)

    def test_non_adverbs_single_stress(self, lexicon):
        for word in ("demente", "clemente", "atormente", "miente"):
            sw = analyze_word(word, lexicon)
            assert len(stressed_syllable_indices(sw)) == 1

    def test_atonic_word_has_no_stress(self, lexicon):
        sw = analyze_word("la", lexicon)
        assert stressed_syllable_indices(sw) == ()
        assert stressed_syllable_indices(sw, force=True) == (0,)


def test_syllable_parts_examples():
    assert _syllabify_plain("cum") == [("c", "u", "m")]
    assert _syllabify_plain("buey") == [("b", "uey", "")]
    assert _syllabify_plain("gue") == [("gu", "e", "")]
    assert _syllabify_plain("ahijado") == [("", "ahi", ""), ("j", "a", ""),
                                           ("d", "o", "")]


class TestMarks:
    """A contraction mark is kept in the syllable texts but decides
    nothing: no syllable boundary, hiatus, split, synalepha, stress or
    lexicon entry."""

    @given(words())
    @settings(max_examples=300)
    def test_marks_are_transparent(self, lexicon, raw):
        try:
            marked = analyze_token(raw, lexicon)
            plain = analyze_token(_unmarked(raw), lexicon)
        except EmptyAfterNormalization:
            assume(False)
        # the one frame holds both stress forms, stresses and tonic
        assert marked.frame == plain.frame, raw

    def test_mark_inside_a_diphthong_keeps_its_dieresis(self, lexicon):
        first = _syllables("ci-elo", lexicon)[0]
        assert analyze_word("ci-elo", lexicon).syllables[0] == "ci-e"
        assert first.split == (False, True)

    def test_mark_before_a_hiatus_keeps_its_syneresis(self, lexicon):
        words = phonological_parse("luso-americano", lexicon)
        sites = [(s.kind, s.position) for s in find_figure_sites(words)]
        assert [t for sw in words for t in sw.syllables][1:3] == ["so", "-a"]
        assert ("syneresis", 1) in sites

    def test_silent_u_after_a_mark_is_not_split(self, lexicon):
        syllables = _syllables("porq-ue", lexicon)
        assert analyze_word("porq-ue", lexicon).syllables == ("por", "q-ue")
        assert [s.split for s in syllables] == [None, None]

    @pytest.mark.parametrize("marked", ["la h-ermosa", "vi y-a", "ba-h en",
                                        "la hi-elo", "la hu-eso"])
    def test_marks_decide_no_synalepha(self, marked, lexicon):
        def sites(text):
            return [str(s) for s in
                    find_figure_sites(phonological_parse(text, lexicon))]
        assert sites(marked) == sites(_unmarked(marked))

    def test_marks_decide_no_mente_stress(self, lexicon):
        assert stressed_syllable_indices(
            analyze_word("claramen-te", lexicon)) == (0, 2)


def test_vowelless_string_raises_no_vowel():
    from escansion.errors import NoVowel
    with pytest.raises(NoVowel):
        syllabify("brr")  # normalize_token never lets these through
