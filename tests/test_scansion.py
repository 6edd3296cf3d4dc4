import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
import wordbank
from escansion import phonology, scansion
from escansion.errors import DataError, EmptyLine, LengthMismatch, Unfittable
from escansion.phonology import StressLexicon, default_lexicon
from escansion.scansion import (
    FigureSite,
    ParsedLine,
    ScanConfig,
    _site_deltas,
    check_pattern,
    find_figure_sites,
    fit_to_target,
    phonological_parse,
    scan_line,
)

GARCILASO_LINE = "cubra de nieve la hermosa cumbre"


class TestPhonologicalParse:
    def test_worked_line(self, lexicon):
        words = phonological_parse(GARCILASO_LINE, lexicon)
        assert len(words) == 6
        assert sum(len(w.syllables) for w in words) == 11
        tonic = [w.word.normalized for w in words if w.prosodic]
        assert tonic == ["cubra", "nieve", "hermosa", "cumbre"]

    def test_monosyllable(self, lexicon):
        (word,) = phonological_parse("sol", lexicon)
        assert word.syllables == ("sol",)
        assert word.stress_from_end == 1
        assert word.prosodic

    def test_pure_punctuation_line(self, lexicon):
        with pytest.raises(EmptyLine):
            phonological_parse("¡...!", lexicon)


def _fresh_default_lexicon() -> StressLexicon:
    """The default lexicon's lists with an empty word cache of its own."""
    lexicon = default_lexicon()
    return StressLexicon(lexicon.unstressed_words, lexicon.overrides)


def _outcome(text, lexicon, config):
    try:
        result = scan_line(text, lexicon, config)
    except DataError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "nearest", None)
    return result


class TestParseOnce:
    """Word analyses are cached per lexicon and the flat syllable sequence
    is built once per line; neither may change a result."""

    def test_parsed_line_is_a_list_of_words(self, lexicon):
        words = phonological_parse(GARCILASO_LINE, lexicon)
        assert isinstance(words, ParsedLine)
        assert list(words) == [phonology.analyze_word(t, lexicon)
                               for t in GARCILASO_LINE.split()]
        assert sum(frame.size for frame in words.flat.frames) == 11
        assert words.flat.starts == [0, 2, 3, 5, 6, 9]

    @pytest.mark.parametrize("default_first", [True, False])
    def test_lexicons_do_not_share_analyses(self, config, default_first):
        default, tonic_la = (_fresh_default_lexicon(),
                             StressLexicon(frozenset(), {"la": True}))
        order = [default, tonic_la] if default_first else [tonic_la, default]
        patterns = {id(lex): scan_line(GARCILASO_LINE, lex, config).pattern
                    for lex in order}
        assert patterns[id(default)] == "+--+---+-+-"
        assert patterns[id(tonic_la)] == "+-++-+-+-+-"

    def test_cache_stays_within_its_bound(self, config):
        lines = [text for text, _ in wordbank.scannable_lines(40, seed=5)]
        expected = [_outcome(t, _fresh_default_lexicon(), config)
                    for t in lines]
        lexicon = _fresh_default_lexicon()
        seen = set()
        for round_ in range(40):
            # digits are dropped by normalization: every round brings new
            # raw tokens with the same analyses
            for text, want in zip(lines, expected):
                tagged = " ".join(f"{w}{round_}" for w in text.split())
                seen.update(tagged.split())
                assert _outcome(tagged, lexicon, config) == want
                assert len(lexicon._analyses) <= phonology._CACHE_SIZE
        assert len(seen) > phonology._CACHE_SIZE

    def test_flat_built_once_per_scan(self, lexicon, config, monkeypatch):
        calls = []
        build = scansion._build_flat

        def counting(word_syllables):
            calls.append(1)
            return build(word_syllables)

        monkeypatch.setattr(scansion, "_build_flat", counting)
        scan_line(GARCILASO_LINE, lexicon, config)
        assert len(calls) == 1

    def test_scan_calls_each_stage_once_through_the_module(
            self, lexicon, config, monkeypatch):
        # per-stage timing wraps these module globals, so scan_line must
        # reach each stage through them, once per line
        calls = []
        for name in ("phonological_parse", "find_figure_sites",
                     "fit_to_target"):
            def counting(*args, _stage=getattr(scansion, name), _name=name):
                calls.append(_name)
                return _stage(*args)
            monkeypatch.setattr(scansion, name, counting)
        scan_line(GARCILASO_LINE, lexicon, config)
        assert calls == ["phonological_parse", "find_figure_sites",
                         "fit_to_target"]


class TestFindFigureSites:
    def test_synalepha_through_silent_h(self, lexicon, config):
        words = phonological_parse("la hermosa", lexicon)
        sites = find_figure_sites(words, config)
        assert [s.kind for s in sites] == ["synalepha"]
        assert sites[0].position == 0
        assert sites[0].through_h

    def test_h_can_be_configured_to_block(self, lexicon):
        words = phonological_parse("la hermosa", lexicon)
        sites = find_figure_sites(words, ScanConfig(h_blocks_synalepha=True))
        assert sites == []

    def test_consonant_onset_blocks(self, lexicon, config):
        words = phonological_parse("de nieve", lexicon)
        sites = find_figure_sites(words, config)
        assert [s.kind for s in sites] == ["dieresis"]  # nie only, no contact

    def test_chained_sites_around_conjunction(self, lexicon, config):
        words = phonological_parse("rosa y azucena", lexicon)
        sites = find_figure_sites(words, config)
        assert [(s.kind, s.position) for s in sites] == [
            ("synalepha", 1), ("synalepha", 2)]

    def test_word_internal_figures(self, lexicon, config):
        words = phonological_parse("poeta suave", lexicon)
        sites = {(s.kind, s.position) for s in find_figure_sites(words, config)}
        assert sites == {("syneresis", 0),   # po|e hiatus
                         ("dieresis", 3)}    # sua diphthong

    def test_glide_onset_resists_synalepha(self, lexicon, config):
        words = phonological_parse("la hierba", lexicon)
        kinds = [s.kind for s in find_figure_sites(words, config)]
        assert "synalepha" not in kinds


class TestFitAndScan:
    def test_worked_example(self, lexicon, config):
        result = scan_line(GARCILASO_LINE, lexicon, config)
        assert result.pattern == "+--+---+-+-"
        assert result.candidate.metrical_length == 11
        # the la|her contact exists but the winning candidate leaves it alone
        assert result.candidate.applied == ()
        assert result.ambiguous  # synalepha + dieresis also reaches 11

    def test_one_of_two_chained_synalephas(self, lexicon, config):
        result = scan_line("En tanto que de rosa y azucena", lexicon, config)
        assert result.pattern == "-+---+---+-"
        applied = [s.kind for s in result.candidate.applied]
        assert applied.count("synalepha") == 1

    def test_monosyllable_unfittable(self, lexicon, config):
        with pytest.raises(Unfittable) as exc:
            scan_line("sol", lexicon, config)
        assert exc.value.achievable == (2,)

    def test_long_unfittable_line_takes_bounded_time(self, lexicon, config):
        # the reachable lengths are read from the sites, with no search
        start = time.perf_counter()
        with pytest.raises(Unfittable) as exc:
            scan_line("casa oscura " * 2000, lexicon, config)
        assert time.perf_counter() - start < 2
        assert len(exc.value.achievable) == 2001

    def test_ten_stressed_monosyllables_fit(self, lexicon, config):
        result = scan_line(" ".join(["sol"] * 10), lexicon, config)
        assert result.pattern == "++++++++++-"

    def test_eleven_monosyllables_unfittable(self, lexicon, config):
        with pytest.raises(Unfittable) as exc:
            scan_line(" ".join(["sol"] * 11), lexicon, config)
        assert exc.value.achievable == (12,)

    def test_oxytone_padding(self, lexicon, config):
        result = scan_line("el corazón me duele sin razón", lexicon, config)
        assert result.pattern == "---+-+---+-"

    def test_proparoxytone_collapse(self, lexicon, config):
        result = scan_line("la cándida paloma vuela rápido", lexicon, config)
        assert result.pattern == "-+---+-+-+-"

    def test_deterministic(self, lexicon, config):
        a = scan_line(GARCILASO_LINE, lexicon, config)
        b = scan_line(GARCILASO_LINE, lexicon, config)
        assert a == b

    def test_unknown_figure_kind_is_rejected(self, lexicon, config):
        # a site is a plain tuple, so sites from outside the finder are
        # checked where they enter the fit
        words = phonological_parse(GARCILASO_LINE, lexicon)
        site = FigureSite("elision", 3)
        assert site == ("elision", 3, False, False)
        assert str(site) == "elision@3"
        with pytest.raises(ValueError, match="unknown figure kind 'elision'"):
            fit_to_target(words, [site], config)

    def test_final_atonic_word_still_yields_a_stress(self, lexicon, config):
        # final-accent rule: the line-final word counts as tonic, so this
        # 10-syllable line ends like an oxytone verse
        result = scan_line("canta la paloma blanca de la", lexicon, config)
        assert result.pattern == "+---+-+--+-"

    def test_alternate_target_length(self, lexicon):
        config = ScanConfig(target_length=8)
        result = scan_line("canta la paloma blanca", lexicon, config)
        assert len(result.pattern) == 8

    def test_diagnostics_list_all_fitting_patterns(self, lexicon):
        config = ScanConfig(emit_diagnostics=True)
        result = scan_line(GARCILASO_LINE, lexicon, config)
        assert result.pattern in result.diagnostics
        assert len(result.diagnostics) >= 2

    def test_exact_search_handles_pathological_site_counts(self, lexicon,
                                                            config):
        # 9 x "oía" yields 26 sites: 2^26 subsets, one DP pass
        line = " ".join(["oía"] * 9)
        words = phonological_parse(line, lexicon)
        sites = find_figure_sites(words, config)
        assert len(sites) == 26
        result = fit_to_target(words, sites, config)
        check_pattern(result.pattern)
        assert result.candidate.metrical_length == 11

    def test_long_vowel_run_scans_in_linear_time(self, lexicon, config):
        # one syneresis site per letter: the fit must stay linear in sites
        start = time.perf_counter()
        try:
            check_pattern(scan_line("a" * 5000, lexicon, config).pattern)
        except Unfittable:
            pass
        assert time.perf_counter() - start < 1.0

    def test_state_stays_bounded_as_target_grows(self, lexicon):
        # at most (target+1)*16 states: target 23 costs about what 11 does
        line = "la alma oía a Eva e Inés y Olga " * 3

        def seconds(target):
            config = ScanConfig(target_length=target)
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                try:
                    scan_line(line, lexicon, config)
                except Unfittable:
                    pass
                best = min(best, time.perf_counter() - start)
            return best

        assert seconds(23) <= 5 * seconds(11)


class TestPatternOf:
    def test_check_pattern_rules(self):
        assert check_pattern("+--+---+-+-") == "+--+---+-+-"
        with pytest.raises(LengthMismatch):
            check_pattern("+-+")
        with pytest.raises(ValueError):
            check_pattern("x" * 11)
        with pytest.raises(ValueError):
            check_pattern("-" * 11)


def _random_sites_subset(rng, sites):
    return [s for s in sites if rng.random() < 0.5]


def _check_against_enumeration(lexicon, config):
    """The fitter's pattern, ambiguity, diagnostics (none when they are off)
    and Unfittable details equal the brute-force oracle's on lines with at
    most 12 sites, for each line's sites and for a random sub-list of
    them."""
    rng = random.Random(99)
    pick = random.Random(3)
    texts = [ln.text for ln in wordbank.synthetic_corpus(40, seed=5)]
    texts += [wordbank.random_raw_line(rng) for _ in range(60)]
    checked = unfittable = 0
    for text in texts:
        words = phonological_parse(text, lexicon)
        sites = find_figure_sites(words, config)
        if len(sites) > 12:
            continue
        checked += 1
        unfittable += _agrees_with_enumeration(words, sites, config, text)
        _agrees_with_enumeration(words, _random_sites_subset(pick, sites),
                                 config, text)
    assert checked >= 80
    assert unfittable >= 20


def _agrees_with_enumeration(words, sites, config, text) -> bool:
    """Check one fit against the oracle over ``sites``; whether the line
    is unfittable with them."""
    results = oracle.enumerate_all(words, sites, config.target_length)
    preferred = oracle.preferred_patterns(results, sites,
                                          config.target_length)
    try:
        result = fit_to_target(words, sites, config)
    except Unfittable as exc:
        assert not preferred
        assert set(exc.achievable) == {l for _, l, _ in results}
        assert list(exc.nearest) == _nearest_previews(
            results, sites, config.target_length), text
        return True
    assert preferred, text
    assert result.pattern == preferred[0], text
    feasible = [m for m, _, p in results if p is not None]
    assert result.ambiguous == (len(feasible) > 1)
    listed = {p for _, _, p in results if p is not None}
    assert set(result.diagnostics) == \
        (listed if config.emit_diagnostics else set()), text
    return False


def _nearest_previews(results, sites, target):
    """The three subsets closest to the target length, ties by mask, as
    (length, applied figures) the way Unfittable reports them."""
    nearest = sorted((abs(length - target), mask, length)
                     for mask, length, _ in results)[:3]
    return [(length, ";".join(str(s) for i, s in enumerate(sites)
                              if mask >> i & 1) or "none")
            for _, mask, length in nearest]


class TestOracleAgreement:
    """Brute-force cross-checks of the fitter's arithmetic and selection."""

    def test_length_arithmetic_over_random_subsets(self, lexicon, config):
        rng = random.Random(7)
        for text in [GARCILASO_LINE,
                     "En tanto que de rosa y azucena",
                     "no sólo en plata o vïola troncada",
                     "mas si me veo en el primer terceto",
                     "poeta suave y día claro de oro"]:
            words = phonological_parse(text, lexicon)
            sites = find_figure_sites(words, config)
            n0 = sum(len(w.syllables) for w in words)
            for _ in range(50):
                chosen = _random_sites_subset(rng, sites)
                groups = oracle.apply_subset(words, sites, chosen)
                length, _ = oracle.length_and_pattern(groups)
                merges = sum(1 for s in chosen if s.delta < 0)
                splits = sum(1 for s in chosen if s.delta > 0)
                trailing = len(groups) - 1 - max(
                    i for i, s in enumerate(groups) if s)
                adjust = 1 - trailing
                assert length == n0 - merges + splits + adjust

    def test_each_synalepha_removes_exactly_one_unit(self, lexicon, config):
        for text in [GARCILASO_LINE, "En tanto que de rosa y azucena",
                     "hora a su afán ansioso lisonjera"]:
            words = phonological_parse(text, lexicon)
            sites = find_figure_sites(words, config)
            base = len(oracle.apply_subset(words, sites, []))
            for site in sites:
                if site.kind != "synalepha":
                    continue
                merged = oracle.apply_subset(words, sites, [site])
                assert len(merged) == base - 1

    def test_fitter_agrees_with_enumeration(self, lexicon):
        _check_against_enumeration(lexicon, ScanConfig(emit_diagnostics=True))

    @pytest.mark.parametrize("config", [
        # the state scan runs by default keeps only the stress bits the
        # choice reads, and a target other than 11 moves those bits
        ScanConfig(),
        ScanConfig(emit_diagnostics=True, target_length=12),
    ], ids=["default-no-diagnostics", "target-12"])
    def test_reordered_preference_agrees_with_enumeration(self, lexicon,
                                                          config):
        _check_against_enumeration(lexicon, config)

    # Fixed vowel-contact lines with 17 sites, past the 12 the other oracle
    # checks stop at; brute force takes a few seconds a line.
    @pytest.mark.parametrize("text", [
        "oía oeste aula idea agua oía aire aula",
        "leía oía aúna área agua agua aire aire",
    ])
    def test_exact_beyond_sixteen_sites(self, lexicon, text):
        config = ScanConfig(emit_diagnostics=True)
        words = phonological_parse(text, lexicon)
        sites = find_figure_sites(words, config)
        assert len(sites) == 17
        results = oracle.enumerate_all(words, sites, config.target_length)
        preferred = oracle.preferred_patterns(results, sites,
                                              config.target_length)
        result = fit_to_target(words, sites, config)
        feasible = [p for _, _, p in results if p is not None]
        assert result.pattern == preferred[0]
        assert set(result.diagnostics) == set(feasible)
        assert result.ambiguous == (len(feasible) > 1)
        # a subset's length does not depend on the target, so the same
        # enumeration checks the report of targets out of reach
        for target in (6, 24):
            with pytest.raises(Unfittable) as exc:
                fit_to_target(words, sites, ScanConfig(target_length=target))
            assert exc.value.achievable == tuple(range(7, 24))
            assert set(exc.value.achievable) == {l for _, l, _ in results}
            assert list(exc.value.nearest) == _nearest_previews(
                results, sites, target), text

    def test_site_costs_order_subsets_as_the_preference_key(self):
        # every tie-break tier, on site lists with up to 10 of one kind
        rng = random.Random(3)
        for _ in range(20):
            sites = []
            for position in range(rng.randint(1, 10)):
                kind = rng.choice(("synalepha", "syneresis", "dieresis"))
                sites.append(FigureSite(
                    kind=kind, position=position,
                    involves_stress=rng.random() < 0.3,
                    through_h=kind == "synalepha" and rng.random() < 0.2))
            deltas = _site_deltas(sites)
            masks = range(1 << len(sites))
            by_cost = sorted(masks, key=lambda m: sum(
                d for i, d in enumerate(deltas) if m >> i & 1))
            assert by_cost == sorted(
                masks, key=oracle.preference_key(sites))

    def test_position_ten_preference(self, lexicon, config, mini_gold):
        for line in mini_gold:
            words = phonological_parse(line.text, lexicon)
            sites = find_figure_sites(words, config)
            if len(sites) > 12:
                continue
            results = oracle.enumerate_all(words, sites, config.target_length)
            any_on_ictus = any(p is not None and p[9] == "+"
                               for _, _, p in results)
            result = fit_to_target(words, sites, config)
            if any_on_ictus:
                assert result.pattern[9] == "+", line.text


# letters, accents, dieresis marks, h, y, contraction marks, punctuation
_FUZZ_ALPHABET = ("abcdefghijklmnñopqrstuvwxyz" + "áéíóú" + "üï" + "hhyy"
                  + "'-" + "    " + ",.;:¡!¿?()«»")


@given(st.one_of(
    st.integers(min_value=0, max_value=2 ** 32 - 1).map(
        lambda seed: wordbank.random_raw_line(random.Random(seed))),
    st.text(alphabet=_FUZZ_ALPHABET, max_size=80)))
@settings(max_examples=1000, deadline=None)
def test_every_scan_output_is_a_valid_pattern(text):
    try:
        result = scan_line(text)
    except (Unfittable, EmptyLine):
        return
    check_pattern(result.pattern)
    assert result.candidate.metrical_length == 11
    full = scan_line(text, config=ScanConfig(emit_diagnostics=True))
    assert full.pattern == result.pattern
    assert full.pattern in full.diagnostics


@given(st.one_of(
    st.integers(min_value=0, max_value=2 ** 32 - 1).map(
        lambda seed: wordbank.random_raw_line(random.Random(seed))),
    st.text(alphabet=_FUZZ_ALPHABET, max_size=80)))
# an h at either edge of a contact, y, and a diphthong on a last syllable
# before a synalepha, alone and after a syneresis
@example("¡oh alma! ah, hermosa y hielo; bah en muy alto, leí agua a oía")
# each vowel-sound rule at an edge: an h before y or a glide (hydra,
# hueso, hielo) or not (huir), y alone and before a consonant, an h after
# y (ayh) or a vowel (ah, oh), and an h behind a mark
@example("la hydra ayh alma hueso hielo huir la y ytal ah otro oh isla "
         "a h'alma")
@settings(max_examples=500, deadline=None)
def test_sites_equal_the_per_syllable_reference(text):
    # the sites stitched from the word frames are the ones a walk over the
    # line's syllables finds, in the same order, with the same flags, and
    # the line's stress bits, which the fitter's steps are cut from, are
    # the syllables' own
    try:
        words = phonological_parse(text, default_lexicon())
    except EmptyLine:
        return
    syllables = oracle.line_syllables(words)
    assert words.flat.size == len(syllables)
    assert words.flat.stresses == sum(
        syl.stressed << i for i, syl in enumerate(syllables))
    assert words.flat.lefts == sum(
        syl.split[0] << i for i, syl in enumerate(syllables)
        if syl.split is not None)
    for h_blocks in (False, True):
        sites = find_figure_sites(words, ScanConfig(h_blocks_synalepha=h_blocks))
        assert [(s.kind, s.position, s.involves_stress, s.through_h)
                for s in sites] == oracle.reference_sites(words, h_blocks)
