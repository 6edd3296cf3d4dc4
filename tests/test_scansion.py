import random
import re
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
    _rank_costs,
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
        assert word.frame.tonic == 0b1
        assert word.prosodic

    def test_pure_punctuation_line(self, lexicon):
        with pytest.raises(EmptyLine):
            phonological_parse("¡...!", lexicon)


def _fresh_default_lexicon() -> StressLexicon:
    """The default lexicon's lists in a new lexicon, one that no cached
    word analysis is keyed by."""
    lexicon = default_lexicon()
    return StressLexicon(lexicon.unstressed_words, lexicon.overrides)


def _outcome(text, lexicon, config):
    try:
        result = scan_line(text, lexicon, config)
    except DataError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "nearest", None)
    # not the whole record: its words carry each token's surface form
    return (result.pattern, result.applied, result.ambiguous,
            result.syllabification, result.diagnostics)


class TestParseOnce:
    """Word analyses are cached per token and lexicon, and each token is
    looked up once per line; neither may change a result.
    A fresh lexicon is one that no cached analysis is keyed by."""

    def test_parsed_line_is_a_list_of_words(self, lexicon):
        words = phonological_parse(GARCILASO_LINE, lexicon)
        assert isinstance(words, ParsedLine)
        assert not hasattr(words, "__dict__")  # slots only
        assert list(words) == [phonology.analyze_word(t, lexicon)
                               for t in GARCILASO_LINE.split()]
        assert sum(word.frame.size for word in words) == 11
        assert words.starts == [0, 2, 3, 5, 6, 9]

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
                assert (phonology.analyze_word.cache_info().currsize
                        <= phonology._CACHE_SIZE)
        assert len(seen) > phonology._CACHE_SIZE

    def test_each_token_looked_up_once_per_scan(self, lexicon, config,
                                                monkeypatch):
        calls = []
        analyze = scansion.analyze_word

        def counting(token, lexicon):
            calls.append(token)
            return analyze(token, lexicon)

        monkeypatch.setattr(scansion, "analyze_word", counting)
        scan_line(GARCILASO_LINE, lexicon, config)
        assert calls == GARCILASO_LINE.split()

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

    def test_applied_keeps_site_order_where_cut_order_differs(self, lexicon,
                                                              config):
        # the dieresis of stressed "llue" keeps its stress on the right, so
        # it cuts at 4, before the syneresis at 4, which cuts at 5: the
        # applied sites still come in site order, as the ranking DP's do
        words = phonological_parse("llocrega challuee vimes nortrobren",
                                   lexicon)
        sites = find_figure_sites(words, config)
        result = fit_to_target(words, sites, config)
        outcome = (result.pattern, result.candidate.applied, result.ambiguous)
        assert outcome == oracle.reference_fit(words, sites)
        assert result.pattern == "-+---++--+-"
        assert [str(s) for s in result.candidate.applied] == [
            "syneresis@4", "dieresis@4"]

    @pytest.mark.parametrize("line", [None, 11, ["cubra"],
                                      b"cubra de nieve"])
    def test_a_line_that_is_not_a_string_is_refused(self, lexicon, line):
        message = re.escape(f"line must be a string, not {line!r}")
        with pytest.raises(DataError, match=f"^{message}$"):
            scan_line(line, lexicon)
        with pytest.raises(DataError, match=f"^{message}$"):
            phonological_parse(line, lexicon)

    @pytest.mark.parametrize("lexicon", [5, "la", frozenset({"la"}),
                                         {"la": True}])
    def test_a_lexicon_that_is_not_a_stress_lexicon_is_refused(self,
                                                               lexicon):
        message = re.escape(f"lexicon must be a StressLexicon, "
                            f"not {lexicon!r}")
        with pytest.raises(DataError, match=f"^{message}$"):
            scan_line("cubra de nieve", lexicon)
        with pytest.raises(DataError, match=f"^{message}$"):
            phonological_parse("cubra de nieve", lexicon)

    def test_config_bounds_hold_for_library_callers(self, lexicon):
        for kwargs in ({"target_length": 1},
                       {"target_length": 17, "emit_diagnostics": True}):
            with pytest.raises(DataError, match="target_length"):
                ScanConfig(**kwargs)
            with pytest.raises(DataError, match="target_length"):
                ScanConfig()._replace(**kwargs)
        assert ScanConfig(target_length=17).target_length == 17
        for target in ("11", 11.5, True, None):
            message = f"^target_length must be an integer, not {target!r}$"
            with pytest.raises(DataError, match=message):
                ScanConfig(target_length=target)
            with pytest.raises(DataError, match=message):
                ScanConfig()._replace(target_length=target)
        for name in ("h_blocks_synalepha", "emit_diagnostics"):
            for flag in ("yes", 1, 0, None):
                message = f"^{name} must be a bool, not {flag!r}$"
                with pytest.raises(DataError, match=message):
                    ScanConfig(**{name: flag})
                with pytest.raises(DataError, match=message):
                    ScanConfig()._replace(**{name: flag})
        words = phonological_parse("En tanto que de rosa y azucena", lexicon)
        sites = find_figure_sites(words)
        for config in ("x", (11, False, False), 0):
            message = re.escape(f"config must be a ScanConfig, not {config!r}")
            with pytest.raises(DataError, match=f"^{message}$"):
                scan_line("amor", None, config)
            with pytest.raises(DataError, match=f"^{message}$"):
                find_figure_sites(words, config)
            with pytest.raises(DataError, match=f"^{message}$"):
                fit_to_target(words, sites, config)
        # None is the default config
        assert find_figure_sites(words, None) == find_figure_sites(
            words, ScanConfig())
        assert fit_to_target(words, sites, None) == fit_to_target(
            words, sites, ScanConfig())
        # the records are tuples: they equal the plain tuples of their fields
        assert ScanConfig() == (11, False, False)
        result = scan_line("En tanto que de rosa y azucena", lexicon)
        assert result.candidate == ((("synalepha", 7, False, False),), 11)

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

    @pytest.mark.parametrize("first, target", [(False, 11), (True, 20)],
                             ids=["after-the-last-stress", "target-out-of-reach"])
    def test_unknown_kind_is_rejected_before_the_fit(self, lexicon, first,
                                                     target):
        # the kind is checked for every site before anything else: also for
        # one cut after the last stress, which shifts nothing, and when the
        # target is out of reach, which the sites alone report
        words = phonological_parse(GARCILASO_LINE, lexicon)
        sites = find_figure_sites(words)
        config = ScanConfig(target_length=target)
        if first:
            with pytest.raises(Unfittable):
                fit_to_target(words, sites, config)
            sites = [FigureSite("elision", 0)] + sites
        else:
            assert words.stresses.bit_length() - 1 == 9  # cum-bre
            sites = sites + [FigureSite("elision", 9)]
        with pytest.raises(ValueError, match="unknown figure kind 'elision'"):
            fit_to_target(words, sites, config)

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
        # 9 x "oía" yields 26 sites: 2^26 subsets, counted, not searched
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

    def test_template_tier_costs_a_bounded_number_of_segments(
            self, lexicon, monkeypatch):
        # at 11 the cheapest subset of these lines is not rhythmic, so the
        # template tier runs. For k stressed syllables before the last it
        # costs the prefix to groups 3 and 5 and the suffix from 5 and 7 of
        # each once, and the middle of a pair once per pair: besides the
        # whole line's pick, at most 2k prefixes, 2k suffixes and
        # k(k-1)/2 middles, however many sites the line has
        picks = []
        pick = scansion._pick
        monkeypatch.setattr(scansion, "_pick",
                            lambda *args: picks.append(args) or pick(*args))
        sizes = []
        for line in ("ley real caía dio oro e feo o ala mar",
                     "fue caía u rey oía feo y aúna idea área"):
            words = phonological_parse(line, lexicon)
            sites = find_figure_sites(words)
            picks.clear()
            result = fit_to_target(words, sites, ScanConfig())
            assert (result.pattern, result.candidate.applied,
                    result.ambiguous) == oracle.reference_fit(words, sites)
            k = bin(words.stresses).count("1") - 1
            assert k == 7
            (first, last, _), *segments = picks
            prefixes = [lo for lo, _, _ in segments if lo == first]
            suffixes = [hi for lo, hi, _ in segments
                        if hi == last and lo != first]
            middles = len(segments) - len(prefixes) - len(suffixes)
            assert segments and len(segments) <= 4 * k + k * (k - 1) // 2
            assert len(prefixes) <= 2 * k and len(suffixes) <= 2 * k
            assert middles <= k * (k - 1) // 2
            sizes.append(len(sites))
        assert sizes == [10, 16]

    def test_template_tier_ranks_no_state(self, lexicon, monkeypatch):
        # at 11 the cheapest subset of this line is not rhythmic, and the
        # template tier counts out the rhythmic winner: only the cheapest
        # subset is tested for the template, and without diagnostics the
        # pass over states never runs. With them it lists the 218 fitting
        # patterns, and the winner is the same
        line = "oía aire oía caía aire aldea oía aula"
        words = phonological_parse(line, lexicon)
        sites = find_figure_sites(words)
        full = fit_to_target(words, sites, ScanConfig(emit_diagnostics=True))
        assert len(full.diagnostics) == 218
        tested = []
        rhythmic = scansion._rhythmic
        monkeypatch.setattr(scansion, "_rhythmic",
                            lambda s: tested.append(s) or rhythmic(s))

        def no_states(*args):
            raise AssertionError("diagnostics off, yet states were built")

        monkeypatch.setattr(scansion, "_patterns", no_states)
        result = fit_to_target(words, sites, ScanConfig())
        assert result == full._replace(diagnostics=())
        assert len(tested) == 1 and not rhythmic(tested[0])
        assert result.pattern[5] == "+" or result.pattern[3:8:4] == "++"


class TestPatternOf:
    def test_check_pattern_rules(self):
        assert check_pattern("+--+---+-+-") == "+--+---+-+-"
        assert check_pattern("+-+", 3) == "+-+"
        with pytest.raises(LengthMismatch):
            check_pattern("+-+")

    @pytest.mark.parametrize("symbols,reason", [
        ("+-+", "has 3 positions, wanted 11"),
        ("+--+---+-+-+", "has 12 positions, wanted 11"),
        ("x" * 11, "is not over +/-"),
        ("+--+---+-+1", "is not over +/-"),
        ("-" * 11, "has no stressed position"),
    ], ids=["short", "long", "alphabet", "digit", "no-stress"])
    def test_every_broken_rule_is_a_data_error(self, symbols, reason):
        with pytest.raises(DataError) as exc:
            check_pattern(symbols)
        assert str(exc.value) == f"pattern {symbols!r} {reason}"


_SYMBOLS = str.maketrans("01", "-+")


def _format_render(stresses, length):
    """The renderer as it was before hendecasyllables came from a table."""
    bits = stresses & (1 << length - 1) - 1
    return format(bits, f"0{length - 1}b")[::-1].translate(_SYMBOLS) + "-"


class TestResultRecord:
    def test_table_holds_every_hendecasyllable(self):
        table = scansion._ELEVEN
        assert len(table) == len(set(table)) == 1024
        for bits, pattern in enumerate(table):
            assert pattern == _format_render(bits, 11)
            if bits:
                assert check_pattern(pattern) == pattern
        # the one entry with no stress is no pattern; no fit reaches it,
        # since a fitted line stresses the position before the last
        with pytest.raises(DataError, match="has no stressed position"):
            check_pattern(table[0])

    @given(st.integers(min_value=2, max_value=16),
           st.integers(min_value=0, max_value=2 ** 20 - 1))
    @example(11, 2 ** 20 - 1)  # bits past the table's are masked off
    @settings(max_examples=500)
    def test_render_matches_the_format_render(self, target, stresses):
        assert scansion._render(stresses, target) == _format_render(
            stresses, target)

    @pytest.mark.parametrize("config", [
        ScanConfig(), ScanConfig(emit_diagnostics=True),
        ScanConfig(target_length=12), ScanConfig(14, True, True),
    ], ids=["default", "diagnostics", "target-12", "target-14-h-diag"])
    def test_record_reads_its_words(self, lexicon, mini_gold, config):
        scanned = 0
        for line in mini_gold:
            try:
                result = scan_line(line.text, lexicon, config)
            except Unfittable:
                continue
            scanned += 1
            words = phonological_parse(line.text, lexicon)
            assert result.words == tuple(words)
            assert result.candidate == (result.applied, len(result.pattern))
            assert (result.candidate.metrical_length
                    == config.target_length)
            assert result.syllabification == tuple(
                word.syllables for word in words)
            assert result.hyphenated() == " ".join(
                "-".join(word.syllables) for word in words)
            assert hash(result) == hash(scan_line(line.text, lexicon,
                                                  config))
        assert scanned >= 20

    def test_fields_in_order(self, lexicon):
        result = scan_line("En tanto que de rosa y azucena", lexicon)
        pattern, applied, ambiguous, words, diagnostics = result
        assert (pattern, applied, ambiguous, diagnostics) == (
            "-+---+---+-", (("synalepha", 7, False, False),), True, ())
        assert [word.word.surface for word in words] == [
            "En", "tanto", "que", "de", "rosa", "y", "azucena"]


def _site_costs(sites):
    """Per site, what ``_rank_costs`` says applying it adds to a subset's
    cost, the sites ranked as the fit ranks them: synalephas touching a
    stress or an h, the other synalephas, syneresis, then dieresis sites,
    each left to right."""
    def of(kind, released=None):
        return [i for i, s in enumerate(sites) if s.kind == kind and (
            released in (None, s.involves_stress or s.through_h))]

    order = (of("synalepha", True) + of("synalepha", False)
             + of("syneresis") + of("dieresis"))
    tiers = [len(of("synalepha", True)), len(of("synalepha")),
             len(order) - len(of("dieresis")), len(order)]
    costs = _rank_costs(tuple(tiers))
    deltas = [0] * len(sites)
    for rank, i in enumerate(order):
        deltas[i] = costs[rank + 1] - costs[rank]
    return deltas


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
    preferred = oracle.preferred(results, sites, config.target_length)
    try:
        result = fit_to_target(words, sites, config)
    except Unfittable as exc:
        assert not preferred
        assert set(exc.achievable) == {l for _, l, _ in results}
        assert list(exc.nearest) == _nearest_previews(
            results, sites, config.target_length), text
        return True
    assert preferred, text
    mask, pattern = preferred[0]
    assert result.pattern == pattern, text
    assert result.candidate.applied == oracle.chosen(sites, mask), text
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
        # by default the template tier is counted out when the cheapest
        # subset is not rhythmic; at another target the template is off
        ScanConfig(),
        ScanConfig(emit_diagnostics=True, target_length=12),
        # without diagnostics, away from the template, the cheapest subset
        # is counted out with no ranking at all
        ScanConfig(target_length=12),
        ScanConfig(h_blocks_synalepha=True),
    ], ids=["default-no-diagnostics", "target-12", "target-12-counted",
            "h-blocks-no-diagnostics"])
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
        mask, pattern = oracle.preferred(results, sites,
                                         config.target_length)[0]
        result = fit_to_target(words, sites, config)
        feasible = [p for _, _, p in results if p is not None]
        assert result.pattern == pattern
        assert result.candidate.applied == oracle.chosen(sites, mask)
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
            deltas = _site_costs(sites)
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


def test_site_costs_of_a_sub_list_keep_its_order():
    # the fit costs only the sites that shift the line: a sub-list's own
    # costs order its subsets as the whole list's costs of its sites do
    rng = random.Random(11)
    for _ in range(40):
        sites = []
        for position in range(rng.randint(1, 10)):
            kind = rng.choice(("synalepha", "syneresis", "dieresis"))
            sites.append(FigureSite(
                kind=kind, position=position,
                involves_stress=rng.random() < 0.3,
                through_h=kind == "synalepha" and rng.random() < 0.2))
        sub = _random_sites_subset(rng, sites)
        whole = _site_costs(sites)
        orders = []
        for deltas in (_site_costs(sub),
                       [whole[sites.index(site)] for site in sub]):
            orders.append(sorted(range(1 << len(sub)), key=lambda m: sum(
                d for i, d in enumerate(deltas) if m >> i & 1)))
        assert orders[0] == orders[1], sub


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
# at 11 the cheapest subset is not rhythmic, and the template tier finds
# one that is (stress on 6)
@example("alta maravilla aire cielo")
# at 5 the line must lose two syllables with one synalepha to merge: one
# syneresis joins it
@example("sol agua río y")
@settings(max_examples=200, deadline=None)
def test_counted_subset_equals_the_ranking(text):
    # the fit counts its winner, with or without diagnostics: at each target
    # its pattern, applied sites and ambiguity are those of the ranking DP
    # in the oracle, and it is unfittable where that finds no subset
    try:
        words = phonological_parse(text, default_lexicon())
    except EmptyLine:
        return
    for target in range(2, 17):
        for h_blocks in (False, True):
            sites = find_figure_sites(words, ScanConfig(
                h_blocks_synalepha=h_blocks))
            expected = oracle.reference_fit(words, sites, target)
            for diagnostics in (False, True):
                config = ScanConfig(target, h_blocks, diagnostics)
                try:
                    result = scan_line(text, config=config)
                except Unfittable:
                    outcome = None
                else:
                    outcome = (result.pattern, result.candidate.applied,
                               result.ambiguous)
                assert outcome == expected, (target, h_blocks, diagnostics)


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
    assert sum(word.frame.size for word in words) == len(syllables)
    assert words.stresses == sum(
        syl.stressed << i for i, syl in enumerate(syllables))
    assert words.lefts == sum(
        syl.split[0] << i for i, syl in enumerate(syllables)
        if syl.split is not None)
    for h_blocks in (False, True):
        sites = find_figure_sites(words, ScanConfig(h_blocks_synalepha=h_blocks))
        assert [(s.kind, s.position, s.involves_stress, s.through_h)
                for s in sites] == oracle.reference_sites(words, h_blocks)
