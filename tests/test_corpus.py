import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wordbank
from escansion.corpus import (
    CorpusLine,
    CorpusSplit,
    DEFAULT_RATIOS,
    clean_text,
    dedupe_and_clean,
    normalize_met,
    parse_tei,
    parse_tei_dir,
    read_tsv,
    split,
    write_split,
    write_tsv,
)
from escansion.errors import (
    DataError, InsufficientData, MalformedTei, MalformedTsv, MalformedXml,
    UnnormalizableMet)

SONNET_TEI = """<?xml version="1.0" encoding="UTF-8"?>
<TEI xmlns="http://www.tei-c.org/ns/1.0">
  <teiHeader><fileDesc><titleStmt>
    <title>Soneto de prueba</title>
  </titleStmt></fileDesc></teiHeader>
  <text><body>
    <div type="sonnet" xml:id="s001" ana="manual">
      <lg type="cuarteto">
        <l n="1" met="+--+---+-+-">cubra de nieve la hermosa cumbre</l>
        <l n="2" met="-+---+---+-">en tanto que de rosa y azucena</l>
        <l n="3" met="-+---+---+">linea aguda de diez posiciones mas</l>
        <l n="4" met="-+---+---+--">linea esdrujula con doce posiciones</l>
      </lg>
      <lg type="cuarteto">
        <l n="5">linea sin anotacion se descarta</l>
        <l n="6" met="+-+--+-+-+-">goza cuello cabello labio y frente</l>
        <l n="7" met="10001000010">alfabeto binario tambien sirve</l>
        <l n="8" met="-+-+-+-+-+-">en tierra en humo en polvo en sombra en nada</l>
      </lg>
    </div>
    <div type="sonnet" xml:id="s002">
      <lg>
        <l n="1" met="---+---+-+-">cuando me paro a contemplar mi estado</l>
        <l n="2" met="-+-+-----+-">y a ver los pasos por do me han traido</l>
      </lg>
    </div>
  </body></text>
</TEI>
"""


@pytest.fixture
def tei_file(tmp_path):
    path = tmp_path / "sonnets.xml"
    path.write_text(SONNET_TEI, encoding="utf-8")
    return path


class TestParseTei:
    def test_counts_and_order(self, tei_file):
        lines = parse_tei(tei_file)
        assert len(lines) == 9  # one line lacks met and is skipped
        assert [ln.line_no for ln in lines] == [1, 2, 3, 4, 6, 7, 8, 1, 2]

    def test_gold_pattern_preserved(self, tei_file):
        first = parse_tei(tei_file)[0]
        assert first.gold == "+--+---+-+-"
        assert first.text == "cubra de nieve la hermosa cumbre"

    def test_poem_ids_from_xml_id(self, tei_file):
        ids = {ln.poem_id for ln in parse_tei(tei_file)}
        assert ids == {"s001", "s002"}

    def test_manual_flag_inherited(self, tei_file):
        lines = parse_tei(tei_file)
        assert all(ln.manual for ln in lines if ln.poem_id == "s001")
        assert not any(ln.manual for ln in lines if ln.poem_id == "s002")

    def test_length_variants_normalized(self, tei_file):
        by_no = {(ln.poem_id, ln.line_no): ln for ln in parse_tei(tei_file)}
        assert by_no[("s001", 3)].gold == "-+---+---+-"
        assert by_no[("s001", 4)].gold == "-+---+---+-"
        assert by_no[("s001", 7)].gold == "+---+----+-"

    def test_unusable_number_takes_the_running_line_number(self, tmp_path):
        path = tmp_path / "c.xml"
        path.write_text(
            '<TEI><text><body><div xml:id="p"><lg>'
            '<l n="7" met="+--+---+-+-">cubra de nieve la hermosa cumbre</l>'
            '<l met="-+---+---+-">en tanto que de rosa y azucena</l>'
            '<l n="tres" met="+-+--+-+-+-">goza cuello cabello labio y frente</l>'
            "</lg></div></body></text></TEI>", encoding="utf-8")
        assert [ln.line_no for ln in parse_tei(path)] == [7, 2, 3]

    @pytest.mark.parametrize("n", ["1_0", "+2", " 3", "\u0663"])
    def test_number_is_ascii_digits(self, tmp_path, n):
        # int() reads each as a number: 1_0 as 10, the Arabic-Indic ٣ as 3
        path = tmp_path / "c.xml"
        path.write_text(
            '<TEI><div xml:id="p">'
            f'<l n="{n}" met="+--+---+-+-">cubra de nieve la hermosa cumbre</l>'
            '<l n="7" met="-+---+---+-">en tanto que de rosa y azucena</l>'
            "</div></TEI>", encoding="utf-8")
        assert [ln.line_no for ln in parse_tei(path)] == [1, 7]

    @pytest.mark.parametrize("ns,unread", [
        (['n="3"', 'n="x"', 'n="2"'], "n 'x'"),
        (['n="2"', 'n="1_0"'], "n '1_0'"),
        (['n="x"', 'n="1"'], "n 'x'"),
        (['n="2"', ""], "no n"),
    ], ids=["given-after", "literal-form", "given-after-first", "no-n"])
    def test_number_by_place_shared_is_malformed(self, tmp_path, ns, unread):
        # a line numbered by its place takes a number another line has,
        # before or after it
        texts = ["cubra de nieve la hermosa cumbre",
                 "en tanto que de rosa y azucena",
                 "goza cuello cabello labio y frente"]
        path = tmp_path / "c.xml"
        path.write_text(
            '<TEI><div xml:id="s1">'
            + "".join(f'<l {n} met="+--+---+-+-">{text}</l>'
                      for n, text in zip(ns, texts))
            + "</div></TEI>", encoding="utf-8")
        number = 1 if ns[0] == 'n="x"' else 2
        with pytest.raises(MalformedTei) as info:
            parse_tei(path)
        assert str(info.value) == (
            f"{path}: poem s1: an l with {unread} is numbered {number} by "
            "its place, a number another line of the poem has")

    def test_malformed_xml(self, tmp_path):
        bad = tmp_path / "bad.xml"
        bad.write_text("<TEI><l met='+'>oops", encoding="utf-8")
        with pytest.raises(MalformedXml):
            parse_tei(bad)

    def test_full_sonnet_count_preserved(self, tmp_path, mini_gold):
        sonnet = [ln for ln in mini_gold
                  if ln.poem_id == "garcilaso-soneto-23"]
        assert len(sonnet) == 14
        body = "".join(f'<l n="{ln.line_no}" met="{ln.gold}">{ln.text}</l>'
                       for ln in sonnet)
        path = tmp_path / "sonnet.xml"
        path.write_text(f'<TEI><text><body><div xml:id="g23"><lg>{body}'
                        "</lg></div></body></text></TEI>", encoding="utf-8")
        parsed = parse_tei(path)
        assert len(parsed) == 14
        assert [ln.gold for ln in parsed] == [ln.gold for ln in sonnet]


class TestParseTeiDir:
    @pytest.mark.parametrize("bodies,pid", [
        # two files of one stem give the same automatic id
        ({"a/x.xml": '<lg><l n="1" met="+--+---+-+-">cubra de nieve</l></lg>',
          "b/x.xml": '<lg><l n="1" met="-+---+---+-">en tanto que</l></lg>'},
         "x-0001"),
        # with no number in common, the two would merge into one poem
        ({"a/x.xml": '<lg><l n="1" met="+--+---+-+-">cubra de nieve</l></lg>',
          "b/x.xml": '<lg><l n="2" met="-+---+---+-">en tanto que</l></lg>'},
         "x-0001"),
        # a given id, and a line of the second file numbered by its place
        ({"a.xml": '<div xml:id="s1"><l n="2" met="+--+---+-+-">cubra</l>'
                   "</div>",
          "b.xml": '<div xml:id="s1"><l n="5" met="+--+---+-+-">rosa</l>'
                   '<l n="y" met="-+---+---+-">en tanto que</l></div>'},
         "s1"),
    ], ids=["same-stem", "same-stem-disjoint-numbers", "given-id"])
    def test_poem_read_from_two_files_is_malformed(self, tmp_path, bodies,
                                                   pid):
        for name, body in bodies.items():
            path = tmp_path / name
            path.parent.mkdir(exist_ok=True)
            path.write_text(f"<TEI>{body}</TEI>", encoding="utf-8")
        first, second = sorted(tmp_path / name for name in bodies)
        with pytest.raises(MalformedTei) as info:
            parse_tei_dir(tmp_path)
        assert str(info.value) == \
            f"{second}: poem {pid} was read from {first} already"


class TestNormalizeMet:
    @pytest.mark.parametrize("raw,expected", [
        ("+--+---+-+-", "+--+---+-+-"),
        ("-+---+---+", "-+---+---+-"),
        ("-+---+---+--", "-+---+---+-"),
        ("10001000010", "+---+----+-"),
    ])
    def test_accepted_shapes(self, raw, expected):
        assert normalize_met(raw) == expected

    @pytest.mark.parametrize("raw", ["+-+", "-" * 10, "+" * 12, "abc", ""])
    def test_rejected_shapes(self, raw):
        with pytest.raises(UnnormalizableMet):
            normalize_met(raw)

    def test_no_stressed_position_is_unnormalizable(self):
        with pytest.raises(UnnormalizableMet):
            normalize_met("-" * 11)

    @pytest.mark.parametrize("raw,reason", [
        ("abc", "met 'abc' not over +/- or 1/0"),
        ("+-+", "met '+-+': pattern '+-+' has 3 positions, wanted 11"),
        ("-" * 10, f"met {'-' * 10!r}: pattern {'-' * 10!r} has 10 positions,"
                   " wanted 11"),
        ("0" * 11, f"met {'0' * 11!r}: pattern {'-' * 11!r} has no stressed"
                   " position"),
    ], ids=["alphabet", "short", "weak-oxytone-shape", "no-stress"])
    def test_rejection_names_the_met(self, raw, reason):
        with pytest.raises(UnnormalizableMet) as exc:
            normalize_met(raw)
        assert str(exc.value) == reason

    @given(st.text(alphabet="+-", min_size=10, max_size=12))
    @settings(max_examples=200)
    def test_idempotent(self, raw):
        try:
            once = normalize_met(raw)
        except UnnormalizableMet:
            return
        assert normalize_met(once) == once


class TestCorpusLine:
    @pytest.mark.parametrize("gold", ["+-+", "x" * 11, "-" * 11])
    def test_bad_gold_is_a_data_error(self, gold):
        with pytest.raises(DataError):
            CorpusLine("p", 1, "texto", gold)

    def test_line_no_zero_is_a_data_error(self):
        with pytest.raises(DataError, match="line_no starts at 1"):
            CorpusLine("p", 0, "texto", "+--+---+-+-")

    @pytest.mark.parametrize("line_no", ["3", 3.0, True, None])
    def test_line_no_is_an_integer(self, line_no):
        with pytest.raises(DataError) as exc:
            CorpusLine("p", line_no, "texto", "+--+---+-+-")
        assert str(exc.value) == f"line_no must be an integer, not {line_no!r}"


class TestDedupeAndClean:
    def test_duplicates_drop_keeping_first(self):
        a = CorpusLine("p1", 1, "El mar, el mar.", "+-+-+-+-+-+")
        b = CorpusLine("p2", 5, "¡el MAR el mar!", "+++++++++++")
        out = dedupe_and_clean([a, b])
        assert len(out) == 1
        assert out[0].poem_id == "p1"

    def test_punctuation_and_case_removed(self):
        line = CorpusLine("p", 1, "¡Oh dulces prendas...!", "+-+-+-+-+-+")
        assert dedupe_and_clean([line])[0].text == "oh dulces prendas"

    def test_no_duplicates_is_identity(self):
        lines = [CorpusLine("p", i + 1, f"verso numero {w}", "+-+-+-+-+-+")
                 for i, w in enumerate(["uno", "dos", "tres"])]
        assert [ln.text for ln in dedupe_and_clean(lines)] == [
            "verso numero uno", "verso numero dos", "verso numero tres"]

    def test_clean_text_examples(self):
        assert clean_text("¡Oh dulces prendas...!") == "oh dulces prendas"
        assert clean_text("  doble   espacio ") == "doble espacio"
        assert clean_text("Rosa,Azucena") == "rosa azucena"


def _toy_corpus(n_poems=12, lines_per_poem=4):
    lines = []
    for p in range(n_poems):
        for i in range(lines_per_poem):
            lines.append(CorpusLine(
                f"poem{p:02d}", i + 1,
                f"texto unico {p} {i}", "+--+---+-+-"))
    return lines


class TestSplit:
    def test_everything_in_train(self):
        lines = _toy_corpus()
        result = split(lines, ratios=(1.0, 0.0, 0.0), seed=3)
        assert result.sizes() == (len(lines), 0, 0)

    def test_same_seed_same_split(self):
        lines = _toy_corpus()
        a = split(lines, seed=11)
        b = split(lines, seed=11)
        assert a == b

    def test_different_seed_usually_differs(self):
        lines = _toy_corpus()
        a = split(lines, seed=1)
        b = split(lines, seed=2)
        assert a.train != b.train

    def test_poems_never_straddle_sets(self):
        lines = _toy_corpus()
        result = split(lines, seed=5)
        for part in result.parts():
            ids = {ln.poem_id for ln in part}
            for other in result.parts():
                if other is part:
                    continue
                assert not ids & {ln.poem_id for ln in other}

    def test_ratio_targets_roughly_hit(self):
        lines = _toy_corpus(n_poems=60, lines_per_poem=14)
        result = split(lines, ratios=DEFAULT_RATIOS, seed=13)
        total = len(lines)
        for size, ratio in zip(result.sizes(), DEFAULT_RATIOS):
            assert abs(size - ratio * total) <= 14  # one poem of slack

    def test_insufficient_poems(self):
        lines = _toy_corpus(n_poems=2)
        with pytest.raises(InsufficientData):
            split(lines, ratios=(0.5, 0.3, 0.2), seed=1)

    def test_bad_ratios(self):
        with pytest.raises(ValueError):
            split(_toy_corpus(), ratios=(0.5, 0.5, 0.5), seed=1)

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=50, deadline=None)
    def test_disjoint_and_complete_for_any_seed(self, seed):
        lines = _toy_corpus(n_poems=9, lines_per_poem=3)
        result = split(lines, seed=seed)
        keys = [(ln.poem_id, ln.line_no) for part in result.parts()
                for ln in part]
        assert len(keys) == len(lines)
        assert len(set(keys)) == len(lines)

    def test_poems_sharing_a_text_are_rejected(self):
        lines = [CorpusLine(pid, 1, "el mismo verso", "+--+---+-+-")
                 for pid in ("p1", "p2")]
        with pytest.raises(ValueError, match="duplicate texts across splits"):
            split(lines, ratios=(0.5, 0.5, 0.0), seed=1)

    def test_split_invariant_rejects_leak(self):
        line = CorpusLine("p", 1, "texto", "+--+---+-+-")
        with pytest.raises(ValueError):
            CorpusSplit(train=(line,), eval=(line,), test=(),
                        seed=0, ratios=(0.5, 0.5, 0.0))


class TestRoundTrip:
    def test_tsv_round_trip(self, tmp_path):
        lines = dedupe_and_clean(_toy_corpus())
        path = tmp_path / "corpus.tsv"
        write_tsv(lines, path, include_manual=True)
        back = read_tsv(path)
        assert [(l.poem_id, l.line_no, l.text, l.gold) for l in back] == \
               [(l.poem_id, l.line_no, l.text, l.gold) for l in lines]

    def test_parse_serialize_parse(self, tei_file, tmp_path):
        lines = parse_tei(tei_file)
        path = tmp_path / "c.tsv"
        write_tsv(lines, path)
        back = read_tsv(path)
        assert [(l.poem_id, l.line_no, l.text, l.gold) for l in back] == \
               [(l.poem_id, l.line_no, l.text, l.gold) for l in lines]

    @pytest.mark.parametrize("row,reason", [
        ("p1\tfirst\tcubra de nieve\t+--+---+-+-", "not an integer"),
        ("p1\t1\tcubra de nieve", "4 columns"),
        ("p1\t0\tcubra de nieve\t+--+---+-+-", "starts at 1"),
        ("p1\t1\tcubra de nieve\t+-+", "has 3 positions, wanted 11"),
    ])
    def test_bad_row_names_path_and_line(self, tmp_path, row, reason):
        path = tmp_path / "bad.tsv"
        path.write_text("p1\t1\tok\t+--+---+-+-\n\n" + row + "\n",
                        encoding="utf-8")
        with pytest.raises(MalformedTsv, match=reason) as info:
            read_tsv(path)
        assert str(info.value).startswith(f"{path}:3: ")

    @pytest.mark.parametrize("line_no", ["1_0", "+2", " 3", "\u0663"])
    def test_line_no_is_ascii_digits(self, tmp_path, line_no):
        # int() reads each as a number: 1_0 as 10, the Arabic-Indic ٣ as 3
        path = tmp_path / "gold.tsv"
        path.write_text(f"p1\t01\tok\t+--+---+-+-\n"
                        f"p1\t{line_no}\tcubra\t+--+---+-+-\n",
                        encoding="utf-8")
        with pytest.raises(MalformedTsv) as info:
            read_tsv(path)
        assert str(info.value) == (f"{path}:2: line_no {line_no!r} "
                                   "is not an integer")

    def test_split_manifests(self, tmp_path):
        result = split(_toy_corpus(), seed=4)
        meta = write_split(result, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "eval.tsv", "split.json", "test.tsv", "train.tsv"]
        on_disk = json.loads((tmp_path / "split.json").read_text())
        assert on_disk == meta
        assert sum(meta["counts"].values()) == len(_toy_corpus())


def test_synthetic_corpus_is_valid_and_deterministic():
    a = wordbank.synthetic_corpus(30, seed=21)
    b = wordbank.synthetic_corpus(30, seed=21)
    assert a == b
    assert len({ln.text for ln in a}) == 30
