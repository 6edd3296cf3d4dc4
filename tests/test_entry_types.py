"""Every callable of ``escansion.__all__``, and the text, gold, corpus and
scoring entry points a caller feeds by hand (``phonology.clean_text``,
``scansion.check_pattern``, ``corpus.normalize_met``, ``corpus.CorpusLine``,
``corpus.split``, ``metrics.evaluate``), either returns or raises a
DataError when one argument is None, a bool, a float, bytes or a list in
place of its value. It returns only where that is documented: the records
that check nothing when built, a None that stands for the default, a bool
for a flag and a list that holds valid ratios. The one other exception is
the word cache's TypeError for an argument it cannot hash. Imports no
numpy."""

import inspect
from typing import Callable, NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import escansion
from escansion import corpus, metrics, phonology, scansion
from escansion.errors import DataError

_LINE = "cubra de nieve la hermosa cumbre"
_PATTERN = "-+---+---+-"

_SCALARS = st.one_of(st.none(), st.booleans(), st.floats(),
                     st.binary(max_size=8))
# a list holds at least one item, so that it is never a valid empty list
_BAD = st.one_of(_SCALARS, st.lists(_SCALARS, min_size=1, max_size=3))

_ANY = (object,)
_NONE = (type(None),)


class Entry(NamedTuple):
    call: Callable
    args: dict  # a valid value for each argument, by name
    # the types of wrong value each argument takes with success, as
    # documented; an argument not named takes none
    accepts: dict = {}
    hashed: bool = False  # the arguments key a cache: a list is a TypeError


def _entries() -> dict:
    lexicon = escansion.default_lexicon()
    words = escansion.phonological_parse(_LINE, lexicon)
    sites = escansion.find_figure_sites(words)
    result = escansion.scan_line(_LINE, lexicon)
    word = words[0]
    config = escansion.ScanConfig()
    flags = {"h_blocks_synalepha": (bool,), "emit_diagnostics": (bool,)}

    def record(call, args):
        """A named tuple that checks nothing when built."""
        return Entry(call, args, dict.fromkeys(args, _ANY))

    return {
        "FigureSite": record(escansion.FigureSite, dict(sites[0]._asdict())),
        "ScanCandidate": record(escansion.ScanCandidate,
                                dict(result.candidate._asdict())),
        "ScansionResult": record(escansion.ScansionResult,
                                 dict(result._asdict())),
        "Word": record(escansion.Word, dict(word.word._asdict())),
        "SyllabifiedWord": record(escansion.SyllabifiedWord,
                                  dict(word._asdict())),
        "ScanConfig": Entry(escansion.ScanConfig, dict(config._asdict()),
                            flags),
        "StressLexicon": Entry(escansion.StressLexicon, {
            "unstressed_words": lexicon.unstressed_words,
            "overrides": dict(lexicon.overrides)}),
        "analyze_word": Entry(escansion.analyze_word,
                              {"raw": "nieve", "lexicon": lexicon},
                              hashed=True),
        "default_lexicon": Entry(escansion.default_lexicon, {}),
        "find_figure_sites": Entry(escansion.find_figure_sites,
                                   {"words": words, "config": config},
                                   {"config": _NONE}),
        "fit_to_target": Entry(escansion.fit_to_target,
                               {"words": words, "sites": sites,
                                "config": config},
                               {"config": _NONE}),
        "is_prosodically_stressed": Entry(escansion.is_prosodically_stressed,
                                          {"word": "la", "lexicon": lexicon}),
        "normalize_token": Entry(escansion.normalize_token, {"raw": "Amor,"}),
        "phonological_parse": Entry(escansion.phonological_parse,
                                    {"line": _LINE, "lexicon": lexicon}),
        "scan_line": Entry(escansion.scan_line,
                           {"line": _LINE, "lexicon": lexicon,
                            "config": config},
                           {"lexicon": _NONE, "config": _NONE}),
        "syllabify": Entry(escansion.syllabify, {"word": "nieve"}),
        "clean_text": Entry(phonology.clean_text, {"text": _LINE}),
        "check_pattern": Entry(scansion.check_pattern,
                               {"symbols": _PATTERN, "length": 11},
                               # an integral float equals the length
                               {"length": (float,)}),
        "normalize_met": Entry(corpus.normalize_met, {"raw": _PATTERN}),
        "CorpusLine": Entry(corpus.CorpusLine, {
            "poem_id": "p", "line_no": 1, "text": _LINE, "gold": _PATTERN,
            "manual": False}, {"manual": (bool,)}),
        "split": Entry(corpus.split, {
            "lines": [corpus.CorpusLine(f"p{i}", 1, f"{_LINE} {i}", _PATTERN)
                      for i in range(3)],
            "ratios": corpus.DEFAULT_RATIOS, "seed": 13},
            # three numbers summing to 1, such as [1.0, 0.0, 0.0]
            {"ratios": (list,)}),
        "evaluate": Entry(metrics.evaluate,
                          {"pairs": [(_PATTERN, _PATTERN, _LINE)],
                           "unmatched": 0}),
    }


_ENTRIES = _entries()
_CASES = [(name, param) for name, entry in _ENTRIES.items()
          for param in entry.args]


def test_every_public_callable_is_covered():
    public = {name for name in escansion.__all__
              if callable(getattr(escansion, name))}
    assert public <= set(_ENTRIES)
    for entry in _ENTRIES.values():
        # every argument has a valid value, and the valid call returns
        names = getattr(entry.call, "_fields", None) or list(
            inspect.signature(entry.call).parameters)
        assert list(entry.args) == list(names)
        entry.call(**entry.args)


@pytest.mark.parametrize("name, param", _CASES)
@settings(max_examples=30, deadline=None)
@given(bad=_BAD)
def test_a_wrong_value_is_a_data_error(name, param, bad):
    entry = _ENTRIES[name]
    try:
        entry.call(**{**entry.args, param: bad})
    except DataError:
        return
    except TypeError as exc:
        if entry.hashed and isinstance(bad, list):
            assert "unhashable" in str(exc)
            return
        raise
    assert isinstance(bad, entry.accepts.get(param, ())), (
        f"{name}({param}={bad!r}) returned")
