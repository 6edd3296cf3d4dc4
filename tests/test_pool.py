"""The benchmark's line pool as a tier-1 guard.

``perfbench/reference.json.gz`` records an outcome for every pooled
``site_heavy`` and ``cli_novel`` line. Here all 30 site_heavy rounds and
all 60 cli_novel files replay theirs through ``reference.outcome``: the
whole table, 25,320 outcomes. Every site_heavy line is also fitted
against the oracle's ranking DP, the lines past 16 sites included, for
which the table records no outcome. The perfbench modules are imported as
they are, from their own directory, and only read.
"""

import sys
from pathlib import Path

import pytest

import oracle
from escansion import scan_line
from escansion.errors import Unfittable
from escansion.scansion import (ScanConfig, find_figure_sites, fit_to_target,
                                phonological_parse)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import inputs  # noqa: E402  (imports no escansion)
import reference  # noqa: E402


@pytest.fixture(scope="module")
def rounds():
    return [[text for text, _ in inputs.site_heavy_round(index)]
            for index in range(reference.SITE_HEAVY_ROUNDS)]


@pytest.fixture(scope="module")
def table():
    return reference.load()


def _replay(table, workload, units, lexicon) -> int:
    """Checks each unit's recorded outcomes and counts them; a line with no
    outcome is skipped."""
    checked = 0
    for index, texts in enumerate(units):
        recorded = reference.lookup(table, workload, index, texts)
        for text, expected in zip(texts, recorded):
            if expected is not None:
                assert reference.outcome(scan_line, text, lexicon) \
                    == expected, (workload, index, text)
                checked += 1
    return checked


def test_site_heavy_rounds_replay_their_outcomes(table, rounds, lexicon):
    # 120 of the 1,440 lines have more than 16 sites and no outcome
    assert _replay(table, "site_heavy", rounds, lexicon) == 1320


def test_cli_novel_files_replay_their_outcomes(table, lexicon):
    files = [inputs.novel_file(index, reference.CLI_LINES_PER_FILE)
             for index in range(reference.CLI_FILES)]
    assert _replay(table, "cli_novel", files, lexicon) == 24000


@pytest.mark.parametrize("h_blocks", [False, True],
                         ids=["h-free", "h-blocks"])
def test_site_heavy_fits_equal_the_ranking(rounds, lexicon, h_blocks):
    # the counted winner, applied sites and ambiguity are the ranking DP's
    # on every pool line at 11, whatever its number of sites
    config = ScanConfig(h_blocks_synalepha=h_blocks)
    past_sixteen = 0
    for texts in rounds:
        for text in texts:
            words = phonological_parse(text, lexicon)
            sites = find_figure_sites(words, config)
            try:
                result = fit_to_target(words, sites, config)
            except Unfittable:
                outcome = None
            else:
                outcome = (result.pattern, result.candidate.applied,
                           result.ambiguous)
            assert outcome == oracle.reference_fit(words, sites), text
            past_sixteen += len(sites) > 16
    assert past_sixteen == 120
