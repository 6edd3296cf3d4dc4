import os
from pathlib import Path

import pytest

from escansion.corpus import bundled_mini_gold
from escansion.phonology import default_lexicon
from escansion.scansion import ScanConfig

# pytest puts src on this process's path (pyproject's pythonpath); the
# tests that run ``python -m escansion`` need it on their children's too
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (
    str(Path(__file__).resolve().parents[1] / "src"),
    os.environ.get("PYTHONPATH"))))


@pytest.fixture(scope="session")
def lexicon():
    return default_lexicon()


@pytest.fixture(scope="session")
def mini_gold():
    return bundled_mini_gold()


@pytest.fixture(scope="session")
def config():
    return ScanConfig()
