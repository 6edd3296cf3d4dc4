"""Scansion of Spanish hendecasyllables: rule engine, corpus tools,
per-line exact-match evaluation and a positional-stress baseline."""

from .phonology import (
    StressLexicon,
    SyllabifiedWord,
    Word,
    analyze_word,
    default_lexicon,
    is_prosodically_stressed,
    normalize_token,
    syllabify,
)
from .scansion import (
    FigureSite,
    ScanCandidate,
    ScanConfig,
    ScansionResult,
    find_figure_sites,
    fit_to_target,
    phonological_parse,
    scan_line,
)

__version__ = "0.1.0"

__all__ = [
    "FigureSite",
    "ScanCandidate",
    "ScanConfig",
    "ScansionResult",
    "StressLexicon",
    "SyllabifiedWord",
    "Word",
    "analyze_word",
    "default_lexicon",
    "find_figure_sites",
    "fit_to_target",
    "is_prosodically_stressed",
    "normalize_token",
    "phonological_parse",
    "scan_line",
    "syllabify",
    "__version__",
]
