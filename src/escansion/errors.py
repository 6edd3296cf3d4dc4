"""Exception types shared across the package.

Grouped by whether they signal bad input data (DataError) or a broken
environment (file missing, unreadable model, ...). The CLI maps DataError
subclasses to exit code 2 and OS-level problems to exit code 1.
"""


class DataError(ValueError):
    """Base class for rejected input data."""


class EmptyAfterNormalization(DataError):
    """Token contained no pronounceable material (pure punctuation/digits)."""


class NoVowel(DataError):
    """Word has no syllabic nucleus."""


class EmptyLine(DataError):
    """Nothing remained of a verse line after normalization."""


class Unfittable(DataError):
    """No combination of figures reaches the target metrical length."""

    def __init__(self, message, achievable=(), nearest=()):
        super().__init__(message)
        self.achievable = tuple(sorted(achievable))
        self.nearest = tuple(nearest)


class LengthMismatch(DataError):
    """Pattern length differs from the expected number of positions."""


class MalformedXml(DataError):
    """Input file is not well-formed XML."""


class MalformedTei(DataError):
    """A TEI verse line carries a met or a number that does not parse."""


class MalformedTsv(DataError):
    """A TSV row has too few columns or a field that does not parse."""


class MalformedLexicon(DataError):
    """A lexicon line has a bad override value or no word left in it."""


class NotUtf8(DataError):
    """An input line holds bytes that do not decode as UTF-8."""


class UnnormalizableMet(DataError):
    """Raw met annotation cannot be coerced to 11 positions."""


class InsufficientData(DataError):
    """Too few poems to populate the requested splits."""


class EmptyInput(DataError):
    """An operation that needs at least one item received none."""


class AlignmentError(DataError):
    """Predictions cannot be joined to gold lines."""


class EmptyTrainingSet(DataError):
    """Baseline training requires at least one example."""


class CorruptModelFile(DataError):
    """Model file is truncated, tampered with, or from an unknown format."""
