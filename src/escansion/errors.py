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
    """No combination of figures reaches the target metrical length.

    ``achievable`` holds every length the figures can reach, sorted, and
    ``nearest`` three (length, applied figures) previews of the subsets
    nearest the target. The fit does not build them: it hands over its
    ``sites`` (one snapshot tuple), its ``shifting`` sites as ``(cut,
    shift, index)``, ``end``, the achievable length nearest the target,
    and ``toward``, +1 when the target lies above the range and -1 below.
    ``nearest`` is worked out from those when first read, then kept, so a
    caller that reads only ``achievable`` never pays for it. An explicit
    ``nearest`` is kept as given. Either way the exception holds plain
    data only, so it pickles."""

    def __init__(self, message, achievable=(), nearest=(), *, sites=None,
                 shifting=(), end=0, toward=1):
        super().__init__(message)
        self.achievable = tuple(sorted(achievable))
        self._nearest = tuple(nearest) if sites is None else None
        self._plan = None if sites is None else (sites, shifting, end, toward)

    @property
    def nearest(self) -> tuple[tuple[int, str], ...]:
        """The subset applying every site whose shift is toward the
        target, that one plus its lowest free sites (those not among the
        shifting ones), then that one with one shifting site flipped, a
        step further: three at most, ties by mask. Each is given as its
        length and its sites, as ``kind@position`` joined by ``;``, or
        ``none``."""
        if self._nearest is None:
            sites, shifting, end, toward = self._plan
            best = sum(1 << i for _, shift, i in shifting if shift == toward)
            moving = {i for _, _, i in shifting}
            free = [1 << i for i in range(len(sites)) if i not in moving]
            flipped = sorted(best ^ 1 << i for _, _, i in shifting)
            masks = ([(end, best)] + [(end, best | bit) for bit in free[:2]]
                     + [(end - toward, mask) for mask in flipped[:2]])[:3]
            self._nearest = tuple(
                (length, ";".join([str(site) for i, site in enumerate(sites)
                                   if mask >> i & 1]) or "none")
                for length, mask in masks)
            self._plan = None
        return self._nearest


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
