"""Exception types shared across the package."""


class DahaError(Exception):
    """Base class for all errors raised by this package."""


class IncompatibleRingError(DahaError):
    """Two operands live over different coefficient rings."""


class AlphabetMismatchError(DahaError):
    """Two operands are written over different alphabets."""


class NotAUnitError(DahaError):
    """Inversion was requested for something that is not a unit."""


class UnitViolationError(DahaError):
    """A substitution assigned a non-unit to an invertible symbol."""


class ZeroPolynomialError(DahaError):
    """The zero polynomial has no leading term."""


class OrientationError(DahaError):
    """A rule or critical-pair difference cannot be oriented admissibly."""


class InsufficientCompletionError(DahaError):
    """The rewrite system is not complete far enough to decide the query."""


class ExtractionError(DahaError):
    """Template extraction failed to verify against the rewrite system."""


class UnsupportedPresetError(DahaError):
    """The requested construction is not defined for this algebra."""


class CertificateError(DahaError):
    """A reduction certificate is malformed or does not replay."""


class PresentationError(DahaError):
    """An algebra presentation file is malformed."""


class ExactDivisionError(DahaError):
    """An exact division had a nonzero remainder."""


class ExponentRangeError(DahaError):
    """A parameter exponent left the range that a packed exponent key holds."""


class ParseError(DahaError, ValueError):
    """A text failed to parse; carries the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.message = message
        self.pos = pos
