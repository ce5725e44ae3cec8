"""Exception hierarchy shared by all semcom modules."""


class SemcomError(Exception):
    """Base class for every error raised by this package."""


class ParseError(SemcomError):
    """Malformed file header or syntax; carries the byte offset where parsing failed."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class TruncatedError(SemcomError):
    """File payload shorter than its header declares."""


class IoError(SemcomError):
    """Underlying OS read/write failure."""


class DomainError(SemcomError):
    """Argument outside an operation's admissible domain."""


class ShapeError(SemcomError):
    """Mismatched resolutions or array dimensions."""


class TooSmallError(SemcomError):
    """Input smaller than the minimum an operation supports."""


class TooLargeError(SemcomError):
    """Instance exceeds a hard size guard."""


class MissingMapError(SemcomError):
    """An externally supplied semantic map file does not exist."""


class CorruptPayloadError(SemcomError):
    """Encoded payload bytes inconsistent with their header."""


class ValidationFailedError(SemcomError):
    """No admissible downscaling factor reaches the service's quality threshold.

    ``quality`` holds the best score achieved (at the smallest factor tried).
    """

    def __init__(self, message: str, quality: float):
        super().__init__(message)
        self.quality = quality


class ConfigError(SemcomError):
    """Experiment config malformed, not UTF-8 text, or violating invariants (unreadable: IoError)."""
