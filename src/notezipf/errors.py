"""Exception types shared across the package."""

from __future__ import annotations


class NoteZipfError(Exception):
    """Base class for all errors raised by this package."""


class SmfError(NoteZipfError):
    """Base class for Standard MIDI File decoding errors."""


class MissingHeader(SmfError):
    """Input does not start with an MThd header chunk."""


class TruncatedChunk(SmfError):
    """A chunk's declared length runs past the end of the buffer."""


class InvalidVlq(SmfError):
    """Variable-length quantity longer than 4 bytes or unterminated."""


class SmpteDivision(SmfError):
    """SMPTE timing (division high bit set) is not supported."""


class DanglingStatus(SmfError):
    """Data byte encountered with no running status in scope."""


class EmptyCorpus(NoteZipfError):
    """No tokens survived tokenization; nothing to count."""


class DecodeError(NoteZipfError):
    """Text input is not valid character data."""


class DomainError(NoteZipfError):
    """Numeric argument outside the function's domain."""


class InsufficientSupport(NoteZipfError):
    """Too few data points to run an estimator."""


class NonConvergence(NoteZipfError):
    """Iterative scheme hit its iteration cap before converging."""


class NoRoot(NoteZipfError):
    """The occurrence-cap relation has no solution above 1 (T/V <= 1)."""


class DegenerateTable(NoteZipfError):
    """Rank table carries no usable shape (e.g. all counts equal)."""
