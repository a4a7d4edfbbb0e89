"""Exception types shared across the package.

The CLI maps these onto exit codes: input problems exit 1, size limits
exit 2, and internal invariant breaches exit 3.
"""


class CritsetsError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(CritsetsError, ValueError):
    """An argument violates a documented precondition."""


class UnsupportedError(CritsetsError, ValueError):
    """The requested computation is outside the supported range."""


class SizeLimitError(CritsetsError):
    """Input exceeds a fixed exact-search or structural cap."""


class Graph6Error(CritsetsError, ValueError):
    """Malformed graph6 text; `offset` is the byte position of the problem."""

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class InternalError(CritsetsError):
    """An invariant the engine guarantees was violated; always a bug."""
