"""Shared exception types for input validation and size caps."""


class EmptyInputError(ValueError):
    """An operation received an empty set where a nonempty one is required."""


class TooFewPointsError(ValueError):
    """An operation needs more points or elements than were supplied."""


class RangeTooSmallError(ValueError):
    """A random family asks for more distinct values than its range holds."""


class DegeneratePairError(ValueError):
    """Two coincident points do not determine a bisector."""


class MismatchedInputsError(ValueError):
    """A derived structure was paired with a point set it was not built from."""


class CapExceededError(RuntimeError):
    """The input exceeds a configured size cap."""


class ParseError(ValueError):
    """Malformed input text, with a 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
