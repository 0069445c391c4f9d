"""Exception types shared across the package."""


class LCGraphError(Exception):
    """Base class for all errors raised by this package."""


class ModeMismatchError(LCGraphError):
    """Rational and numeric coefficients were given for one series; only
    the LCNumber constructor raises it, as arithmetic converts to floats."""


class NumericModeRequired(LCGraphError):
    """An exact rational computation hit an irrational value.

    Raised by square roots of non-square rationals and, inside root
    lifting, by an irrational branch coefficient, where ``lift_roots``
    catches it and redoes the lift numerically.  Callers either switch the
    whole computation to numeric coefficients or propagate the error.
    """


class SeriesParseError(LCGraphError):
    """Malformed series literal.  Carries the character position."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (column {position + 1})"
        super().__init__(message)
        self.position = position


class GraphValidationError(LCGraphError):
    """Input graph violates a structural requirement."""


class LiftError(LCGraphError):
    """Root lifting failed (complex branches, depth cap, or lost precision)."""
