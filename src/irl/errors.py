"""Exception types shared across the package.

Every exception carries a stable machine-readable ``code``; the CLI turns
any of these into an error payload with that code instead of crashing.
"""


class IrlError(Exception):
    """Base class for all structured errors raised by this package."""

    code = "error"


class PreconditionError(IrlError):
    """An operation was called outside its stated domain."""

    code = "precondition"


class FormatError(IrlError):
    """A file, payload, or parameter does not parse or validate."""

    code = "format"


class OverflowLimitError(IrlError):
    """A value would exceed the supported machine word width."""

    code = "overflow"


class BudgetExceededError(IrlError):
    """An exhaustive enumeration is larger than the configured budget."""

    code = "budget"

    def __init__(self, message, count=None):
        super().__init__(message)
        self.count = count


class NotInvariantError(IrlError):
    """A colouring required to be shift-invariant is not.

    ``witness`` holds a pair ((tuple, colour), (tuple, colour)) of
    equal-difference tuples with unequal colours.
    """

    code = "not-invariant"

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class WindowExhaustedError(IrlError):
    """A decode query cannot be answered inside the given finite window."""

    code = "window-exhausted"


def check_int(value, name, least, error=PreconditionError):
    """``value`` when it is an int, not a bool, and at least ``least``; otherwise raise ``error``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise error(f"{name} must be an integer >= {least}, got {value!r}")
    return value
