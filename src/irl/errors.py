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


def class_refusal(obj, cls, name) -> PreconditionError:
    """The refusal "NAME expects a CLS instance, got TYPE" (with "an" before a vowel)."""
    names = " or ".join(c.__name__ for c in cls) if isinstance(cls, tuple) else cls.__name__
    article = "an" if names[0] in "AEIOU" else "a"
    return PreconditionError(f"{name} expects {article} {names} instance, got {type(obj).__name__}")


def check_instance(obj, cls, name, mode=None):
    """``obj`` when it is a ``cls`` and, with ``mode``, of that mode; otherwise raise ``PreconditionError``."""
    if not isinstance(obj, cls):
        raise class_refusal(obj, cls, name)
    if mode is not None and obj.mode != mode:
        raise PreconditionError(f"{name} expects a {mode}-mode instance, got {obj.mode!r}")
    return obj


def check_entries(seq, name, least, increasing=False, min_len=1):
    """``seq`` as a tuple of at least ``min_len`` ints, not bools, each at least ``least`` (0 or 1).

    With ``increasing`` the entries must also strictly increase.  Otherwise
    raise ``PreconditionError`` for the first fault, checked in that order.
    """
    try:
        entries = tuple(seq)
    except TypeError:
        raise PreconditionError(f"{name} requires an iterable of integers, got {seq!r}") from None
    if len(entries) < min_len:
        raise PreconditionError(f"{name} requires a nonempty sequence" if min_len == 1
                                else f"{name} requires at least {min_len} entries")
    for x in entries:
        if not isinstance(x, int) or isinstance(x, bool) or x < least:
            sign = "positive" if least else "non-negative"
            raise PreconditionError(f"{name} requires {sign} integer entries, got {x!r}")
    if increasing and any(a >= b for a, b in zip(entries, entries[1:])):
        raise PreconditionError(f"{name} requires a strictly increasing sequence, got {entries}")
    return entries
