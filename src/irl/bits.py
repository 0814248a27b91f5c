"""Binary-support arithmetic on positive naturals.

A positive integer is viewed as the finite set of positions carrying a 1
in its binary expansion (position 0 = least significant digit).  The two
endpoint functions of that set, contiguous all-ones blocks, and the
apartness/separation predicates are the kernel that the reduction and
oracle machinery sits on.

x < y are apart when highest_bit(x) < lowest_bit(y), that is, when y is
a multiple of 2^(bit length of x); every apartness test in the package
uses the second form.

Values are capped at WORD_BITS bits.  Anything larger is reported as a
structured overflow, never silently accepted: a wrapped value would
corrupt the bit endpoints that everything else depends on.

Each value is checked once.  A plain int in 1..MAX_VALUE passes one
type-and-range test; anything else (a bool, an int subclass, a non-int,
zero or below, or a value above WORD_BITS bits) takes the exact checks,
which accept or raise exactly as they would on their own.  Callers that
need both bit endpoints, such as ``pair_colour`` and ``decode``, check a
value once and read its endpoints from the checked int.
"""

from irl.errors import OverflowLimitError, PreconditionError

WORD_BITS = 64
MAX_VALUE = 2**WORD_BITS - 1


def check_value(x: int) -> int:
    """Reject values outside the supported word width."""
    if x > MAX_VALUE:
        raise OverflowLimitError(f"value {x} exceeds the {WORD_BITS}-bit limit")
    return x


def _positive(x) -> int:
    if type(x) is int and 0 < x <= MAX_VALUE:
        return x
    if not isinstance(x, int) or isinstance(x, bool):
        raise PreconditionError(f"expected a positive integer, got {x!r}")
    if x < 1:
        raise PreconditionError(f"expected a positive integer, got {x}")
    return check_value(x)


def lowest_bit(x: int) -> int:
    """Position of the least significant 1-bit of x (defined for x >= 1 only)."""
    _positive(x)
    return (x & -x).bit_length() - 1


def highest_bit(x: int) -> int:
    """Position of the most significant 1-bit of x (defined for x >= 1 only)."""
    _positive(x)
    return x.bit_length() - 1


def bit_support(x: int) -> frozenset:
    """The set of 1-bit positions of x; min is lowest_bit, max is highest_bit."""
    _positive(x)
    return frozenset(p for p in range(x.bit_length()) if (x >> p) & 1)


def block(a: int, b: int) -> int:
    """The number whose 1-bits are exactly positions a..b: 2^a + ... + 2^b.

    Equals 2^(b+1) - 2^a; its lowest bit is a and its highest bit is b.
    """
    if any(not isinstance(x, int) or isinstance(x, bool) for x in (a, b)) or not 0 <= a <= b:
        raise PreconditionError(f"block requires 0 <= a <= b, got ({a}, {b})")
    if b >= WORD_BITS:
        raise OverflowLimitError(f"block({a}, {b}) exceeds the {WORD_BITS}-bit limit")
    return (1 << (b + 1)) - (1 << a)


def is_apart(seq) -> bool:
    """True iff each entry's highest bit lies strictly below the next entry's lowest bit.

    That is, each next entry is a multiple of 2^(bit length of the entry
    before it).  Vacuously true for sequences of length <= 1.  Zero entries
    are rejected because the bit endpoints are undefined there.
    """
    entries = [_positive(x) for x in seq]
    return all(b % (1 << a.bit_length()) == 0 for a, b in zip(entries, entries[1:]))


def is_separated(xs) -> bool:
    """True iff the successive differences of a strictly increasing sequence are apart.

    Vacuously true for length <= 2.  Entries may include 0 (only the gaps
    matter); non-increasing input is rejected.
    """
    entries = list(xs)
    if not entries:
        raise PreconditionError("is_separated requires a nonempty sequence")
    if any(not isinstance(x, int) or isinstance(x, bool) or x < 0 for x in entries):
        raise PreconditionError("is_separated requires non-negative integer entries")
    if any(a >= b for a, b in zip(entries, entries[1:])):
        raise PreconditionError(f"not strictly increasing: {entries}")
    check_value(entries[-1])
    return is_apart([b - a for a, b in zip(entries, entries[1:])])
