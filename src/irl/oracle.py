"""Stage-monotone enumeration oracles and the membership-coding pair colouring.

An oracle is a finite list of (element, stage) events; the approximation
at stage s contains every element enumerated at a stage <= s, so it grows
monotonically and settles for good once the last event has fired.  These
finite objects stand in for a c.e. set given by its enumeration; nothing
here decides anything non-computable.

The pair colouring built from an oracle assigns an ordered pair (x, y) of
positive values two bits: i = 1 iff the lowest 1-bit position of x sits
strictly below that of y, and j = 1 iff the approximations restricted
below lowest_bit(x), taken at stages highest_bit(x) and highest_bit(y),
agree.  A sequence whose adjacent pair sums are all coloured (1, 1)
carries settled approximations below its lowest bits; ``decode`` performs
that membership readout, and ``synthesize_solution`` builds such a
sequence directly from the settle stage.

Each element is enumerated once, so two approximations below one bound
differ iff an element below it is enumerated between their stages.  Every
bound and stage that rule compares is a bit position of a checked value,
so below ``WORD_BITS``, and so is every query ``decode`` answers.  An
oracle therefore reads its events once, on first use, into a stage
profile: for each bound b in 0..WORD_BITS a bitmask of the stages of the
elements below b (a stage at or above WORD_BITS sets bit WORD_BITS, which
no compared stage reaches), and the stage of each element below
WORD_BITS.  ``pair_colour`` and ``lower_bound_colouring`` answer with one
mask test and ``decode`` with one lookup; ``approx`` stays the definition
they are tested against.
"""

import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import or_

from irl.bits import MAX_VALUE, WORD_BITS, _positive, highest_bit, lowest_bit
from irl.budget import candidate_budget
from irl.colouring import Colouring, _unchecked
from irl.errors import (
    BudgetExceededError,
    FormatError,
    OverflowLimitError,
    PreconditionError,
    WindowExhaustedError,
    check_int,
)


def encode_colour(i: int, j: int) -> int:
    """Fixed encoding of the 2x2 colour (i, j) into the 4-colour palette."""
    return 2 * i + j


def decode_colour(colour: int) -> tuple:
    return (colour >> 1) & 1, colour & 1


@dataclass(frozen=True)
class EnumerationOracle:
    """A finite, stage-monotone enumeration of a set of naturals."""

    events: tuple

    def __post_init__(self):
        seen = set()
        for event in self.events:
            if not isinstance(event, tuple) or len(event) != 2:
                raise FormatError(f"events must be (element, stage) pairs, got {event!r}")
            element, stage = event
            for value in (element, stage):
                if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                    raise FormatError(f"elements and stages must be naturals, got {event!r}")
            if element in seen:
                raise FormatError(f"element {element} enumerated twice")
            seen.add(element)

    @property
    def settle_stage(self) -> int:
        """The stage after which the approximation never changes again."""
        return max((stage for _, stage in self.events), default=0)

    @property
    def final_set(self) -> frozenset:
        return frozenset(element for element, _ in self.events)

    @cached_property
    def stage_profile(self) -> tuple:
        """(masks, stage_of), read from the events once (the events stay fixed).

        ``stage_of`` maps each element below WORD_BITS to its stage, and
        ``masks[b]``, for b in 0..WORD_BITS, has bit min(s, WORD_BITS) set
        for the stage s of each element below b.
        """
        stage_of = {element: stage for element, stage in self.events if element < WORD_BITS}
        marks = [0] * (WORD_BITS + 1)
        for element, stage in stage_of.items():
            marks[element + 1] = 1 << min(stage, WORD_BITS)
        return tuple(accumulate(marks, or_)), stage_of


def _not_an_oracle(oracle) -> PreconditionError:
    return PreconditionError(f"expected an EnumerationOracle, got {type(oracle).__name__}")


def approx(oracle: EnumerationOracle, bound: int, stage: int) -> frozenset:
    """Elements below ``bound`` enumerated at stages <= ``stage``."""
    return frozenset(
        element for element, s in oracle.events if element < bound and s <= stage
    )


def _approximations_differ(oracle: EnumerationOracle, bound: int, stage: int, other: int) -> bool:
    """Whether the approximations below ``bound`` at two stages differ.

    Elements are enumerated once each, so they differ iff an element below
    the bound is enumerated at a stage in (min, max] of the two: bits
    min + 1 through max of the profile's mask for the bound.  The bound and
    both stages are below WORD_BITS, so a clamped stage never lands in them.
    """
    try:
        masks, _ = oracle.stage_profile
    except AttributeError:
        raise _not_an_oracle(oracle) from None
    return (masks[bound] & abs((2 << stage) - (2 << other))) != 0


def pair_colour(oracle: EnumerationOracle, x: int, y: int) -> int:
    """Colour of the ordered pair (x, y) under the membership-coding colouring.

    x and y are checked once each, in that order, and both bit endpoints
    are read from the checked values.  One mask test on the oracle's stage
    profile decides whether the approximations below lowest_bit(x) at
    stages highest_bit(x) and highest_bit(y) differ.
    """
    _positive(x)
    _positive(y)
    lx = (x & -x).bit_length() - 1
    i = 1 if lx < (y & -y).bit_length() - 1 else 0
    j = 0 if _approximations_differ(oracle, lx, x.bit_length() - 1, y.bit_length() - 1) else 1
    return encode_colour(i, j)


def lower_bound_colouring(oracle: EnumerationOracle, window: int) -> Colouring:
    """The membership-coding colouring materialized on ordered pairs over [1, window].

    Refuses, naming the count, when the window^2 pairs exceed the candidate
    budget, and refuses a window above the word width, one whose
    window + 1 positions no list can hold, or one whose window^2 pairs no
    dict can hold, that a larger budget lets through.
    """
    check_int(window, "window", 1)
    pairs, limit = window * window, candidate_budget()
    if pairs > limit:
        raise BudgetExceededError(
            f"materializing {pairs} ordered pairs over window {window} exceeds the budget of {limit}", count=pairs)
    if window > MAX_VALUE:
        raise OverflowLimitError(f"window {window} exceeds the {WORD_BITS}-bit limit")
    if window + 1 > sys.maxsize:  # the position lists below hold window + 1 entries
        raise OverflowLimitError(f"lower_bound_colouring window {window} holds more than {sys.maxsize} points")
    if pairs > sys.maxsize:  # the table below holds window^2 entries
        raise OverflowLimitError(f"lower_bound_colouring window {window} has {pairs} pairs, more than {sys.maxsize}")
    low = [0] * (window + 1)
    high = [0] * (window + 1)
    for v in range(1, window + 1):
        low[v] = lowest_bit(v)
        high[v] = highest_bit(v)
    table = {}
    for x in range(1, window + 1):
        lx, hx = low[x], high[x]
        # j for each highest bit of y
        row = [0 if _approximations_differ(oracle, lx, hx, hy) else 1 for hy in range(high[window] + 1)]
        for y in range(1, window + 1):
            table[(x, y)] = encode_colour(1 if lx < low[y] else 0, row[high[y]])
    return _unchecked(Colouring, 2, window, 4, "vectors", table)


def synthesize_solution(oracle: EnumerationOracle, m: int) -> tuple:
    """A length-m sequence of two-bit blocks starting above the settle stage.

    Entry n is 2^(S+2n) + 2^(S+2n+1) with S the settle stage.  The output
    is apart, its lowest bits strictly increase, and every adjacent pair
    sum is coloured (1, 1): all the highest bits involved are at least S,
    so the compared approximations are already settled.
    """
    check_int(m, "length", 1)
    try:
        start = oracle.settle_stage
    except AttributeError:
        raise _not_an_oracle(oracle) from None
    if start + 2 * m - 1 >= WORD_BITS:
        raise OverflowLimitError(
            f"synthesized entry would need bit {start + 2 * m - 1}, above the {WORD_BITS}-bit limit"
        )
    return tuple(3 << (start + 2 * n) for n in range(m))


def decode(seq, oracle: EnumerationOracle, m: int) -> bool:
    """Membership readout for ``m`` from the first entry whose lowest bit exceeds it.

    Correct whenever the consulted entry's highest bit is at least the
    settle stage, as it is for synthesized sequences and for any sequence
    whose adjacent pair sums are monochromatic in (1, 1) with settled
    stage values.  Entries are checked in order, each once, up to the one
    consulted; the entries after it stay unchecked.
    """
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        raise PreconditionError(f"query must be a natural, got {m!r}")
    try:
        entries = tuple(seq)
    except TypeError:
        raise PreconditionError(f"decode requires a sequence of values, got {seq!r}") from None
    if not entries:
        raise PreconditionError("decode requires a nonempty sequence")
    for x in entries:
        _positive(x)
        if (x & -x).bit_length() - 1 > m:
            # m is below lowest_bit(x) < WORD_BITS, so it is in the approximation iff
            # the profile holds a stage for it no later than highest_bit(x)
            try:
                _, stage_of = oracle.stage_profile
            except AttributeError:
                raise _not_an_oracle(oracle) from None
            stage = stage_of.get(m)
            return stage is not None and stage <= x.bit_length() - 1
    raise WindowExhaustedError(
        f"window exhausted: no entry has its lowest bit above {m}"
    )


def oracle_to_json(oracle: EnumerationOracle) -> dict:
    return {"events": [[element, stage] for element, stage in oracle.events]}


def oracle_from_json(data) -> EnumerationOracle:
    if not isinstance(data, dict) or "events" not in data:
        raise FormatError("oracle payload must be an object with an 'events' list")
    events = data["events"]
    if not isinstance(events, list):
        raise FormatError("'events' must be a list of [element, stage] pairs")
    parsed = []
    for item in events:
        if not isinstance(item, list) or len(item) != 2:
            raise FormatError(f"malformed event: {item!r}")
        parsed.append((item[0], item[1]))
    return EnumerationOracle(events=tuple(parsed))
