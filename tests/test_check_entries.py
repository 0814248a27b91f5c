"""Every integer-sequence argument of the package is refused by one rule, with one wording.

Each site below takes a sequence of at least ``min_len`` integers, each at
least ``least`` (0 or 1), strictly increasing where ``increasing`` is set.
``check_entries`` refuses a faulty one with ``PreconditionError``, checking
in this order: the argument is iterable, long enough, each entry is an int
(not a bool) of at least ``least``, and the entries increase.  An
``IntEnum`` member is accepted wherever an int is.
"""

from enum import IntEnum

import pytest

from irl.bits import is_separated
from irl.errors import PreconditionError
from irl.reduce import backward_transform
from irl.sums import adjacent_sums, adjacent_tuples, differences, gap_increasing, normalize, partial_sums


def _backward(kind):
    return lambda seq: backward_transform(kind, seq)


# (site, name in the message, least, increasing, min_len, call)
SITES = [
    ("adjacent_sums", "adjacent_sums", 1, False, 1, adjacent_sums),
    ("adjacent_tuples", "adjacent_tuples", 1, False, 1, lambda seq: adjacent_tuples(seq, 2)),
    ("normalize", "normalize", 1, False, 1, normalize),
    ("differences", "differences", 0, True, 1, differences),
    ("gap_increasing", "gap_increasing", 0, True, 2, gap_increasing),
    ("partial_sums", "partial_sums", 1, True, 1, partial_sums),
    ("is_separated", "is_separated", 0, True, 1, is_separated),
    # a backward map's least entry is its target's: 0 into RT or ZRT (sets), 1 into AHT (vectors)
    ("backward_transform RT_TO_ZRT", "RT_TO_ZRT", 0, True, 1, _backward("RT_TO_ZRT")),
    ("backward_transform ZRT_TO_AHT", "ZRT_TO_AHT", 1, True, 1, _backward("ZRT_TO_AHT")),
    ("backward_transform AHT_TO_ZRT", "AHT_TO_ZRT", 0, True, 2, _backward("AHT_TO_ZRT")),
    ("backward_transform APAHT_TO_RT", "APAHT_TO_RT", 0, True, 2, _backward("APAHT_TO_RT")),
]


def bad_inputs(name, least, increasing, min_len):
    """(input, exact message) pairs; an entry under test leads ``min_len - 1`` valid ones."""
    sign = "positive" if least == 1 else "non-negative"
    short = f"{name} requires a nonempty sequence" if min_len == 1 else f"{name} requires at least {min_len} entries"
    tail = list(range(10, 9 + min_len))
    cases = [
        (5, f"{name} requires an iterable of integers, got 5"),
        (None, f"{name} requires an iterable of integers, got None"),
        ([], short),
        *(([bad, *tail], f"{name} requires {sign} integer entries, got {bad!r}")
          for bad in (True, 1.5, "1", least - 1)),
    ]
    if min_len > 1:
        cases.append(([True], short))  # the length is checked before the entries
    if increasing:
        cases.append(([3, 1], f"{name} requires a strictly increasing sequence, got (3, 1)"))
    return cases


BAD = [(site, call, value, message)
       for site, name, least, increasing, min_len, call in SITES
       for value, message in bad_inputs(name, least, increasing, min_len)]


@pytest.mark.parametrize("site, call, value, message", BAD, ids=[f"{case[0]}-{case[2]!r}" for case in BAD])
def test_a_bad_integer_sequence_is_refused_with_one_wording(site, call, value, message):
    with pytest.raises(PreconditionError) as caught:
        call(value)
    assert type(caught.value) is PreconditionError
    assert str(caught.value) == message


@pytest.mark.parametrize("site, name, least, increasing, min_len, call", SITES, ids=[s[0] for s in SITES])
def test_int_enum_entries_are_accepted_wherever_ints_are(site, name, least, increasing, min_len, call):
    values = [least, 2, 5, 6]
    members = list(IntEnum("Entry", {f"E{v}": v for v in values}))
    assert call(members) == call(values)
