"""Every integer argument of the package is refused by one rule, with one wording.

Each site below takes an integer that must be at least ``least``; a value
that is not an int, a bool, or an int below ``least`` is refused with
``error("<name> must be an integer >= <least>, got <value!r>")``.  Any int
subclass other than bool (an ``IntEnum`` member, say) is accepted wherever
an int is.
"""

from enum import IntEnum

import pytest

from irl.budget import budget_limit
from irl.colouring import (
    Colouring,
    DifferenceColouring,
    enumerate_colourings,
    from_differences,
    sample_colourings,
)
from irl.errors import FormatError, PreconditionError
from irl.oracle import EnumerationOracle, approx, decode, lower_bound_colouring, synthesize_solution
from irl.reduce import bit_window, verify_reduction
from irl.search import FiniteNumberQuery, find_afs_mono
from irl.sums import adjacent_tuples

SETS = Colouring(1, 4, 2, "sets", {(x,): x % 2 for x in range(5)})
VECTORS = Colouring(1, 6, 2, "vectors", {(x,): 0 for x in range(1, 7)})
DIFFERENCES = DifferenceColouring(1, 3, 2, {(z,): z % 2 for z in range(1, 4)})
ORACLE = EnumerationOracle(events=((0, 2), (3, 5)))


def _query(field):
    def build(value):
        params = {"dim": 1, "palette": 2, "size": 3, "cap": 8, field: value}
        return FiniteNumberQuery("RT", **params)
    return build


# (site, name in the message, least, error, call); ``call`` runs the site on
# one value and returns a comparable result, so generators are advanced once.
SITES = [
    ("budget_limit", "budget", 0, PreconditionError, budget_limit),
    ("bit_window", "value window", 0, PreconditionError, bit_window),
    ("verify_reduction", "target", 1, PreconditionError,
     lambda v: verify_reduction("RT_TO_ZRT", SETS, v).to_json_dict()),
    ("find_afs_mono m", "sequence length", 1, PreconditionError, lambda v: find_afs_mono(VECTORS, v)),
    ("find_afs_mono window", "window", 1, PreconditionError, lambda v: find_afs_mono(VECTORS, 2, window=v)),
    *((f"FiniteNumberQuery {field}", field, 1, PreconditionError, _query(field))
      for field in ("dim", "palette", "size", "cap")),
    ("lower_bound_colouring", "window", 1, PreconditionError, lambda v: lower_bound_colouring(ORACLE, v)),
    ("synthesize_solution", "length", 1, PreconditionError, lambda v: synthesize_solution(ORACLE, v)),
    ("approx bound", "bound", 0, PreconditionError, lambda v: approx(ORACLE, v, 9)),
    ("approx stage", "stage", 0, PreconditionError, lambda v: approx(ORACLE, 9, v)),
    ("adjacent_tuples arity", "arity", 1, PreconditionError, lambda v: adjacent_tuples([1, 2, 4], v)),
    ("decode query", "query", 0, PreconditionError, lambda v: decode(synthesize_solution(ORACLE, 4), ORACLE, v)),
    ("_check_shape dim", "dim", 1, FormatError, lambda v: next(enumerate_colourings(v, 3, 2))),
    ("_check_shape window", "window", 0, FormatError, lambda v: next(enumerate_colourings(1, v, 2))),
    ("_check_shape palette", "palette", 1, FormatError, lambda v: next(enumerate_colourings(1, 3, v))),
    ("from_differences", "window", 0, FormatError, lambda v: from_differences(DIFFERENCES, v)),
    ("sample_colourings count", "count", 0, PreconditionError,
     lambda v: next(sample_colourings(1, 3, 2, count=v), None)),
]

# None stands for a default at these two sites, so it is no refusal there.
NONE_IS_DEFAULT = {"budget_limit", "find_afs_mono window"}


BAD = [
    (*site, value)
    for site in SITES
    for value in (site[2] - 1, True, 1.5, "1", None)
    if not (value is None and site[0] in NONE_IS_DEFAULT)
]


@pytest.mark.parametrize(
    "site, name, least, error, call, value", BAD, ids=[f"{case[0]}-{case[-1]!r}" for case in BAD])
def test_a_bad_integer_argument_is_refused_with_one_wording(site, name, least, error, call, value):
    with pytest.raises(error) as caught:
        call(value)
    assert type(caught.value) is error
    assert str(caught.value) == f"{name} must be an integer >= {least}, got {value!r}"


@pytest.mark.parametrize("site, name, least, error, call", SITES, ids=[s[0] for s in SITES])
def test_an_int_enum_member_is_accepted_wherever_an_int_is(site, name, least, error, call):
    value = least + 1
    member = IntEnum("Number", {"VALUE": value}).VALUE
    assert call(member) == call(value)
