"""Finite-window colourings, shift invariance, and the difference representation.

Two extensional carriers:

* ``Colouring``: a k-colouring of d-tuples over a bounded window.  Mode
  "sets" colours strictly increasing tuples over [0, window]; mode
  "vectors" colours ordered tuples of positive coordinates, canonically
  those whose coordinate sum is at most the window.
* ``DifferenceColouring``: a k-colouring of positive difference vectors
  with total at most the window; the canonical form that every
  shift-invariant sets colouring factors through.

Tables are plain dicts and may be partial (an absent tuple is simply not
coloured); the enumerators below always build total tables.  Values are
immutable after construction by convention.
"""

import random
import sys
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import product
from math import comb

from irl.budget import budget_limit, candidate_budget
from irl.errors import BudgetExceededError, FormatError, NotInvariantError, OverflowLimitError, PreconditionError
from irl.errors import check_instance, check_int
from irl.sums import _anchor, _choose, _gaps

MODES = ("sets", "vectors")


def sets_domain(dim: int, window: int):
    """Strictly increasing dim-tuples over [0, window], in lexicographic order."""
    check_int(dim, "dim", 0, FormatError)
    check_int(window, "window", 0, FormatError)
    if window + 1 > sys.maxsize:  # combinations builds its whole pool of points before it yields
        raise OverflowLimitError(f"sets_domain window {window} holds more than {sys.maxsize} points")
    return _choose(range(window + 1), dim)


def vectors_domain(dim: int, window: int):
    """Positive dim-tuples with coordinate sum <= window, in lexicographic order."""
    check_int(dim, "dim", 0, FormatError)
    check_int(window, "window", 0, FormatError)
    if window < dim:
        return
    v = [1] * dim
    total = dim
    while True:
        yield tuple(v)
        i = dim - 1
        while total == window and i > 0:  # v[i] cannot grow: drop it to 1 and move left
            total -= v[i] - 1
            v[i] = 1
            i -= 1
        if total == window or i < 0:
            return
        v[i] += 1
        total += 1


def _count_text(count: int) -> str:
    """A count for a message; int-to-str conversion is capped at 4300 digits."""
    return str(count) if count.bit_length() <= 14_000 else f"at least 2^{count.bit_length() - 1}"


def _domain_size(mode: str, dim: int, window: int, bound: int):
    """Size of the ``mode`` domain (``sets_domain``, ``vectors_domain``), or None when it surely exceeds ``bound``."""
    n = window + 1 if mode == "sets" else window
    if dim > n:
        return 0
    # an exact C(n, k) is cheap for k <= 32 (about 10 ms at n = 2^10000) but
    # takes seconds for k in the hundreds of thousands; there C(n, k) >= 2^k
    # (k <= n/2) shows the size is past the bound once k passes its bit length
    k = min(dim, n - dim)
    return comb(n, k) if k <= 32 or k <= bound.bit_length() else None


def charge_domain(mode: str, dim: int, window: int, limit: int) -> int:
    """Size of the ``mode`` domain of dim-tuples, refused before it is built when above ``limit``.

    A domain of tuples longer than the limit is refused as well.  The
    refusal names the size, or None when the size is too large to be worth
    computing exactly.
    """
    size = _domain_size(mode, dim, window, limit)
    if size is not None and size <= limit and (size == 0 or dim <= limit):  # an empty domain is free
        return size
    shown = f"more than {limit}" if size is None else _count_text(size)
    raise BudgetExceededError(
        f"materializing {shown} {dim}-tuples over window {window} exceeds the budget of {limit}",
        count=size,
    )


def _check_shape(dim, window, palette):
    check_int(dim, "dim", 1, FormatError)
    check_int(window, "window", 0, FormatError)
    check_int(palette, "palette", 1, FormatError)


def _check_entry(t, colour, dim, window, palette, mode):
    if not isinstance(t, tuple) or len(t) != dim:
        raise FormatError(f"expected a {dim}-tuple key, got {t!r}")
    if any(not isinstance(x, int) or isinstance(x, bool) for x in t):
        raise FormatError(f"tuple entries must be integers: {t!r}")
    if mode == "sets":
        if any(x < 0 or x > window for x in t):
            raise FormatError(f"sets-mode tuple out of window [0, {window}]: {t!r}")
        if any(a >= b for a, b in zip(t, t[1:])):
            raise FormatError(f"sets-mode tuple must be strictly increasing: {t!r}")
    else:
        if any(x < 1 or x > window for x in t):
            raise FormatError(f"vectors-mode tuple out of window [1, {window}]: {t!r}")
    if not isinstance(colour, int) or isinstance(colour, bool) or not 0 <= colour < palette:
        raise FormatError(f"colour {colour!r} out of palette range [0, {palette})")


def _check_table(table, dim, window, palette, mode):
    """Validate every entry of a table for ``mode`` ("sets", "vectors" or "differences").

    Entries made of plain ints and tuples pass on a fast path; any other
    entry gets the exact per-entry check, which either accepts it (an int
    subclass such as an IntEnum) or raises the same error as it always has.
    """
    if not isinstance(table, dict):
        raise FormatError(f"table must be a dict, got {type(table).__name__}")
    for t, colour in table.items():
        if type(t) is tuple and len(t) == dim and type(colour) is int and 0 <= colour < palette:
            if mode == "sets":
                prev = -1
                for x in t:
                    if type(x) is not int or x <= prev:
                        break
                    prev = x
                else:
                    if prev <= window:
                        continue
            else:
                total = 0
                for x in t:
                    if type(x) is not int or not 1 <= x <= window:
                        break
                    total += x
                else:
                    if mode == "vectors" or total <= window:
                        continue
        _check_entry(t, colour, dim, window, palette, "sets" if mode == "sets" else "vectors")
        if mode == "differences" and sum(t) > window:
            raise FormatError(f"difference vector total {sum(t)} exceeds window {window}: {t!r}")


def _unchecked(cls, *values):
    """A Colouring or DifferenceColouring built by this package, without validation.

    For tables the package derives from an already valid object, whose
    entries are valid by construction; input from outside goes through the
    public constructors instead.
    """
    obj = object.__new__(cls)
    for name, value in zip(cls.__match_args__, values):
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class Colouring:
    """A finite colouring of dim-tuples over a bounded window."""

    dim: int
    window: int
    palette: int
    mode: str
    table: dict

    def __post_init__(self):
        _check_shape(self.dim, self.window, self.palette)
        if self.mode not in MODES:
            raise FormatError(f"mode must be one of {MODES}, got {self.mode!r}")
        _check_table(self.table, self.dim, self.window, self.palette, self.mode)

    def is_total(self) -> bool:
        """True iff every tuple of the canonical domain is coloured.

        Counts instead of building the domain: every validated sets key lies
        in it, and a vectors key does when its total is at most the window.
        """
        keys = [t for t in self.table if sum(t) <= self.window] if self.mode == "vectors" else self.table
        return _domain_size(self.mode, self.dim, self.window, len(keys)) == len(keys)

    @cached_property
    def points(self) -> tuple:
        """Every coordinate of a coloured tuple, ascending (computed once; tables stay fixed)."""
        return tuple(sorted(set().union(*self.table)))


@dataclass(frozen=True)
class DifferenceColouring:
    """A colouring of positive difference vectors with total <= window."""

    dim: int
    window: int
    palette: int
    table: dict

    def __post_init__(self):
        _check_shape(self.dim, self.window, self.palette)
        _check_table(self.table, self.dim, self.window, self.palette, "differences")

    def is_total(self) -> bool:
        """True iff every difference vector of total at most the window is coloured."""
        return _domain_size("vectors", self.dim, self.window, len(self.table)) == len(self.table)


def _difference_scan(c: Colouring):
    """(first clash or None, difference table) of a sets colouring.

    One pass in table order decides invariance.  Only a table with a clash
    is scanned again, in lexicographic order, for its first clash.
    """
    table = {}  # difference vector -> its colour
    for t, colour in c.table.items():
        if table.setdefault(_gaps(t), colour) != colour:
            return _first_clash(c.table), table
    return None, table


def _first_clash(colours):
    """The first tuple in lexicographic order coloured unlike the least tuple of
    its difference vector, as a clash pair (least first), or None."""
    first = {}  # difference vector -> its least tuple
    for t in sorted(colours):
        least = first.setdefault(_gaps(t), t)
        if colours[least] != colours[t]:
            return (least, colours[least]), (t, colours[t])


def invariance_witness(c: Colouring):
    """A pair of same-difference tuples with unequal colours, or None.

    The reported witness is the first clash of a lexicographic scan,
    against the earliest representative of its difference vector, whatever
    the table's own order.
    """
    return _difference_scan(check_instance(c, Colouring, "invariance_witness", "sets"))[0]


def is_shift_invariant(c: Colouring) -> bool:
    """True iff the colouring is unchanged by shifting every tuple entry alike."""
    return invariance_witness(check_instance(c, Colouring, "is_shift_invariant", "sets")) is None


def to_differences(c: Colouring) -> DifferenceColouring:
    """Factor a shift-invariant sets colouring through its difference vectors.

    Rejects non-invariant input with a witness pair of equal-difference
    tuples carrying unequal colours.
    """
    if check_instance(c, Colouring, "to_differences", "sets").dim < 2:
        raise PreconditionError("to_differences requires tuple arity >= 2")
    witness, table = _difference_scan(c)
    if witness is not None:
        raise NotInvariantError(
            f"colouring is not shift-invariant: {witness[0][0]} -> {witness[0][1]} "
            f"but {witness[1][0]} -> {witness[1][1]}",
            witness=witness,
        )
    return _unchecked(DifferenceColouring, c.dim - 1, c.window, c.palette, table)


def _lift_translates(c: Colouring, limit: int) -> Colouring:
    """The sets colouring of every translate inside [0, c.window] of each tuple of ``c``.

    The one function that builds a lift, so the one that charges it: the
    whole target domain is charged to ``limit`` before anything is built,
    although only the translates of the coloured tuples are.  The tuples of
    ``c`` must all start at 0 (unchecked); the work follows them, not the window.
    """
    charge_domain("sets", c.dim, c.window, limit)
    table = {}
    for t, colour in c.table.items():
        room = c.window - t[-1] + 1  # the number of shifts that fit
        for translate in zip(*[range(x, x + room) for x in t]):
            table[translate] = colour
    return _unchecked(Colouring, c.dim, c.window, c.palette, "sets", table)


def _lift(table, dim, window, palette, limit) -> Colouring:
    """``from_differences`` of a difference table, charged to ``limit`` by ``_lift_translates``."""
    return _lift_translates(_unchecked(Colouring, dim, window, palette, "sets",
                                       {_anchor(v): colour for v, colour in table.items()}), limit)


def from_differences(dc: DifferenceColouring, window: int) -> Colouring:
    """Lift a difference colouring to a sets colouring on [0, window].

    Each difference vector colours the translates of its partial sums from
    0; the rest is left uncoloured, so the result is shift-invariant.
    """
    check_instance(dc, DifferenceColouring, "from_differences")
    check_int(window, "window", 0, FormatError)
    return _lift(dc.table, dc.dim + 1, window, dc.palette, candidate_budget())


def _shape(mode, dim, window, palette, invariant, limit, exhaustive=False):
    """The colour variables of a shape in enumeration order, and the Colouring of a table of them.

    A shift-invariant sets colouring is a colouring of its difference
    vectors, so an invariant shape's variables are the difference vectors
    of dim - 1 (at dim 1 the one empty vector) and its tables are lifted by
    ``_lift``, charged to ``limit``.  Any other shape's variables are the
    ``sets_domain`` or ``vectors_domain`` of its mode.  The variables must
    fit ``limit``, and with ``exhaustive`` so must the palette ** #variables
    tables an enumeration visits; both are refused before any is built.
    An invariant shape must be sets-mode, checked before an unknown mode is refused.
    """
    if invariant and mode != "sets":
        raise PreconditionError(f"invariant colourings are sets-mode colourings, got mode {mode!r}")
    if mode not in MODES:
        raise FormatError(f"unknown mode {mode!r}")
    if invariant:
        domain_mode, domain_dim, what = "vectors", dim - 1, "difference tables"
        colouring = partial(_lift, dim=dim, window=window, palette=palette, limit=limit)
    else:
        domain_mode, domain_dim, what = mode, dim, "colourings"
        colouring = partial(_unchecked, Colouring, dim, window, palette, mode)
    size = charge_domain(domain_mode, domain_dim, window, limit)
    if exhaustive and (count := palette ** size) > limit:
        raise BudgetExceededError(
            f"exhaustive enumeration needs {_count_text(count)} {what}, budget is {limit}", count=count
        )
    # a list: a tuple built from a generator on every call let the peak RSS creep up across calls
    return list((sets_domain if domain_mode == "sets" else vectors_domain)(domain_dim, window)), colouring


def enumerate_colourings(dim, window, palette, mode="sets", invariant=False, budget=None):
    """Yield every colouring of the given shape exactly once, in a fixed order.

    Domain tuples are taken in lexicographic order and colour assignments
    are counted in base ``palette`` with the colour of the lex-greatest
    tuple varying fastest.  ``invariant=True`` enumerates shift-invariant
    sets colourings through their difference tables (palette^(#difference
    vectors) instances), each lifted to the window with the lift charged
    to the same budget.  At dim 1 the one difference vector is the empty
    one, so the instances are the palette constant colourings.  Refuses,
    naming the count, when the domain, the enumeration or a lift exceeds
    the budget (``budget``, or the candidate budget when it is None).
    """
    _check_shape(dim, window, palette)
    limit = budget_limit(budget)
    variables, colouring = _shape(mode, dim, window, palette, invariant, limit, exhaustive=True)
    for assignment in product(range(palette), repeat=len(variables)):
        yield colouring(dict(zip(variables, assignment)))


def sample_colourings(dim, window, palette, mode="sets", invariant=False, seed=0, count=1):
    """Yield ``count`` colourings drawn reproducibly from ``seed``.

    Each colouring draws one colour per variable of the shape, in
    enumeration order.  Refuses a domain larger than the budget before
    building it.
    """
    _check_shape(dim, window, palette)
    limit = candidate_budget()
    rng = random.Random(seed)
    variables, colouring = _shape(mode, dim, window, palette, invariant, limit)
    for _ in range(check_int(count, "count", 0)):
        yield colouring({t: rng.randrange(palette) for t in variables})


def colouring_to_json(obj) -> dict:
    """JSON-ready dict with entries sorted lexicographically by tuple.

    Each entry is a ``(tuple, colour)`` pair, which ``json`` writes as the
    array ``[[x1, ..., xd], colour]``.  Sorting the keys alone keeps
    ``list.sort`` on its path for tuples of ints.
    """
    check_instance(obj, (Colouring, DifferenceColouring), "colouring_to_json")
    mode = "differences" if isinstance(obj, DifferenceColouring) else obj.mode
    table = obj.table
    return {
        "dim": obj.dim,
        "window": obj.window,
        "palette": obj.palette,
        "mode": mode,
        "entries": [(t, table[t]) for t in sorted(table)],
    }


def colouring_from_json(data):
    """Parse a Colouring or DifferenceColouring from its JSON dict form."""
    if not isinstance(data, dict):
        raise FormatError(f"expected a JSON object, got {type(data).__name__}")
    missing = {"dim", "window", "palette", "mode", "entries"} - set(data)
    if missing:
        raise FormatError(f"colouring payload missing keys: {sorted(missing)}")
    mode = data["mode"]
    if mode not in MODES + ("differences",):
        raise FormatError(f"mode must be one of {MODES + ('differences',)}, got {mode!r}")
    entries = data["entries"]
    if not isinstance(entries, list):
        raise FormatError("entries must be a list of [tuple, colour] pairs")
    table = {}
    for read, item in enumerate(entries, 1):
        if not isinstance(item, list) or len(item) != 2 or not isinstance(item[0], list):
            raise FormatError(f"malformed entry: {item!r}")
        t = tuple(item[0])
        try:
            table[t] = item[1]
        except TypeError:  # an unhashable component, such as a nested list
            raise FormatError(f"tuple entries must be integers: {t!r}") from None
        if len(table) < read:  # the store overwrote an entry read before
            raise FormatError(f"duplicate tuple in entries: {list(t)}")
    if mode == "differences":
        return DifferenceColouring(data["dim"], data["window"], data["palette"], table)
    return Colouring(data["dim"], data["window"], data["palette"], mode, table)
