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
from dataclasses import dataclass
from itertools import combinations, product

from irl.budget import candidate_budget
from irl.errors import BudgetExceededError, FormatError, NotInvariantError, PreconditionError

MODES = ("sets", "vectors")


def sets_domain(dim: int, window: int):
    """Strictly increasing dim-tuples over [0, window], in lexicographic order."""
    return combinations(range(window + 1), dim)


def vectors_domain(dim: int, window: int):
    """Positive dim-tuples with coordinate sum <= window, in lexicographic order."""

    def rec(prefix, left_budget, left):
        if left == 0:
            yield prefix
            return
        for z in range(1, left_budget - (left - 1) + 1):
            yield from rec(prefix + (z,), left_budget - z, left - 1)

    if window >= dim:
        yield from rec((), window, dim)


def standard_domain(mode: str, dim: int, window: int):
    if mode == "sets":
        return sets_domain(dim, window)
    if mode == "vectors":
        return vectors_domain(dim, window)
    raise FormatError(f"unknown mode {mode!r}")


def _check_shape(dim, window, palette):
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise FormatError(f"dim must be an integer >= 1, got {dim!r}")
    if not isinstance(window, int) or isinstance(window, bool) or window < 0:
        raise FormatError(f"window must be an integer >= 0, got {window!r}")
    if not isinstance(palette, int) or isinstance(palette, bool) or palette < 1:
        raise FormatError(f"palette must be an integer >= 1, got {palette!r}")


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
        for t, colour in self.table.items():
            _check_entry(t, colour, self.dim, self.window, self.palette, self.mode)

    def is_total(self) -> bool:
        """True iff every tuple of the canonical domain is coloured."""
        return set(self.table) >= set(standard_domain(self.mode, self.dim, self.window))


@dataclass(frozen=True)
class DifferenceColouring:
    """A colouring of positive difference vectors with total <= window."""

    dim: int
    window: int
    palette: int
    table: dict

    def __post_init__(self):
        _check_shape(self.dim, self.window, self.palette)
        for t, colour in self.table.items():
            _check_entry(t, colour, self.dim, self.window, self.palette, "vectors")
            if sum(t) > self.window:
                raise FormatError(f"difference vector total {sum(t)} exceeds window {self.window}: {t!r}")

    def is_total(self) -> bool:
        return set(self.table) >= set(vectors_domain(self.dim, self.window))


def invariance_witness(c: Colouring):
    """A pair of same-difference tuples with unequal colours, or None.

    Scans the table in lexicographic order, so the reported witness is the
    first clash against the earliest representative of its difference
    vector.
    """
    if c.mode != "sets":
        raise PreconditionError("shift invariance is defined for sets-mode colourings")
    seen = {}
    for t in sorted(c.table):
        dv = tuple(b - a for a, b in zip(t, t[1:]))
        colour = c.table[t]
        prev = seen.get(dv)
        if prev is None:
            seen[dv] = (t, colour)
        elif prev[1] != colour:
            return (prev, (t, colour))
    return None


def is_shift_invariant(c: Colouring) -> bool:
    """True iff the colouring is unchanged by shifting every tuple entry alike."""
    return invariance_witness(c) is None


def to_differences(c: Colouring) -> DifferenceColouring:
    """Factor a shift-invariant sets colouring through its difference vectors.

    Rejects non-invariant input with a witness pair of equal-difference
    tuples carrying unequal colours.
    """
    if c.mode != "sets":
        raise PreconditionError("to_differences applies to sets-mode colourings")
    if c.dim < 2:
        raise PreconditionError("to_differences requires tuple arity >= 2")
    witness = invariance_witness(c)
    if witness is not None:
        raise NotInvariantError(
            f"colouring is not shift-invariant: {witness[0][0]} -> {witness[0][1]} "
            f"but {witness[1][0]} -> {witness[1][1]}",
            witness=witness,
        )
    table = {}
    for t, colour in c.table.items():
        table[tuple(b - a for a, b in zip(t, t[1:]))] = colour
    return DifferenceColouring(dim=c.dim - 1, window=c.window, palette=c.palette, table=table)


def from_differences(dc: DifferenceColouring, window: int) -> Colouring:
    """Lift a difference colouring to a sets colouring on [0, window].

    Tuples whose difference vector is absent from ``dc`` are left
    uncoloured; the result is shift-invariant by construction.
    """
    if not isinstance(window, int) or isinstance(window, bool) or window < 0:
        raise FormatError(f"window must be an integer >= 0, got {window!r}")
    table = {}
    for t in sets_domain(dc.dim + 1, window):
        dv = tuple(b - a for a, b in zip(t, t[1:]))
        colour = dc.table.get(dv)
        if colour is not None:
            table[t] = colour
    return Colouring(dim=dc.dim + 1, window=window, palette=dc.palette, mode="sets", table=table)


def enumerate_colourings(dim, window, palette, mode="sets", invariant=False, budget=None):
    """Yield every colouring of the given shape exactly once, in a fixed order.

    Domain tuples are taken in lexicographic order and colour assignments
    are counted in base ``palette`` with the colour of the lex-greatest
    tuple varying fastest.  ``invariant=True`` enumerates shift-invariant
    sets colourings through their difference tables (palette^(#difference
    vectors) instances).  Refuses, naming the count, when the enumeration
    exceeds the budget.
    """
    _check_shape(dim, window, palette)
    limit = candidate_budget() if budget is None else budget
    if invariant:
        if mode != "sets":
            raise PreconditionError("invariant enumeration applies to sets-mode colourings")
        if dim == 1:
            # a shift-invariant unary colouring is constant
            for colour in range(palette):
                yield Colouring(dim, window, palette, "sets",
                                {t: colour for t in sets_domain(1, window)})
            return
        domain = tuple(vectors_domain(dim - 1, window))
        count = palette ** len(domain)
        if count > limit:
            raise BudgetExceededError(
                f"exhaustive enumeration needs {count} difference tables, budget is {limit}",
                count=count,
            )
        for assignment in product(range(palette), repeat=len(domain)):
            dc = DifferenceColouring(dim - 1, window, palette, dict(zip(domain, assignment)))
            yield from_differences(dc, window)
        return
    domain = tuple(standard_domain(mode, dim, window))
    count = palette ** len(domain)
    if count > limit:
        raise BudgetExceededError(
            f"exhaustive enumeration needs {count} colourings, budget is {limit}",
            count=count,
        )
    for assignment in product(range(palette), repeat=len(domain)):
        yield Colouring(dim, window, palette, mode, dict(zip(domain, assignment)))


def sample_colourings(dim, window, palette, mode="sets", invariant=False, seed=0, count=1):
    """Yield ``count`` colourings drawn reproducibly from ``seed``."""
    _check_shape(dim, window, palette)
    rng = random.Random(seed)
    if invariant:
        if mode != "sets":
            raise PreconditionError("invariant sampling applies to sets-mode colourings")
        if dim == 1:
            for _ in range(count):
                colour = rng.randrange(palette)
                yield Colouring(dim, window, palette, "sets",
                                {t: colour for t in sets_domain(1, window)})
            return
        domain = tuple(vectors_domain(dim - 1, window))
        for _ in range(count):
            dc = DifferenceColouring(dim - 1, window, palette,
                                     {t: rng.randrange(palette) for t in domain})
            yield from_differences(dc, window)
        return
    domain = tuple(standard_domain(mode, dim, window))
    for _ in range(count):
        yield Colouring(dim, window, palette, mode,
                        {t: rng.randrange(palette) for t in domain})


def colouring_to_json(obj) -> dict:
    """JSON-ready dict with entries sorted lexicographically by tuple."""
    mode = "differences" if isinstance(obj, DifferenceColouring) else obj.mode
    return {
        "dim": obj.dim,
        "window": obj.window,
        "palette": obj.palette,
        "mode": mode,
        "entries": [[list(t), obj.table[t]] for t in sorted(obj.table)],
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
    for item in entries:
        if not isinstance(item, list) or len(item) != 2 or not isinstance(item[0], list):
            raise FormatError(f"malformed entry: {item!r}")
        t = tuple(item[0])
        try:
            duplicate = t in table
        except TypeError:  # an unhashable component, such as a nested list
            raise FormatError(f"tuple entries must be integers: {item[0]!r}") from None
        if duplicate:
            raise FormatError(f"duplicate tuple in entries: {list(t)}")
        table[t] = item[1]
    if mode == "differences":
        return DifferenceColouring(data["dim"], data["window"], data["palette"], table)
    return Colouring(data["dim"], data["window"], data["palette"], mode, table)
