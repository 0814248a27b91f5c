"""Brute-force monochromatic witness search and finite analogue numbers.

Both searches extend increasing prefixes depth-first, always trying
smaller next elements first, so the first completed candidate is the
lexicographically least witness.  Pruning only removes prefixes that
cannot complete (colour clash, missing tuple, window overrun, or a failed
apartness/separation constraint), which never changes the answer.

``finite_number`` scans window sizes upward and reports the least number
of points N such that every admissible colouring of an N-point window
admits the required witness.  Sets-mode principles use the points
{0, ..., N-1}; vectors-mode principles use {1, ..., N}.  Each size is a
depth-first search over colour assignments that prunes a branch as soon
as one candidate witness is monochromatic.
"""

import csv
import json
from dataclasses import dataclass
from itertools import combinations

from irl.bits import highest_bit, lowest_bit
from irl.budget import candidate_budget
from irl.colouring import Colouring, colouring_to_json, sets_domain, vectors_domain
from irl.colouring import enumerate_colourings  # noqa: F401  kept importable from irl.search
from irl.errors import BudgetExceededError, PreconditionError
from irl.sums import adjacent_tuples

PRINCIPLES = ("RT", "ZRT", "SEPZRT", "AHT", "APAHT")
_SETS_PRINCIPLES = ("RT", "ZRT", "SEPZRT")


def find_mono_subset(c: Colouring, m: int, separated: bool = False):
    """Lexicographically least m-subset of the window whose dim-tuples share a colour.

    Returns the subset as an increasing tuple, or None when the window
    holds no witness.  With ``separated=True`` the subset's successive
    differences must additionally be apart.
    """
    if c.mode != "sets":
        raise PreconditionError("find_mono_subset applies to sets-mode colourings")
    if not isinstance(m, int) or isinstance(m, bool) or m < c.dim:
        raise PreconditionError(f"subset size must be an integer >= dim {c.dim}, got {m!r}")
    dim = c.dim
    table = c.table
    prefix = []

    def extend(colour, start):
        if len(prefix) == m:
            return tuple(prefix)
        need = m - len(prefix)
        for x in range(start, c.window + 2 - need):
            if separated and len(prefix) >= 2:
                gap_prev = prefix[-1] - prefix[-2]
                if not highest_bit(gap_prev) < lowest_bit(x - prefix[-1]):
                    continue
            got_colour = colour
            ok = True
            if len(prefix) + 1 >= dim:
                for rest in combinations(prefix, dim - 1):
                    got = table.get(rest + (x,))
                    if got is None or (got_colour is not None and got != got_colour):
                        ok = False
                        break
                    if got_colour is None:
                        got_colour = got
            if ok:
                prefix.append(x)
                found = extend(got_colour, x + 1)
                if found is not None:
                    return found
                prefix.pop()
        return None

    return extend(None, 0)


def find_afs_mono(c: Colouring, m: int, window=None, apart: bool = False, colour=None):
    """Lexicographically least increasing length-m sequence with monochromatic adjacent tuples.

    Candidates are increasing sequences over [1, window] all of whose
    adjacent sums stay within the window (equivalently, total <= window).
    ``apart=True`` restricts to apartness-satisfying sequences; a fixed
    ``colour`` restricts the monochromatic colour sought.  Returns None
    when no candidate survives.
    """
    if c.mode != "vectors":
        raise PreconditionError("find_afs_mono applies to vectors-mode colourings")
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise PreconditionError(f"sequence length must be an integer >= 1, got {m!r}")
    limit = c.window if window is None else window
    if not isinstance(limit, int) or isinstance(limit, bool) or limit < 1:
        raise PreconditionError(f"window must be an integer >= 1, got {limit!r}")
    d = c.dim
    table = c.table
    prefix = []
    psums = [0]

    def extend(fixed, start):
        if len(prefix) == m:
            return tuple(prefix)
        after = m - len(prefix) - 1
        for x in range(start, limit + 1):
            # cheapest possible completion is x, x+1, ..., x+after
            if psums[-1] + (after + 1) * x + after * (after + 1) // 2 > limit:
                break
            if apart and prefix and not highest_bit(prefix[-1]) < lowest_bit(x):
                continue
            t = len(prefix)
            prefix.append(x)
            psums.append(psums[-1] + x)
            got_colour = fixed
            ok = True
            if t + 1 >= d:
                # adjacent tuples whose last run ends at the new element
                for bounds in combinations(range(t + 1), d):
                    edges = bounds + (t + 1,)
                    key = tuple(psums[edges[i + 1]] - psums[edges[i]] for i in range(d))
                    got = table.get(key)
                    if got is None or (got_colour is not None and got != got_colour):
                        ok = False
                        break
                    if got_colour is None:
                        got_colour = got
            if ok:
                found = extend(got_colour, x + 1)
                if found is not None:
                    return found
            prefix.pop()
            psums.pop()
        return None

    return extend(colour, 1)


@dataclass(frozen=True)
class FiniteNumberQuery:
    """Parameters of a finite analogue number computation."""

    principle: str
    dim: int
    palette: int
    size: int
    cap: int

    def __post_init__(self):
        if self.principle not in PRINCIPLES:
            raise PreconditionError(f"principle must be one of {PRINCIPLES}, got {self.principle!r}")
        for name in ("dim", "palette", "size", "cap"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise PreconditionError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class FiniteNumberResult:
    """Outcome of a finite number scan.

    ``value`` is the least sufficient window size, or None when the cap was
    exhausted; in that case ``counterexample`` holds a witness-free
    colouring at the cap size.  ``witness`` is the witness found for the
    first colouring in enumeration order at the answer size.
    """

    query: FiniteNumberQuery
    value: int | None
    counterexample: Colouring | None
    witness: tuple | None

    def exceeded_cap(self) -> bool:
        return self.value is None


def _search_witness(principle, colouring, m, window):
    if principle == "RT" or principle == "ZRT":
        return find_mono_subset(colouring, m)
    if principle == "SEPZRT":
        return find_mono_subset(colouring, m, separated=True)
    if principle == "AHT":
        return find_afs_mono(colouring, m, window=window)
    return find_afs_mono(colouring, m, window=window, apart=True)


def _variables(principle, dim, window):
    """The colour variables of a window in enumeration order, and the key of each tuple.

    A shift-invariant colouring is a colouring of difference vectors, so
    ZRT/SEPZRT tuples are keyed by their difference vector (the empty
    vector at dim 1: one colour for the whole window).
    """
    if principle == "RT":
        return list(sets_domain(dim, window)), None
    if principle in _SETS_PRINCIPLES:
        return list(vectors_domain(dim - 1, window)), lambda t: tuple(b - a for a, b in zip(t, t[1:]))
    return list(vectors_domain(dim, window)), None


def _candidate_witnesses(principle, dim, m, window, key):
    """Yield the tuples coloured by each candidate witness over the window.

    Every enumerated subset yields once, so the caller can charge it to the
    budget; None stands for one that fails the SEPZRT separation condition.
    """
    if principle in _SETS_PRINCIPLES:
        for subset in combinations(range(window + 1), m):
            if principle == "SEPZRT" and any(not highest_bit(b - a) < lowest_bit(c - b)
                                             for a, b, c in zip(subset, subset[1:], subset[2:])):
                yield None
                continue
            tuples = combinations(subset, dim)
            yield tuples if key is None else map(key, tuples)
        return
    apart = principle == "APAHT"

    def extend(prefix, start, room):
        if len(prefix) == m:
            yield adjacent_tuples(prefix, dim)
            return
        after = m - len(prefix) - 1
        for x in range(start, room + 1):
            # cheapest possible completion is x, x+1, ..., x+after
            if (after + 1) * x + after * (after + 1) // 2 > room:
                break
            if apart and prefix and not highest_bit(prefix[-1]) < lowest_bit(x):
                continue
            yield from extend(prefix + (x,), x + 1, room - x)

    yield from extend((), 1, window)


def _over_budget(spent, limit):
    return BudgetExceededError(
        f"finite-number search exceeds the budget of {limit} DFS nodes and candidate witnesses",
        count=spent)


def _least_witness_free(buckets, palette, spent, limit):
    """Least colour assignment with no monochromatic candidate, and the budget spent.

    ``buckets[i]`` holds, as bitmasks, the other indices of every
    candidate whose largest index is i.  Indices take colours ascending and
    in first-use order (at most one above the largest colour used so far),
    which keeps the least assignment of every colour-permutation orbit.
    Returns (None, spent) when every assignment has a monochromatic
    candidate.  Each node adds one to ``spent``.
    """
    n = len(buckets)
    assignment = [-1] * n
    members = [0] * palette  # bitmask of the indices holding each colour
    top = [-1] * (n + 1)  # top[i]: largest colour among indices below i
    i = 0
    while 0 <= i < n:
        colour = assignment[i]
        if colour >= 0:
            members[colour] ^= 1 << i
        highest = min(palette - 1, top[i] + 1)
        for colour in range(colour + 1, highest + 1):
            spent += 1
            if spent > limit:
                raise _over_budget(spent, limit)
            same = members[colour]
            if not any(rest & same == rest for rest in buckets[i]):
                break
        else:
            assignment[i] = -1
            i -= 1
            continue
        assignment[i] = colour
        members[colour] |= 1 << i
        top[i + 1] = max(top[i], colour)
        i += 1
    return (assignment if i == n else None), spent


def finite_number(query: FiniteNumberQuery, budget=None) -> FiniteNumberResult:
    """Least window size at which every admissible colouring has a witness.

    Admissible colourings are shift-invariant (coloured through difference
    vectors) for ZRT/SEPZRT and arbitrary otherwise.  Each size is decided
    by a depth-first search over the colour variables in enumeration order,
    pruning as soon as a candidate witness becomes monochromatic, so the
    counterexample found is the first one in ``enumerate_colourings`` order
    and the witness is the one found on the constant colouring.  Refuses
    once the DFS nodes and candidates of the query exceed the budget.
    """
    principle = query.principle
    sets_mode = principle in _SETS_PRINCIPLES
    dim, palette, m = query.dim, query.palette, query.size
    if sets_mode and m < dim:
        raise PreconditionError(f"witness size {m} below tuple arity {dim}")
    limit = candidate_budget() if budget is None else budget
    spent = 0
    mode = "sets" if sets_mode else "vectors"

    def colouring(window, variables, key, assignment):
        colour_of = dict(zip(variables, assignment))
        if sets_mode:
            table = {t: colour_of[t if key is None else key(t)] for t in sets_domain(dim, window)}
        else:
            table = colour_of
        return Colouring(dim, window, palette, mode, table)

    for size in range(1, query.cap + 1):
        window = size - 1 if sets_mode else size
        variables, key = _variables(principle, dim, window)
        index = {v: i for i, v in enumerate(variables)}
        buckets = [[] for _ in variables]
        seen = set()
        always_mono = False
        for tuples in _candidate_witnesses(principle, dim, m, window, key):
            spent += 1
            if spent > limit:
                raise _over_budget(spent, limit)
            if tuples is None:
                continue
            mask = 0
            for t in tuples:
                mask |= 1 << index[t]
            if mask in seen:
                continue
            seen.add(mask)
            if mask == 0:
                # m < dim: a witness colouring no tuple exists, whatever the colours
                always_mono = True
                break
            last = mask.bit_length() - 1
            buckets[last].append(mask ^ (1 << last))
        assignment = None
        if not always_mono:
            assignment, spent = _least_witness_free(buckets, palette, spent, limit)
        if assignment is None:
            zero = colouring(window, variables, key, [0] * len(variables))
            return FiniteNumberResult(query, size, None, _search_witness(principle, zero, m, window))
        counterexample = (window, variables, key, assignment)
    return FiniteNumberResult(query, None, colouring(*counterexample), None)


def sweep_finite_numbers(queries, out, budget=None):
    """Write one CSV row per query: principle, dim, k, m, N, witness_or_counterexample."""
    writer = csv.writer(out)
    writer.writerow(["principle", "dim", "k", "m", "N", "witness_or_counterexample"])
    for query in queries:
        result = finite_number(query, budget=budget)
        if result.value is not None:
            cell = json.dumps(list(result.witness))
            answer = result.value
        else:
            cell = json.dumps(colouring_to_json(result.counterexample))
            answer = "exceeds cap"
        writer.writerow([query.principle, query.dim, query.palette, query.size, answer, cell])
