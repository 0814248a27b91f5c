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
from math import comb

from irl.bits import highest_bit, lowest_bit  # noqa: F401  perfbench/tracer.py patches these names here
from irl.budget import budget_limit
from irl.colouring import Colouring, _shape, charge_domain, colouring_to_json
from irl.colouring import enumerate_colourings  # noqa: F401  kept importable from irl.search
from irl.errors import BudgetExceededError, PreconditionError, check_instance, check_int
from irl.sums import _choose, _gaps, _run_tuples

# principle -> (mode, whether its colourings are shift-invariant, whether its solutions are apart),
# the one statement of each principle's shape: the finite-number walks and irl.reduce's kinds read it.
# Apart means that each element of an APAHT solution has its lowest bit above the highest bit of the
# one before, and that the gaps of a SEPZRT solution do; no reduction kind has a SEPZRT side.
_SHAPES = {"RT": ("sets", False, False), "ZRT": ("sets", True, False), "SEPZRT": ("sets", True, True),
           "AHT": ("vectors", False, False), "APAHT": ("vectors", False, True)}
PRINCIPLES = tuple(_SHAPES)
MAX_WITNESS = 500  # the searches recurse once per witness element


def _check_depth(m):
    if m > MAX_WITNESS:
        raise PreconditionError(f"witness length {m} exceeds the supported maximum of {MAX_WITNESS}")


def find_mono_subset(c: Colouring, m: int, separated: bool = False):
    """Lexicographically least m-subset of the window whose dim-tuples share a colour.

    Returns the subset as an increasing tuple, or None when the window
    holds no witness.  With ``separated=True`` the subset's successive
    differences must additionally be apart.  Since m >= dim, every element
    of a witness lies in one of its coloured tuples, so only the points of
    coloured tuples are tried.

    Each prefix carries a bitmask over the indices of ``c.points``: the
    points that can still extend it.  Once the first tuple fixes the
    colour, that mask is the AND of one mask per (dim-1)-subset S of the
    prefix, the points y with S + (y,) coloured alike.  Those masks are
    built on first use and kept in ``c``'s own ``__dict__`` (not a field,
    so out of equality, ``repr`` and JSON) for as long as ``c`` lives, at
    most C(len(points), dim - 1) * palette of them, so a later search of
    the same object (any m, separated or not) reuses them; only repeated
    searches of one object gain.  Set bits are tried lowest first, and a
    prefix with fewer candidates than elements still needed is dropped.
    A separated prefix of two or more elements skips each candidate whose
    gap from its last element is not a multiple of 2^(bit length of its
    last gap), which is the apartness test.  A separated prefix stops at
    the first candidate x whose least completion ends past the last point:
    with g the gap from the prefix's last element to x (0 for an empty
    prefix, whose first gap is then free) and k elements still needed
    after x, each later gap apart from the one before, that end is
    x - g + ``_least_total(g, k, True)``, which grows with x.
    """
    check_instance(c, Colouring, "find_mono_subset", "sets")
    return _least_subset(c.table.get, c.points, vars(c).setdefault("_subset_masks", {}), c.dim, m, separated)


def _find_mono_from_zero(c: Colouring, m: int):
    """``find_mono_subset`` of the lift of ``c``, whose tuples all start at 0, searched from 0.

    The lift colours every translate inside the window of each tuple of
    ``c``, and ``c.dim`` is at least 2.  In a translate-closed colouring
    (every translate inside the window of a coloured tuple coloured alike,
    as in every lift) the least witness starts at 0: moving a witness down
    to 0 keeps each tuple's difference vector and stays inside the window.
    So only subsets from 0 are searched, and a tuple is looked up by
    translating it to 0.  Each element of a witness from 0 shares a tuple
    with 0, so the points of ``c`` are the only candidates: with fewer of
    them than m the lift holds no witness, whatever its own points, and
    ``MAX_WITNESS`` is checked only past that, as in every search.
    """
    table = c.table
    points = c.points  # 0 first, unless the table is empty

    def get(t):
        low = t[0]
        return table.get(tuple([x - low for x in t]) if low else t)

    # masks of their own: they index points[1:] and look tuples up from 0, unlike find_mono_subset's
    return _least_subset(get, points[1:], {}, c.dim, m, prefix=(0,))


def _least_subset(get, points, colour_masks, dim, m, separated=False, prefix=()):
    """The least m-subset that extends ``prefix`` by ``points`` and whose dim-tuples ``get`` colours alike.

    ``points`` are the increasing candidates above the prefix; fewer than
    m points in all means no witness.  The depth-first search that
    ``find_mono_subset`` describes, stopping a separated prefix at its
    first candidate whose least apart completion passes ``points[-1]``; a
    prefix is shorter than dim.  Each prefix builds once the (dim-2)-subsets
    of itself that close a tuple with a candidate, once it can close one.
    ``colour_masks`` maps (S, colour) to the points y above S with
    S + (y,) of that colour; it may hold masks of earlier searches with
    the same ``get`` and ``points``, and gains this search's.
    """
    if not isinstance(m, int) or isinstance(m, bool) or m < dim:
        raise PreconditionError(f"subset size must be an integer >= dim {dim}, got {m!r}")
    n = len(points)
    if m > n + len(prefix):
        return None
    _check_depth(m)
    prefix = list(prefix)
    top = points[-1]

    def colour_mask(rest, colour, low):
        # low is the index above rest[-1] (0 for an empty rest).  A sets key is strictly
        # increasing, so no point at or below rest[-1] can have a bit: the low that built
        # a mask does not change it, and any later search may reuse it.
        mask = colour_masks.get((rest, colour))
        if mask is None:
            mask = 0
            for j in range(low, n):
                if get(rest + (points[j],)) == colour:
                    mask |= 1 << j
            colour_masks[rest, colour] = mask
        return mask

    def extend(allowed, colour, low):
        # allowed: the candidates above the prefix; low: the index above its last element
        need = m - len(prefix)
        size = len(prefix) + 1  # the prefix's size once x joins it
        if separated:  # x - prefix[-1] a multiple of step, so apart from the last gap
            step = 1 << (prefix[-1] - prefix[-2]).bit_length() if size > 2 else 1
        # the (dim-2)-subsets of the prefix that close a tuple with x
        closers = () if size < dim or dim < 2 else ((),) if dim == 2 else tuple(combinations(prefix, dim - 2))
        while allowed.bit_count() >= need:
            bit = allowed & -allowed
            allowed ^= bit
            j = bit.bit_length() - 1
            x = points[j]
            if separated:
                gap = x - prefix[-1] if prefix else 0  # a first element leaves the next gap free
                # the need - 1 later gaps, each apart from the one before, end past the last point
                if x - gap + _least_total(gap, need - 1, True) > top:
                    break
                if gap % step:
                    continue
            got = colour
            if size == dim:  # x completes the first tuple, which fixes the colour
                got = get(tuple(prefix) + (x,))
                if got is None:
                    continue
            if size == m:
                return tuple(prefix) + (x,)
            after = allowed
            if size == dim:
                after &= colour_mask(tuple(prefix), got, low)
            for rest in closers:
                after &= colour_mask(rest + (x,), got, j + 1)
            if after.bit_count() >= need - 1:
                prefix.append(x)
                found = extend(after, got, j + 1)
                if found is not None:
                    return found
                prefix.pop()
        return None

    return extend((1 << n) - 1, None, 0)


def _least_total(x, after, apart):
    """Least total of x and ``after`` more increasing terms: x+1, x+2, ... or, apart, 2^b, 2^(b+1), ... (b the bit
    length of x; each term a multiple of 2^(bit length of the one before)).  It grows with x.

    The one statement of this rule for its three users: ``find_afs_mono`` and the finite-number candidate walk
    (``_candidate_witnesses``) bound a sum by it, and the separated subset search (``_least_subset``) bounds the
    last element by its apart form over the gaps.
    """
    return x + (1 << x.bit_length()) * ((1 << after) - 1) if apart else (after + 1) * x + after * (after + 1) // 2


def find_afs_mono(c: Colouring, m: int, window=None, apart: bool = False, colour=None):
    """Lexicographically least increasing length-m sequence with monochromatic adjacent tuples.

    Candidates are increasing sequences over [1, window] all of whose
    adjacent sums stay within the window (equivalently, total <= window).
    ``apart=True`` restricts to apartness-satisfying sequences; a fixed
    ``colour`` restricts the monochromatic colour sought.  Returns None
    when no candidate survives.  Below m = dim every candidate qualifies;
    from there on every element of a witness is a whole run of one of its
    coloured tuples, so only the points of coloured tuples are tried.

    The adjacent tuples that a next element x closes are fixed by the
    prefix but for x itself: d of the prefix's partial sums give the first
    d-1 runs, and the last run is the rest of the prefix plus x.  Each
    prefix builds these once, so a candidate costs one key per tuple.  A
    prefix stops at the first x whose least completion, plain or apart
    (``_least_total``, the rule of the finite-number walks and the separated
    subset search), overruns the window.
    """
    check_instance(c, Colouring, "find_afs_mono", "vectors")
    check_int(m, "sequence length", 1)
    limit = check_int(c.window if window is None else window, "window", 1)
    if m * (m + 1) // 2 > limit:  # not even 1, ..., m fits; plain even when apart, so _check_depth refuses m first
        return None
    _check_depth(m)
    d = c.dim
    if m < d:  # no adjacent d-tuple to check: the least candidate, built here, is the witness
        least = tuple(1 << j for j in range(m)) if apart else tuple(range(1, m + 1))
        return least if sum(least) <= limit else None
    get = c.table.get
    points = c.points
    prefix = []
    psums = [0]

    def extend(fixed, start):
        if len(prefix) == m:
            return tuple(prefix)
        after = m - len(prefix) - 1
        step = 1 << prefix[-1].bit_length() if apart and prefix else 1  # apart: x a multiple of step
        total = psums[-1]
        runs = None  # built for the first candidate that reaches the tuple checks
        for j in range(start, len(points)):
            x = points[j]
            if total + _least_total(x, after, apart) > limit:
                break
            if x % step:
                continue
            if runs is None:
                # each adjacent tuple whose last run ends at x: its first d-1 runs
                # and the part of its last run before x (no tuple below d elements)
                runs = [(_gaps(q), total - q[-1]) for q in combinations(psums, d)]
            got_colour = fixed
            for r, s in runs:
                got = get(r + (s + x,))
                if got is None or (got_colour is not None and got != got_colour):
                    break
                got_colour = got
            else:
                prefix.append(x)
                psums.append(total + x)
                found = extend(got_colour, j + 1)
                if found is not None:
                    return found
                prefix.pop()
                psums.pop()
        return None

    return extend(colour, 0)


def witness_colour(c: Colouring, witness):
    """Colour of a witness's first tuple, or None when it is shorter than dim.

    The first tuple is the leading dim-prefix in both modes: in vectors
    mode the least adjacent tuple of x1 < ... < xm is made of the d
    one-element runs x1, ..., xd.
    """
    return c.table.get(tuple(witness[: c.dim])) if len(witness) >= c.dim else None


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
            check_int(getattr(self, name), name, 1)


@dataclass(frozen=True)
class FiniteNumberResult:
    """Outcome of a finite number scan.

    ``value`` is the least sufficient window size, or None when the cap was
    exhausted; in that case ``counterexample`` holds a witness-free
    colouring at the cap size.  ``witness`` is the least candidate witness
    at the answer size: the witness of every constant colouring there.
    """

    query: FiniteNumberQuery
    value: int | None
    counterexample: Colouring | None
    witness: tuple | None

    def exceeded_cap(self) -> bool:
        return self.value is None


def _candidate_witnesses(principle, dim, m, window):
    """Yield (candidate, tuples it colours, unit) for each candidate witness of extent ``window``.

    A candidate's extent is its last element in sets mode and its total
    in vectors mode, so the candidates that fit a window are those of
    every extent up to it, and ``finite_number`` walks each one once, at
    the first size it fits.  ``unit`` is the budget charge of the
    candidate: its tuples, ``C(m, d)`` for a sets-mode one and the
    distinct adjacent tuples of an adjacent-sum one.  Candidates come in
    lexicographic order.

    RT takes the m-subsets of ``[0, window]`` that end at ``window``.  A
    shift-invariant principle (ZRT, SEPZRT) colours a subset and its
    translates alike, and the translate to 0 comes first, so it takes only
    the subsets from 0, keyed by their difference vectors (the adjacent
    (dim - 1)-tuples of the gaps): ZRT 0, each (m - 2)-subset of
    ``[1, window - 1]`` and ``window``, SEPZRT those with apart gaps.  The
    increasing SEPZRT gaps and AHT/APAHT terms are walked one by one, the
    last one taking the rest of the room, each prefix pruned by its exact
    cheapest completion, so every prefix walked but the root starts a
    candidate of extent at most ``window``.
    """
    mode, invariant, apart = _SHAPES[principle]
    unit = comb(m, dim)  # the tuples of a sets-mode candidate
    if mode == "sets" and not apart:
        head = (0,) if invariant and window else ()  # the one subset from 0 of extent 0 is (0,)
        # none fits (and _choose's len() of a huge range would overflow), or (0,) alone would, at extent 0
        if m > window + 1 or m == len(head):
            return
        for rest in _choose(range(len(head), window), m - len(head) - 1):
            subset = (*head, *rest, window)
            yield subset, _run_tuples(subset, dim - 1) if invariant else combinations(subset, dim), unit
        return
    # a SEPZRT candidate is the partial sums of its m - 1 gaps from 0
    length = m - 1 if invariant else m

    def extend(prefix, sums, start, room):
        if len(prefix) == length:
            if room:  # only a SEPZRT candidate of no gaps, (0,), ends short of the window
                return
            if invariant:
                yield sums, _run_tuples(sums, dim - 1), unit
                return
            tuples = set(_run_tuples(sums, dim))
            yield prefix, tuples, len(tuples)
            return
        after = length - len(prefix) - 1
        # x > prefix[-1] is apart from it iff x is a multiple of 2^(bit length of prefix[-1])
        step = 1 << prefix[-1].bit_length() if apart and prefix else 1
        terms = range(max(start, step), room + 1, step)
        if not after:  # the last term takes the rest of the room
            terms = (room,) if room in terms else ()
        for x in terms:
            if _least_total(x, after, apart) > room:
                break
            yield from extend(prefix + (x,), sums + (sums[-1] + x,), x + 1, room - x)

    yield from extend((), (0,), 1, window)


def _over_budget(limit):
    # units are charged one at a time, so the first one past the limit is limit + 1
    return BudgetExceededError(
        f"finite-number search exceeds the budget of {limit} DFS nodes and candidate witness tuples",
        count=limit + 1)


def _least_witness_free(buckets, bits, palette, spent, limit):
    """Least colour assignment with no monochromatic candidate, and the budget spent.

    Index i stands for bit ``bits[i]`` of the masks, and ``buckets[i]``
    holds, as such masks, the other indices of every candidate whose
    largest index is i.  Indices take colours ascending and in first-use
    order (at most one above the largest colour used so far), which keeps
    the least assignment of every colour-permutation orbit.  Returns
    (None, spent) when every assignment has a monochromatic candidate.
    Each node adds one to ``spent``.
    """
    n = len(buckets)
    assignment = [-1] * n
    members = [0] * min(palette, n)  # bitmask of the indices holding each colour
    top = [-1] * (n + 1)  # top[i]: largest colour among indices below i
    i = 0
    while 0 <= i < n:
        colour = assignment[i]
        if colour >= 0:
            members[colour] ^= 1 << bits[i]
        highest = min(palette - 1, top[i] + 1)
        bucket = buckets[i]
        for colour in range(colour + 1, highest + 1):
            spent += 1
            if spent > limit:
                raise _over_budget(limit)
            same = members[colour]
            for rest in bucket:
                if rest & same == rest:
                    break
            else:
                break  # no candidate of bucket i is monochromatic: the colour is accepted
        else:
            assignment[i] = -1
            i -= 1
            continue
        assignment[i] = colour
        members[colour] |= 1 << bits[i]
        top[i + 1] = colour if colour > top[i] else top[i]
        i += 1
    return (assignment if i == n else None), spent


def finite_number(query: FiniteNumberQuery, budget=None) -> FiniteNumberResult:
    """Least window size at which every admissible colouring has a witness.

    Admissible colourings are shift-invariant (coloured through difference
    vectors) for ZRT/SEPZRT and arbitrary otherwise.  Each size is decided
    by a depth-first search over the colour variables of the shape, taken
    and turned into a colouring by the rule ``enumerate_colourings`` uses,
    pruning as soon as a candidate witness becomes monochromatic.  So the
    counterexample is the first witness-free colouring in
    ``enumerate_colourings`` order; a ZRT/SEPZRT one is lifted from its
    difference table, the lift charged to the same budget.  Every variable
    and candidate that fits a size fits the next one, so the sizes share
    one problem: each size adds the variables and walks the candidates of
    its own extent, and keeps each variable's bit and each candidate's
    constraint.  The witness is the first candidate walked, the least
    witness of the constant colouring.  Refuses once the query's budget
    units exceed the budget: one per size, per DFS node and per tuple of
    each candidate that fits the size (ZRT/SEPZRT take only the subsets
    that start at 0), so a size charges again the candidates walked
    before it.  A refusal reports the count that charging one unit at a
    time reaches, the budget plus one.
    """
    principle = check_instance(query, FiniteNumberQuery, "finite_number").principle
    mode, invariant, _ = _SHAPES[principle]
    sets_mode = mode == "sets"
    dim, palette, m = query.dim, query.palette, query.size
    if sets_mode and m < dim:
        raise PreconditionError(f"witness size {m} below tuple arity {dim}")
    limit = budget_limit(budget)
    spent = 0
    # no witness fits below m points (sets) or 1 + 2 + ... + m (also apart: a tighter first moves budget units),
    # so no candidate has an extent below the first size's window
    first = m if sets_mode else m * (m + 1) // 2
    if first <= query.cap:
        _check_depth(m)
    # the domain whose tuples are the variables, as _shape reads it
    domain_mode, domain_dim = ("vectors", dim - 1) if invariant else (mode, dim)
    variables = None  # lexicographic (enumeration) order, the kernel's order
    bit = {}  # variable -> its bit in the constraint masks, numbered by first appearance
    filed = {}  # variable -> the constraints whose lexicographically last variable it is, a dict as ordered set
    carried = 0  # the units of every candidate walked so far, which each later size charges again
    witness = None  # the first candidate walked
    for size in range(min(first, query.cap), query.cap + 1):
        spent += 1  # a size with nothing to search still costs one unit
        if spent > limit:
            raise _over_budget(limit)
        window = size - 1 if sets_mode else size
        if variables is None:
            variables, _ = _shape(mode, dim, window, palette, invariant, limit)
            new = variables
        else:
            charge_domain(domain_mode, domain_dim, window, limit)
            # the variables of extent window: (*c, window) in sets mode, the gaps of (0, *c, window) in vectors mode
            if domain_mode == "sets":
                new = [(*c, window) for c in _choose(range(window), domain_dim - 1)]
            else:  # the one vector of no entries has extent 0
                new = [_gaps((0, *c, window)) for c in _choose(range(1, window), domain_dim - 1)] if domain_dim else []
            variables = sorted(variables + new)
        for v in new:
            bit[v] = len(bit)
            filed[v] = {}
        spent += carried
        if spent > limit:
            raise _over_budget(limit)
        for candidate, tuples, unit in _candidate_witnesses(principle, dim, m, window):
            spent += unit
            if spent > limit:
                raise _over_budget(limit)
            carried += unit
            if witness is None:
                witness = candidate
            tuples = list(tuples)
            if not tuples:
                # m < dim: a witness colouring no tuple exists, whatever the colours
                return FiniteNumberResult(query, size, None, witness)
            mask = 0
            for t in tuples:
                mask |= 1 << bit[t]
            last = max(tuples)
            filed[last][mask ^ (1 << bit[last])] = None
        assignment, spent = _least_witness_free(
            [filed[v] for v in variables], [bit[v] for v in variables], palette, spent, limit)
        if assignment is None:
            return FiniteNumberResult(query, size, None, witness)
    colouring = _shape(mode, dim, window, palette, invariant, limit)[1]  # the cap's, charged there already
    return FiniteNumberResult(query, None, colouring(dict(zip(variables, assignment))), None)


def sweep_finite_numbers(queries, out):
    """Write one CSV row per query: principle, dim, k, m, N, witness_or_counterexample."""
    writer = csv.writer(out)
    writer.writerow(["principle", "dim", "k", "m", "N", "witness_or_counterexample"])
    for query in queries:
        result = finite_number(query)
        if result.value is not None:
            cell = json.dumps(result.witness)
            answer = result.value
        else:
            cell = json.dumps(colouring_to_json(result.counterexample))
            answer = "exceeds cap"
        writer.writerow([query.principle, query.dim, query.palette, query.size, answer, cell])
