"""``finite_number`` against the size loop that rebuilt each size from scratch.

``finite_number`` carries one problem across its sizes: each size adds
the variables and walks the candidates of its own extent.  The reference
below is the loop it replaced, kept as written: each size builds its
whole shape, walks every candidate that fits it, in lexicographic order,
and files each constraint under its largest index.  It shares the
kernel (with each index at its own bit), the shape and the budget rule
with the package, so the two agree exactly when carrying the problem
moves no answer, witness, counterexample or refusal.
"""

import random
from itertools import combinations
from math import comb

import pytest

from irl import search
from irl.budget import budget_limit
from irl.colouring import _shape
from irl.errors import PreconditionError
from irl.sums import _choose, _run_tuples


def rebuilt_candidates(principle, dim, m, window):
    """Yield (candidate, tuples it colours, unit) for each candidate that fits the window."""
    mode, invariant, apart = search._SHAPES[principle]
    unit = comb(m, dim)
    if mode == "sets" and not apart:
        if m > window + 1:
            return
        head = (0,) if invariant else ()
        for rest in _choose(range(len(head), window + 1), m - len(head)):
            subset = head + rest
            yield subset, _run_tuples(subset, dim - 1) if invariant else combinations(subset, dim), unit
        return
    length = m - 1 if invariant else m

    def extend(prefix, sums, start, room):
        if len(prefix) == length:
            if invariant:
                yield sums, _run_tuples(sums, dim - 1), unit
                return
            tuples = set(_run_tuples(sums, dim))
            yield prefix, tuples, len(tuples)
            return
        after = length - len(prefix) - 1
        step = 1 << prefix[-1].bit_length() if apart and prefix else 1
        for x in range(max(start, step), room + 1, step):
            if search._least_total(x, after, apart) > room:
                break
            yield from extend(prefix + (x,), sums + (sums[-1] + x,), x + 1, room - x)

    yield from extend((), (0,), 1, window)


def rebuilt_finite_number(query, budget=None):
    """The finite-number search that builds each size's shape, candidates and buckets afresh."""
    mode, invariant, _ = search._SHAPES[query.principle]
    sets_mode = mode == "sets"
    dim, palette, m = query.dim, query.palette, query.size
    if sets_mode and m < dim:
        raise PreconditionError(f"witness size {m} below tuple arity {dim}")
    limit = budget_limit(budget)
    spent = 0
    first = m if sets_mode else m * (m + 1) // 2
    if first <= query.cap:
        search._check_depth(m)
    for size in range(min(first, query.cap), query.cap + 1):
        spent += 1
        if spent > limit:
            raise search._over_budget(limit)
        window = size - 1 if sets_mode else size
        variables, colouring = _shape(mode, dim, window, palette, invariant, limit)
        index = {v: i for i, v in enumerate(variables)}
        buckets = [{} for _ in variables]
        witness = None
        for candidate, tuples, unit in rebuilt_candidates(query.principle, dim, m, window):
            spent += unit
            if spent > limit:
                raise search._over_budget(limit)
            if witness is None:
                witness = candidate
            mask = 0
            for t in tuples:
                mask |= 1 << index[t]
            if mask == 0:
                return search.FiniteNumberResult(query, size, None, witness)
            last = mask.bit_length() - 1
            buckets[last][mask ^ (1 << last)] = None
        assignment, spent = search._least_witness_free(buckets, range(len(buckets)), palette, spent, limit)
        if assignment is None:
            return search.FiniteNumberResult(query, size, None, witness)
    return search.FiniteNumberResult(query, None, colouring(dict(zip(variables, assignment))), None)


def outcome(run, query, budget):
    """The result's value, witness and counterexample, or the refusal's type, message and count."""
    try:
        result = run(query, budget)
    except (PreconditionError, search.BudgetExceededError) as error:
        return type(error).__name__, str(error), getattr(error, "count", None)
    return result.value, result.witness, result.counterexample


GRID = [search.FiniteNumberQuery(principle, dim, k, m, cap)
        for principle in search.PRINCIPLES for dim in (1, 2, 3) for k in (1, 2, 3) for m in range(1, 6)
        for cap in (1, 3, 8, 12)]


@pytest.mark.parametrize("budget", [None, 50, 1000])
def test_carried_sizes_match_the_rebuilt_ones(budget):
    # the whole grid, 900 queries, under the small budgets; a seeded sample under the default one (all of it: 16 s)
    queries = random.Random(40).sample(GRID, 40) if budget is None else GRID
    for query in queries:
        assert outcome(search.finite_number, query, budget) == outcome(rebuilt_finite_number, query, budget), query
