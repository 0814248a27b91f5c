import dataclasses
import random
import sys
import time
from collections import Counter
from functools import cache
from itertools import accumulate, combinations
from math import comb, inf

import pytest

from by_path import load
from irl.colouring import (
    Colouring,
    colouring_to_json,
    enumerate_colourings,
    sample_colourings,
    sets_domain,
    vectors_domain,
)
from irl.errors import BudgetExceededError, PreconditionError
from irl.search import (
    PRINCIPLES,
    FiniteNumberQuery,
    _candidate_witnesses,
    _find_mono_from_zero,
    _least_total,
    find_afs_mono,
    find_mono_subset,
    finite_number,
    witness_colour,
)

checks = load("perfbench/checks.py")


def pair_colouring(window, fn, palette=2):
    return Colouring(2, window, palette, "sets",
                     {t: fn(*t) for t in sets_domain(2, window)})


def vector_colouring(dim, window, fn, palette=2):
    return Colouring(dim, window, palette, "vectors",
                     {t: fn(t) for t in vectors_domain(dim, window)})


def test_find_mono_subset_examples():
    gap_parity = pair_colouring(10, lambda x, y: (y - x) % 2)
    assert find_mono_subset(gap_parity, 4) == (0, 2, 4, 6)
    constant = pair_colouring(5, lambda x, y: 0)
    assert find_mono_subset(constant, 3) == (0, 1, 2)
    tiny = pair_colouring(1, lambda x, y: (y - x) % 2)
    assert find_mono_subset(tiny, 3) is None


def test_find_mono_subset_requires_m_at_least_dim():
    with pytest.raises(PreconditionError):
        find_mono_subset(pair_colouring(4, lambda x, y: 0), 1)


def test_find_afs_mono_examples():
    parity = vector_colouring(1, 12, lambda t: t[0] % 2)
    assert find_afs_mono(parity, 3, window=12) == (2, 4, 6)
    constant = vector_colouring(1, 6, lambda t: 0)
    assert find_afs_mono(constant, 3, window=6) == (1, 2, 3)
    pair_sum_parity = vector_colouring(2, 12, lambda t: (t[0] + t[1]) % 2)
    # (2, 3, 4) is monochromatic in colour 1 and precedes (2, 4, 6)
    expected = checks.least_run_sequence(pair_sum_parity.table, 2, 3, 12, 2)
    assert expected == (2, 3, 4)
    assert find_afs_mono(pair_sum_parity, 3, window=12) == expected


def test_find_afs_mono_respects_window():
    constant = vector_colouring(1, 20, lambda t: 0)
    witness = find_afs_mono(constant, 3, window=7)
    assert witness == (1, 2, 3)
    assert find_afs_mono(constant, 3, window=5) is None


def test_find_afs_mono_apart_flag():
    constant = vector_colouring(1, 30, lambda t: 0)
    witness = find_afs_mono(constant, 3, window=30, apart=True)
    assert witness == (1, 2, 4)
    assert checks.apart(witness)
    parity = vector_colouring(1, 30, lambda t: t[0] % 2)
    witness = find_afs_mono(parity, 2, window=30, apart=True)
    assert witness is not None and checks.apart(witness)
    assert checks.mono_colour(parity.table, checks.run_tuples(witness, 1)) is not None


def test_find_afs_mono_colour_restriction():
    parity = vector_colouring(1, 12, lambda t: t[0] % 2)
    assert find_afs_mono(parity, 1, window=12, colour=1) == (1,)
    assert find_afs_mono(parity, 3, window=12, colour=1) is None
    assert find_afs_mono(parity, 3, window=12, colour=0) == (2, 4, 6)


def test_separated_flag_produces_separated_witness():
    constant = pair_colouring(10, lambda x, y: 0)
    witness = find_mono_subset(constant, 3, separated=True)
    assert witness == (0, 1, 3)
    assert checks.apart(checks.diffs(witness))


def random_colouring(rng, mode, dim, window, palette, keep):
    """A colouring of the tuples of the domain, each one kept with probability ``keep``."""
    domain = sets_domain(dim, window) if mode == "sets" else vectors_domain(dim, window)
    return Colouring(dim, window, palette, mode, {t: rng.randrange(palette) for t in domain if rng.random() < keep})


def subset_cases():
    """(source, colouring, m, separated) for find_mono_subset, one seeded source after another."""
    rng = random.Random(17)
    for trial in range(40):
        window = rng.randint(2, 6)
        yield "sampled", next(sample_colourings(2, window, 2, seed=trial, count=1)), 3, False
    for window in range(2, 5):
        for c in enumerate_colourings(2, window, 2):
            yield "exhaustive", c, 3, False
    for window in (5, 6):
        for c in sample_colourings(2, window, 2, seed=window, count=120):
            yield "sampled by window", c, 3, False
    rng = random.Random(23)
    for trial in range(150):
        dim = rng.randint(1, 3)
        window = rng.randint(dim, 9)
        c = random_colouring(rng, "sets", dim, window, 2, rng.choice((0.2, 0.5, 0.9)))
        for m in range(dim, dim + 3):
            for separated in (False, True):
                yield "partial", c, m, separated
    rng = random.Random(31)
    for trial in range(90):
        dim = rng.randint(1, 3)
        window = rng.randint(dim, 9)
        c = random_colouring(rng, "sets", dim, window, 3, rng.choice((0.6, 0.9, 1.0)))
        for m in range(dim, dim + 5):
            for separated in (False, True):
                yield "three colours", c, m, separated
    rng = random.Random(43)
    shapes = [(2, rng.randint(12, 18)) for _ in range(12)]
    shapes += [(dim, rng.randint(6, 12)) for dim in (1, 3) for _ in range(8)]
    for dim, window in shapes:
        palette = rng.randint(1, 3)
        keep = rng.choice((0.7, 0.9, 1.0))
        c = random_colouring(rng, "sets", dim, window, palette, keep)
        for m in range(3 if dim == 2 else dim, 7):
            yield "wide separated", c, m, True


def test_find_mono_subset_is_the_least_subset_of_the_checks():
    found = Counter()
    cases = []
    for source, c, m, separated in subset_cases():
        got = find_mono_subset(c, m, separated)
        least = checks.least_subset(c.table, c.window, c.dim, m, c.palette, separated)
        assert got == least, (source, c, m, separated)
        found[source] += got is not None
        cases.append((source, c, m, separated, least))
    assert found["wide separated"] > 40
    assert {c.dim for _, c, _, _, _ in cases} == {1, 2, 3} and found["three colours"] > 0
    # the same objects again, large m and separated first, each reusing the masks other searches built,
    # and one fresh copy of each, whose masks those searches build
    copies = {}
    for source, c, m, separated, least in reversed(cases):
        copy = copies.setdefault(id(c), dataclasses.replace(c))
        for again in (c, copy):
            assert find_mono_subset(again, m, separated) == least, ("again", source, again is c, c, m, separated)


def test_subset_masks_stay_out_of_equality_hashing_and_serialization():
    c = random_colouring(random.Random(61), "sets", 2, 9, 3, 0.9)
    fresh = dataclasses.replace(c)
    shown, saved = repr(c), colouring_to_json(c)
    find_mono_subset(c, 4)
    find_mono_subset(c, 3, separated=True)
    assert c._subset_masks and "_subset_masks" not in vars(fresh)
    assert c == fresh and fresh == c
    assert repr(c) == shown and colouring_to_json(c) == saved
    for obj in (c, fresh):  # hashed by its fields, of which the table is a dict
        with pytest.raises(TypeError, match="dict"):
            hash(obj)
    names = ["dim", "window", "palette", "mode", "table"]
    assert [f.name for f in dataclasses.fields(Colouring)] == list(Colouring.__match_args__) == names
    assert "_subset_masks" not in vars(dataclasses.replace(c))


def test_the_search_from_0_keeps_its_masks_apart_from_the_subset_search():
    rng = random.Random(59)
    for trial in range(40):
        dim = rng.choice((2, 3))
        window = rng.randint(dim + 1, 10)
        palette = rng.randint(1, 3)
        from_0 = {t: rng.randrange(palette) for t in sets_domain(dim, window) if t[0] == 0 and rng.random() < 0.8}
        table = dict(from_0)  # and some of their translates, coloured alike: part of the lift
        for t, colour in from_0.items():
            for shift in range(1, window - t[-1] + 1):
                if rng.random() < 0.5:
                    table[tuple(x + shift for x in t)] = colour
        c = Colouring(dim, window, palette, "sets", table)
        sizes = range(dim, dim + 4)
        # each answer on a fresh object, then both searches on one object, in both orders
        want = {(search, m): search(dataclasses.replace(c), m)
                for search in (find_mono_subset, _find_mono_from_zero) for m in sizes}
        for order in ((find_mono_subset, _find_mono_from_zero), (_find_mono_from_zero, find_mono_subset)):
            one = dataclasses.replace(c)
            for m in sizes:
                for search in order:
                    assert search(one, m) == want[search, m], (trial, [s.__name__ for s in order], search.__name__, m)


def afs_cases():
    """(source, colouring, m, window, apart, colour) for find_afs_mono, one seeded source after another."""
    rng = random.Random(19)
    for trial in range(40):
        window = rng.randint(6, 14)
        c = next(sample_colourings(1, window, 2, mode="vectors", seed=trial, count=1))
        yield "sampled", c, 3, window, False, None
    rng = random.Random(29)
    for trial in range(150):
        dim = rng.randint(1, 3)
        window = rng.randint(dim, 13)
        c = random_colouring(rng, "vectors", dim, window, 2, rng.choice((0.2, 0.5, 0.9)))
        for m in range(1, dim + 3):
            limit = rng.randint(1, window)
            for apart, colour in ((False, None), (True, None), (False, 1)):
                yield "partial", c, m, limit, apart, colour
    rng = random.Random(41)
    for trial in range(300):
        dim = rng.randint(1, 3)
        window = rng.randint(dim, 40)
        keep = rng.choice((0.3, 0.7, 0.95, 1.0))
        palette = rng.randint(1, 3)
        c = random_colouring(rng, "vectors", dim, window, palette, keep)
        for m in range(1, 8):
            limit = rng.choice((None, rng.randint(1, window), window + rng.randint(1, 5)))
            for apart, colour in ((False, None), (True, None), (False, palette - 1), (True, 0)):
                yield "wide", c, m, limit, apart, colour


def test_find_afs_mono_is_the_least_run_sequence_of_the_checks():
    found = Counter()
    for source, c, m, limit, apart, colour in afs_cases():
        got = find_afs_mono(c, m, limit, apart, colour)
        window = c.window if limit is None else limit
        assert got == checks.least_run_sequence(c.table, c.dim, m, window, c.palette, apart, colour), \
            (source, c, m, limit, apart, colour)
        found[source] += got is not None
    assert found["wide"] > 1500


def test_finite_number_pinned_values():
    assert finite_number(FiniteNumberQuery("RT", 1, 2, 3, 10)).value == 5
    assert finite_number(FiniteNumberQuery("AHT", 1, 1, 3, 10)).value == 6
    assert finite_number(FiniteNumberQuery("SEPZRT", 2, 1, 3, 10)).value == 4
    assert finite_number(FiniteNumberQuery("APAHT", 1, 1, 2, 10)).value == 3


def test_finite_number_monotone_in_size_and_palette():
    values_by_size = [finite_number(FiniteNumberQuery("RT", 1, 2, m, 12)).value
                      for m in (2, 3, 4)]
    assert values_by_size == sorted(values_by_size)
    small_palette = finite_number(FiniteNumberQuery("RT", 1, 2, 3, 12)).value
    big_palette = finite_number(FiniteNumberQuery("RT", 1, 3, 3, 12)).value
    assert big_palette >= small_palette


def test_finite_number_cap_exceeded_reports_counterexample():
    result = finite_number(FiniteNumberQuery("RT", 1, 2, 3, 4))
    assert result.value is None and result.exceeded_cap()
    counterexample = result.counterexample
    assert counterexample.window == 3
    assert find_mono_subset(counterexample, 3) is None


def test_finite_number_budget_refusal():
    with pytest.raises(BudgetExceededError):
        finite_number(FiniteNumberQuery("RT", 2, 2, 3, 12), budget=50)


VECTORS = Colouring(1, 4, 2, "vectors", {(1,): 0})
SETS = Colouring(1, 4, 2, "sets", {(1,): 0})


@pytest.mark.parametrize("call, message", [
    # the mode is checked before the length and the window
    (lambda: find_mono_subset(VECTORS, 2), "find_mono_subset expects a sets-mode instance, got 'vectors'"),
    (lambda: find_mono_subset(VECTORS, 0), "find_mono_subset expects a sets-mode instance, got 'vectors'"),
    (lambda: find_afs_mono(SETS, 0), "find_afs_mono expects a vectors-mode instance, got 'sets'"),
    (lambda: find_afs_mono(SETS, 2, window=0), "find_afs_mono expects a vectors-mode instance, got 'sets'"),
    (lambda: find_afs_mono(VECTORS, 0), "sequence length must be an integer >= 1, got 0"),
    (lambda: find_afs_mono(VECTORS, 2, window=0), "window must be an integer >= 1, got 0"),
    (lambda: FiniteNumberQuery("NOPE", 1, 2, 3, 4),
     "principle must be one of ('RT', 'ZRT', 'SEPZRT', 'AHT', 'APAHT'), got 'NOPE'"),
    (lambda: FiniteNumberQuery("RT", 1, 2, 3, 0), "cap must be an integer >= 1, got 0"),
])
def test_search_preconditions_raise_their_own_errors(call, message):
    with pytest.raises(PreconditionError) as info:
        call()
    assert str(info.value) == message


def test_finite_number_charges_one_unit_per_size():
    with pytest.raises(BudgetExceededError) as info:
        finite_number(FiniteNumberQuery("RT", 1, 2, 3, 4), budget=0)
    assert str(info.value) == "finite-number search exceeds the budget of 0 DFS nodes and candidate witness tuples"
    assert info.value.count == 1


def reference_finite_number(query, budget):
    """Exhaustive reference: the checks' least witness of every colouring, in enumeration order, at each size."""
    sets_mode = query.principle in ("RT", "ZRT", "SEPZRT")
    invariant = query.principle in ("ZRT", "SEPZRT")
    for size in range(1, query.cap + 1):
        window = size - 1 if sets_mode else size
        first_witness = None
        counterexample = None
        for index, c in enumerate(enumerate_colourings(
                query.dim, window, query.palette, mode="sets" if sets_mode else "vectors",
                invariant=invariant, budget=budget)):
            witness = checks._least_witness(query.principle, c.table, query.dim, query.size, window, query.palette)
            if index == 0:
                first_witness = witness
            if witness is None:
                counterexample = c
                break
        if counterexample is None:
            return size, first_witness, None
    return None, None, counterexample


REFERENCE_BUDGET = 70_000  # colourings per size; covers R(3, 3) at 2^15


@pytest.mark.parametrize("principle", ["RT", "ZRT", "SEPZRT", "AHT", "APAHT"])
def test_finite_number_matches_exhaustive_reference(principle):
    # the grid holds the edge cases: k = 1, ZRT/SEPZRT at dim 1 (one colour
    # per window), and m < dim for AHT/APAHT (every sequence is a witness)
    compared = 0
    for dim in (1, 2, 3):
        for k in (1, 2, 3):
            for m in (1, 2, 3, 4):
                query = FiniteNumberQuery(principle, dim, k, m, 8)
                if principle in ("RT", "ZRT", "SEPZRT") and m < dim:
                    with pytest.raises(PreconditionError):
                        finite_number(query)
                    continue
                try:
                    expected = reference_finite_number(query, REFERENCE_BUDGET)
                except BudgetExceededError:
                    continue
                result = finite_number(query)
                assert (result.value, result.witness, result.counterexample) == expected, query
                compared += 1
    assert compared >= 20


def test_finite_number_closed_forms():
    for k in (1, 2, 3):
        for m in (1, 2, 3, 4):
            assert finite_number(FiniteNumberQuery("RT", 1, k, m, 16)).value == k * (m - 1) + 1
    for m in (1, 2, 3, 4, 5):
        assert finite_number(FiniteNumberQuery("AHT", 1, 1, m, 20)).value == m * (m + 1) // 2
        assert finite_number(FiniteNumberQuery("APAHT", 1, 1, m, 40)).value == 2 ** m - 1
    # Schur numbers S(1), S(2) = 1, 4
    for k, schur in ((1, 1), (2, 4)):
        assert finite_number(FiniteNumberQuery("ZRT", 2, k, 3, 16)).value == schur + 2
    assert finite_number(FiniteNumberQuery("RT", 2, 2, 3, 12)).value == 6  # R(3, 3)


def test_finite_number_schur_three():
    started = time.monotonic()
    result = finite_number(FiniteNumberQuery("ZRT", 2, 3, 3, 16))
    assert result.value == 13 + 2  # Schur number S(3) = 13
    assert time.monotonic() - started <= 10.0


def test_finite_number_budget_counts_search_work():
    with pytest.raises(BudgetExceededError) as info:
        finite_number(FiniteNumberQuery("ZRT", 2, 3, 3, 16), budget=1000)
    assert info.value.count == 1001


def test_separated_zrt_at_dim_one_is_two_to_the_m_minus_one():
    # one colour per window, and the least separated m-subset is the partial sums of 1, 2, 4, ...
    for k in (1, 2, 3):
        for m in range(1, 13):
            assert finite_number(FiniteNumberQuery("SEPZRT", 1, k, m, 2**11)).value == 2 ** (m - 1), (k, m)


@pytest.mark.parametrize("k, m", [(2, 4), (3, 3)])
def test_separated_zrt_at_dim_two_exceeds_cap_80(k, m):
    result = finite_number(FiniteNumberQuery("SEPZRT", 2, k, m, 80))
    assert result.exceeded_cap()
    assert result.counterexample.window == 79
    assert find_mono_subset(result.counterexample, m, separated=True) is None


@pytest.mark.parametrize("d, k, m, apaht", [
    (1, 1, 2, 3), (1, 1, 3, 7), (1, 1, 4, 15), (1, 1, 5, 31), (1, 2, 2, 31),
    (2, 1, 2, 3), (2, 1, 3, 7), (2, 1, 4, 15), (2, 1, 5, 31), (2, 2, 2, 3), (2, 3, 2, 3),
    # both sides exceed their caps
    (1, 2, 3, None), (1, 2, 4, None), (1, 2, 5, None),
    (1, 3, 2, None), (1, 3, 3, None), (1, 3, 4, None), (1, 3, 5, None),
])
def test_separated_zrt_is_one_more_than_apart_aht(d, k, m, apaht):
    # SEPZRT^(d+1)_k(m+1) = APAHT^d_k(m) + 1: separated gaps are an apart sequence,
    # and the sets principle counts points where the adjacent-sum one counts a window
    sepzrt = finite_number(FiniteNumberQuery("SEPZRT", d + 1, k, m + 1, 81), budget=3_000_000)
    assert finite_number(FiniteNumberQuery("APAHT", d, k, m, 80), budget=3_000_000).value == apaht
    assert sepzrt.value == (None if apaht is None else apaht + 1)


def test_finite_numbers_keep_the_order_their_definitions_imply():
    # a number does not fall as k or m grows; ZRT <= RT, since a shift-invariant colouring is a colouring;
    # ZRT <= SEPZRT and AHT <= APAHT, since an apart solution is a solution.  A query decided at cap 12
    # bounds its number by (value, value), an "exceeds cap" one by (13, inf); a refused one bounds nothing.
    shapes = [(d, k, m) for d in (1, 2) for k in (1, 2, 3) for m in (2, 3, 4)]
    grid = [(p, *shape) for p in PRINCIPLES for shape in shapes]
    bounds = {}
    for query in grid:
        try:
            value = finite_number(FiniteNumberQuery(*query, 12), budget=300_000).value
        except BudgetExceededError:
            continue
        bounds[query] = (13, inf) if value is None else (value, value)
    relations = [((p, d, k, m), (p, d, k + 1, m)) for p, d, k, m in grid]
    relations += [((p, d, k, m), (p, d, k, m + 1)) for p, d, k, m in grid]
    relations += [((low, *shape), (high, *shape)) for low, high in (("ZRT", "RT"), ("ZRT", "SEPZRT"), ("AHT", "APAHT"))
                  for shape in shapes]
    checked = 0
    for low, high in relations:
        if low in bounds and high in bounds and bounds[high][1] < inf:
            assert bounds[low][0] <= bounds[high][1], (low, bounds[low], high, bounds[high])
            checked += 1
    assert len(bounds) >= 87 and checked >= 98  # decided and checked when the test was written


@pytest.mark.parametrize("query, budget", [
    # each budget runs out part-way through the tuples of one candidate
    (FiniteNumberQuery("RT", 2, 2, 3, 12), 43),
    (FiniteNumberQuery("ZRT", 2, 2, 3, 12), 50),
    (FiniteNumberQuery("SEPZRT", 2, 2, 3, 12), 42),
    (FiniteNumberQuery("AHT", 2, 2, 3, 12), 55),
    (FiniteNumberQuery("APAHT", 1, 2, 3, 12), 42),
], ids=lambda value: getattr(value, "principle", str(value)))
def test_finite_number_refusal_inside_a_candidate_counts_the_budget_plus_one(query, budget):
    with pytest.raises(BudgetExceededError) as info:
        finite_number(query, budget=budget)
    assert str(info.value) == \
        f"finite-number search exceeds the budget of {budget} DFS nodes and candidate witness tuples"
    assert info.value.count == budget + 1


def test_apart_walks_visit_only_prefixes_that_complete():
    # every prefix the walk enters, but the root (0,), is the start of a candidate's partial sums
    extend = next(c for c in _candidate_witnesses.__code__.co_consts if getattr(c, "co_name", None) == "extend")
    for principle in ("APAHT", "SEPZRT"):
        for dim in (1, 2):
            for m in range(2, 7):
                for window in (30, 100):
                    visited = set()

                    def record(frame, event, arg):
                        if event == "call" and frame.f_code is extend:
                            visited.add(frame.f_locals["sums"])

                    before = sys.getprofile()
                    sys.setprofile(record)
                    try:
                        candidates = [cand for cand, _, _ in _candidate_witnesses(principle, dim, m, window)]
                    finally:
                        sys.setprofile(before)
                    starts = {(0,)}
                    for cand in candidates:
                        sums = cand if principle == "SEPZRT" else (0, *accumulate(cand))
                        starts.update(sums[:i] for i in range(1, len(sums) + 1))
                    assert visited <= starts, (principle, dim, m, window, sorted(visited - starts)[:3])


def test_least_total_is_the_least_total_of_a_run_by_brute_force():
    def brute(x, after, apart):
        """The least x + y1 + ... + y_after over increasing runs x < y1 < ..., apart by the checks' definition."""
        best = None

        def walk(last, left, total):
            nonlocal best
            if left == 0:
                best = total if best is None else min(best, total)
                return
            y = last + 1
            while best is None or total + y * left < best:  # every later term exceeds y
                if not apart or checks.apart((last, y)):
                    walk(y, left - 1, total + y)
                y += 1

        walk(x, after, x)
        return best

    for apart in (False, True):
        for x in range(1, 65):
            for after in range(5):
                assert _least_total(x, after, apart) == brute(x, after, apart), (x, after, apart)


def test_find_afs_mono_on_a_sparse_wide_instance_is_fast():
    c = Colouring(2, 10**9, 2, "vectors", {(1, 2): 0, (2, 3): 0, (1, 5): 0, (3, 3): 0, (3, 4): 1})
    started = time.monotonic()
    assert find_afs_mono(c, 3) == (1, 2, 3)
    assert find_afs_mono(c, 4) is None
    assert time.monotonic() - started <= 1.0


def test_huge_parameters_end_in_an_answer_or_a_structured_error():
    assert finite_number(FiniteNumberQuery("RT", 1, 10**12, 1, 1)).value == 1
    result = finite_number(FiniteNumberQuery("RT", 1, 1, 10**12, 5))
    assert result.value is None and result.counterexample.window == 4
    with pytest.raises(PreconditionError, match="exceeds the supported maximum"):
        finite_number(FiniteNumberQuery("RT", 2000, 1, 2000, 2000))
    # no candidate fits the one size; the counterexample's lift is refused, not the candidates' range
    with pytest.raises(BudgetExceededError) as info:
        finite_number(FiniteNumberQuery("ZRT", 1, 1, 10**20, 10**19))
    assert str(info.value) == \
        "materializing 10000000000000000000 1-tuples over window 9999999999999999999 exceeds the budget of 1000000"
    assert find_afs_mono(Colouring(3, 10**30, 2, "vectors", {}), 2) == (1, 2)
    wide = Colouring(1, 10**30, 2, "vectors", {})
    assert find_afs_mono(wide, 10**16) is None  # 1 + 2 + ... + m is above the window
    with pytest.raises(PreconditionError, match="exceeds the supported maximum"):
        find_afs_mono(wide, 10**6)


def paley_colouring(p):
    """colour(a, b) = 0 iff b - a is a quadratic residue mod p (a prime with p % 4 == 1)."""
    residues = {x * x % p for x in range(1, p)}
    return pair_colouring(p - 1, lambda a, b: 0 if (b - a) % p in residues else 1)


def test_paley_colourings_have_no_witness_below_the_ramsey_number():
    assert find_mono_subset(paley_colouring(5), 3) is None  # R(3, 3) = 6
    assert find_mono_subset(paley_colouring(17), 4) is None  # R(4, 4) = 18
    assert find_mono_subset(paley_colouring(17), 3) is not None


def test_every_two_colouring_of_k6_has_a_monochromatic_triangle():
    assert all(find_mono_subset(c, 3) is not None for c in enumerate_colourings(2, 5, 2))


def test_apaht_candidates_step_through_the_apart_ones():
    for dim in (1, 2, 3):
        for m in range(1, 9):
            apart = [cand for cand in _candidate_witnesses("AHT", dim, m, 40)
                     if checks.apart(cand[0])]
            for window in range(1, 41):
                assert list(_candidate_witnesses("APAHT", dim, m, window)) == \
                    [cand for cand in apart if sum(cand[0]) <= window]


def test_shift_invariant_candidates_stand_for_every_subset():
    # brute force: every m-subset of [0, 20] is filed under its largest element,
    # so the subsets of [0, w] are those filed at w or below, in the same order
    diffs = cache(checks.diffs)  # the dim-subsets of [0, 20] recur across the m-subsets
    for m in range(1, 7):
        separated = [checks.apart(checks.diffs(s)) for s in combinations(range(21), m)]
        for dim in range(1, min(m, 3) + 1):
            # principle -> per largest element: the masks and the first subset
            filed = {p: ([set() for _ in range(21)], [None] * 21) for p in ("ZRT", "SEPZRT")}
            for s, passes in zip(combinations(range(21), m), separated):
                vectors = frozenset(map(diffs, combinations(s, dim)))
                for principle, (masks, firsts) in filed.items():
                    if passes or principle == "ZRT":
                        masks[s[-1]].add(vectors)
                        firsts[s[-1]] = firsts[s[-1]] or s
            for principle, (masks, firsts) in filed.items():
                for window in range(21):
                    walked, vectors, spent = [], set(), 0
                    for candidate, tuples, unit in _candidate_witnesses(principle, dim, m, window):
                        spent += unit
                        walked.append(candidate)
                        vectors.add(frozenset(tuples))
                    where = (principle, dim, m, window)
                    assert walked == sorted(walked), where
                    assert vectors == set().union(*masks[:window + 1]), where
                    assert (walked[0] if walked else None) == min(filter(None, firsts[:window + 1]), default=None), where
                    assert spent == comb(m, dim) * len(walked), where


def test_adjacent_sum_candidates_carry_their_adjacent_tuples():
    for principle in ("AHT", "APAHT"):
        for dim in (1, 2, 3):
            for m in range(1, 7):
                for window in range(1, 31):
                    for candidate, tuples, cost in _candidate_witnesses(principle, dim, m, window):
                        assert tuples == checks.run_tuples(candidate, dim), (principle, dim, candidate)
                        assert cost == len(tuples)


def test_separated_search_answers_for_gaps_beyond_the_word_width():
    # the next gap must be a multiple of 2^(bit length of the last gap), a test
    # that needs no bit endpoints, so a gap above 64 bits is no overflow
    far = 2**66 + 1
    c = Colouring(2, far + 1, 1, "sets", {(0, 1): 0, (0, far): 0, (1, far): 0})
    assert find_mono_subset(c, 3, separated=True) == (0, 1, far)
    odd = Colouring(2, far + 1, 1, "sets", {(0, 1): 0, (0, far + 1): 0, (1, far + 1): 0})
    assert find_mono_subset(odd, 3, separated=True) is None


def test_apart_adjacent_search_answers_for_points_beyond_the_word_width():
    # the next point must be a multiple of 2^(bit length of the last one), a
    # test that needs no bit endpoints, so a point above 64 bits is no overflow
    big = 2**66
    c = Colouring(1, 4 * big, 1, "vectors", {(big,): 0, (2 * big,): 0, (3 * big,): 0})
    assert find_afs_mono(c, 2, apart=True) == (big, 2 * big)
    odd = Colouring(1, 4 * big, 1, "vectors", {(big,): 0, (big + 1,): 0, (2 * big + 1,): 0})
    assert find_afs_mono(odd, 2, apart=True) is None
    assert find_afs_mono(odd, 2) == (big, big + 1)


def test_least_adjacent_tuple_is_the_leading_prefix():
    # the d runs of the least adjacent d-tuple of x1 < ... < xm are x1, ..., xd
    rng = random.Random(5)
    for _ in range(600):
        d = rng.randint(1, 4)
        w = tuple(sorted(rng.sample(range(1, 80), rng.randint(d, 7))))
        assert min(checks.run_tuples(w, d)) == w[:d], w
    checked = 0
    for dim in (1, 2, 3):
        for trial in range(8):
            window = rng.randint(dim, 16)
            c = next(sample_colourings(dim, window, rng.randint(1, 3), mode="vectors", seed=trial, count=1))
            for m in range(1, 6):
                for apart in (False, True):
                    witness = find_afs_mono(c, m, apart=apart)
                    if witness is None:
                        continue
                    tuples = checks.run_tuples(witness, dim)
                    first = min(tuples) if tuples else None
                    assert first == (witness[:dim] if m >= dim else None), (c, witness)
                    assert witness_colour(c, witness) == (None if first is None else c.table.get(first))
                    checked += 1
    assert checked > 100


def test_witness_colour_answers_for_sums_beyond_the_word_width():
    # the first tuple is read off the witness, so no adjacent sum is formed
    x, y = 2**63 + 1, 2**63 + 2
    c = Colouring(1, 2**65, 2, "vectors", {(x,): 1, (y,): 1, (x + y,): 1})
    witness = find_afs_mono(c, 2)
    assert witness == (x, y)
    assert witness_colour(c, witness) == 1


def test_witness_colour_is_the_colour_of_the_leading_prefix():
    sets = Colouring(2, 4, 3, "sets", {(0, 1): 0, (0, 2): 1, (1, 2): 2})
    assert witness_colour(sets, (0, 1, 2)) == 0
    assert witness_colour(sets, (3,)) is None
    vectors = Colouring(2, 6, 3, "vectors", {(1, 2): 0, (1, 5): 1, (3, 3): 1, (2, 3): 2})
    assert witness_colour(vectors, (1, 2, 3)) == 0
    assert witness_colour(vectors, (1,)) is None
