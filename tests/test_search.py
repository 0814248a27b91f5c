import random
import time
from itertools import combinations

import pytest

from irl.bits import is_apart, is_separated
from irl.colouring import Colouring, enumerate_colourings, sample_colourings, sets_domain, vectors_domain
from irl.errors import BudgetExceededError, PreconditionError
from irl.search import FiniteNumberQuery, find_afs_mono, find_mono_subset, finite_number
from irl.sums import adjacent_sums, adjacent_tuples


def pair_colouring(window, fn, palette=2):
    return Colouring(2, window, palette, "sets",
                     {t: fn(*t) for t in sets_domain(2, window)})


def vector_colouring(dim, window, fn, palette=2):
    return Colouring(dim, window, palette, "vectors",
                     {t: fn(t) for t in vectors_domain(dim, window)})


def brute_mono_subsets(c, m):
    """Naive double-loop checker: every m-subset, every tuple compared pairwise."""
    hits = []
    for cand in combinations(range(c.window + 1), m):
        tuples = list(combinations(cand, c.dim))
        fine = True
        for i in range(len(tuples)):
            for j in range(len(tuples)):
                if c.table[tuples[i]] != c.table[tuples[j]]:
                    fine = False
                    break
            if not fine:
                break
        if fine:
            hits.append(cand)
    return hits


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
    # brute force: (2, 3, 4) is monochromatic in colour 1 and precedes (2, 4, 6)
    expected = min(
        cand for cand in combinations(range(1, 13), 3)
        if sum(cand) <= 12
        and len({pair_sum_parity.table[t] for t in adjacent_tuples(cand, 2)}) == 1
    )
    assert expected == (2, 3, 4)
    assert find_afs_mono(pair_sum_parity, 3, window=12) == expected


def test_find_afs_mono_respects_window():
    constant = vector_colouring(1, 20, lambda t: 0)
    witness = find_afs_mono(constant, 3, window=7)
    assert witness == (1, 2, 3)
    assert max(adjacent_sums(witness)) <= 7
    assert find_afs_mono(constant, 3, window=5) is None


def test_find_afs_mono_apart_flag():
    constant = vector_colouring(1, 30, lambda t: 0)
    witness = find_afs_mono(constant, 3, window=30, apart=True)
    assert witness == (1, 2, 4)
    assert is_apart(witness)
    parity = vector_colouring(1, 30, lambda t: t[0] % 2)
    witness = find_afs_mono(parity, 2, window=30, apart=True)
    assert witness is not None and is_apart(witness)
    assert len({parity.table[(s,)] for s in adjacent_sums(witness)}) == 1


def test_find_afs_mono_colour_restriction():
    parity = vector_colouring(1, 12, lambda t: t[0] % 2)
    assert find_afs_mono(parity, 1, window=12, colour=1) == (1,)
    assert find_afs_mono(parity, 3, window=12, colour=1) is None
    assert find_afs_mono(parity, 3, window=12, colour=0) == (2, 4, 6)


def test_separated_flag_produces_separated_witness():
    constant = pair_colouring(10, lambda x, y: 0)
    witness = find_mono_subset(constant, 3, separated=True)
    assert witness == (0, 1, 3)
    assert is_separated(witness)


def test_lex_least_contract_against_shuffled_brute_force():
    rng = random.Random(17)
    for trial in range(40):
        window = rng.randint(2, 6)
        c = next(sample_colourings(2, window, 2, seed=trial, count=1))
        hits = brute_mono_subsets(c, 3)
        rng.shuffle(hits)
        expected = min(hits) if hits else None
        assert find_mono_subset(c, 3) == expected


def test_afs_lex_least_contract_against_shuffled_brute_force():
    rng = random.Random(19)
    for trial in range(40):
        window = rng.randint(6, 14)
        c = next(sample_colourings(1, window, 2, mode="vectors", seed=trial, count=1))
        hits = [
            cand for cand in combinations(range(1, window + 1), 3)
            if sum(cand) <= window
            and len({c.table[(s,)] for s in adjacent_sums(cand)}) == 1
        ]
        rng.shuffle(hits)
        expected = min(hits) if hits else None
        assert find_afs_mono(c, 3, window=window) == expected


def test_agreement_with_naive_checker_exhaustive():
    for window in range(2, 5):
        for c in enumerate_colourings(2, window, 2):
            hits = brute_mono_subsets(c, 3)
            expected = min(hits) if hits else None
            assert find_mono_subset(c, 3) == expected


def test_agreement_with_naive_checker_sampled():
    for window in (5, 6):
        for c in sample_colourings(2, window, 2, seed=window, count=120):
            hits = brute_mono_subsets(c, 3)
            expected = min(hits) if hits else None
            assert find_mono_subset(c, 3) == expected


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


def reference_finite_number(query, budget):
    """Exhaustive reference: search every colouring in enumeration order at each size."""
    sets_mode = query.principle in ("RT", "ZRT", "SEPZRT")
    invariant = query.principle in ("ZRT", "SEPZRT")
    for size in range(1, query.cap + 1):
        window = size - 1 if sets_mode else size
        first_witness = None
        counterexample = None
        for index, c in enumerate(enumerate_colourings(
                query.dim, window, query.palette, mode="sets" if sets_mode else "vectors",
                invariant=invariant, budget=budget)):
            if sets_mode:
                witness = find_mono_subset(c, query.size, separated=query.principle == "SEPZRT")
            else:
                witness = find_afs_mono(c, query.size, window=window,
                                        apart=query.principle == "APAHT")
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
