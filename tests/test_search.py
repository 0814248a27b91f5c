import random
import time
from itertools import combinations
from math import comb

import pytest

from irl.bits import is_apart, is_separated
from irl.colouring import Colouring, enumerate_colourings, sample_colourings, sets_domain, vectors_domain
from irl.errors import BudgetExceededError, PreconditionError
from irl.search import (
    FiniteNumberQuery,
    _candidate_witnesses,
    find_afs_mono,
    find_mono_subset,
    finite_number,
    witness_colour,
)
from irl.sums import _gaps as _difference_vector, adjacent_sums, adjacent_tuples


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


VECTORS = Colouring(1, 4, 2, "vectors", {(1,): 0})
SETS = Colouring(1, 4, 2, "sets", {(1,): 0})


@pytest.mark.parametrize("call, message", [
    # the mode is checked before the length and the window
    (lambda: find_mono_subset(VECTORS, 2), "find_mono_subset applies to sets-mode colourings"),
    (lambda: find_mono_subset(VECTORS, 0), "find_mono_subset applies to sets-mode colourings"),
    (lambda: find_afs_mono(SETS, 0), "find_afs_mono applies to vectors-mode colourings"),
    (lambda: find_afs_mono(SETS, 2, window=0), "find_afs_mono applies to vectors-mode colourings"),
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


def brute_least_subset(c, m, separated=False):
    """Least m-subset of the window with every dim-tuple coloured alike (absent tuples fail)."""
    for cand in combinations(range(c.window + 1), m):
        if separated and not is_separated(cand):
            continue
        colours = {c.table.get(t) for t in combinations(cand, c.dim)}
        if len(colours) == 1 and None not in colours:
            return cand
    return None


def test_find_mono_subset_on_partial_tables_against_brute_force():
    rng = random.Random(23)
    for trial in range(150):
        dim = rng.randint(1, 3)
        window = rng.randint(dim, 9)
        keep = rng.choice((0.2, 0.5, 0.9))
        table = {t: rng.randrange(2) for t in sets_domain(dim, window) if rng.random() < keep}
        c = Colouring(dim, window, 2, "sets", table)
        for m in range(dim, dim + 3):
            for separated in (False, True):
                assert find_mono_subset(c, m, separated) == brute_least_subset(c, m, separated)



def brute_least_sequence(c, m, window, apart=False, colour=None):
    """Least increasing length-m sequence (total <= window) with monochromatic adjacent tuples."""
    for cand in combinations(range(1, window + 1), m):
        if sum(cand) > window or (apart and not is_apart(cand)):
            continue
        colours = {c.table.get(t) for t in adjacent_tuples(cand, c.dim)}
        if None in colours or len(colours) > 1 or (colour is not None and colours - {colour}):
            continue
        return cand
    return None


def test_find_afs_mono_on_partial_tables_against_brute_force():
    rng = random.Random(29)
    for trial in range(150):
        dim = rng.randint(1, 3)
        window = rng.randint(dim, 13)
        keep = rng.choice((0.2, 0.5, 0.9))
        table = {t: rng.randrange(2) for t in vectors_domain(dim, window) if rng.random() < keep}
        c = Colouring(dim, window, 2, "vectors", table)
        for m in range(1, dim + 3):
            limit = rng.randint(1, window)
            for apart, colour in ((False, None), (True, None), (False, 1)):
                assert find_afs_mono(c, m, limit, apart, colour) == \
                    brute_least_sequence(c, m, limit, apart, colour), (table, m, limit, apart, colour)


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


def test_find_mono_subset_three_colours_against_brute_force():
    rng = random.Random(31)
    for trial in range(90):
        dim = rng.randint(1, 3)
        window = rng.randint(dim, 9)
        keep = rng.choice((0.6, 0.9, 1.0))
        table = {t: rng.randrange(3) for t in sets_domain(dim, window) if rng.random() < keep}
        c = Colouring(dim, window, 3, "sets", table)
        for m in range(dim, dim + 5):
            for separated in (False, True):
                assert find_mono_subset(c, m, separated) == brute_least_subset(c, m, separated), \
                    (table, m, separated)


def test_apaht_candidates_step_through_the_apart_ones():
    for dim in (1, 2, 3):
        for m in range(1, 9):
            apart = [cand for cand in _candidate_witnesses("AHT", dim, m, 40)
                     if is_apart(cand[0])]
            for window in range(1, 41):
                assert list(_candidate_witnesses("APAHT", dim, m, window)) == \
                    [cand for cand in apart if sum(cand[0]) <= window]


def test_shift_invariant_candidates_stand_for_every_subset():
    # brute force: every m-subset of [0, 20] is filed under its largest element,
    # so the subsets of [0, w] are those filed at w or below, in the same order
    for m in range(1, 7):
        separated = [is_separated(s) for s in combinations(range(21), m)]
        for dim in range(1, min(m, 3) + 1):
            # principle -> per largest element: the masks, the first subset and the units
            filed = {p: ([set() for _ in range(21)], [None] * 21, [0] * 21) for p in ("ZRT", "SEPZRT")}
            for s, passes in zip(combinations(range(21), m), separated):
                vectors = frozenset(map(_difference_vector, combinations(s, dim)))
                for principle, (masks, firsts, units) in filed.items():
                    if passes or principle == "ZRT":
                        masks[s[-1]].add(vectors)
                        firsts[s[-1]] = firsts[s[-1]] or s
                        units[s[-1]] += comb(m, dim)
                    else:
                        units[s[-1]] += 1
            for principle, (masks, firsts, units) in filed.items():
                for window in range(21):
                    walked, vectors, spent = [], set(), 0
                    for candidate, tuples, unit, copies in _candidate_witnesses(
                            principle, dim, m, window):
                        spent += unit * copies
                        if tuples is not None:
                            walked.append(candidate)
                            vectors.add(frozenset(tuples))
                    where = (principle, dim, m, window)
                    assert walked == sorted(walked), where
                    assert vectors == set().union(*masks[:window + 1]), where
                    assert (walked[0] if walked else None) == min(filter(None, firsts[:window + 1]), default=None), where
                    assert spent == sum(units[:window + 1]), where


def test_adjacent_sum_candidates_carry_their_adjacent_tuples():
    for principle in ("AHT", "APAHT"):
        for dim in (1, 2, 3):
            for m in range(1, 7):
                for window in range(1, 31):
                    for candidate, tuples, cost, copies in _candidate_witnesses(principle, dim, m, window):
                        assert tuples == adjacent_tuples(candidate, dim), (principle, dim, candidate)
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
        assert min(adjacent_tuples(w, d)) == w[:d], w
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
                    tuples = adjacent_tuples(witness, dim)
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


def per_candidate_afs_walk(c, m, window=None, apart=False, colour=None):
    """Reference form of find_afs_mono: every candidate rebuilds all of its adjacent tuples."""
    limit = c.window if window is None else window
    if m * (m + 1) // 2 > limit:
        return None
    d = c.dim
    if m < d:
        least = tuple(1 << j for j in range(m)) if apart else tuple(range(1, m + 1))
        return least if sum(least) <= limit else None
    points = c.points
    prefix, psums = [], [0]

    def extend(fixed, start):
        if len(prefix) == m:
            return tuple(prefix)
        after = m - len(prefix) - 1
        step = 1 << prefix[-1].bit_length() if apart and prefix else 1
        for j in range(start, len(points)):
            x = points[j]
            if psums[-1] + (after + 1) * x + after * (after + 1) // 2 > limit:
                break
            if x % step:
                continue
            t = len(prefix)
            prefix.append(x)
            psums.append(psums[-1] + x)
            got_colour, ok = fixed, True
            if t + 1 >= d:
                for bounds in combinations(range(t + 1), d):
                    edges = bounds + (t + 1,)
                    got = c.table.get(tuple(psums[edges[i + 1]] - psums[edges[i]] for i in range(d)))
                    if got is None or (got_colour is not None and got != got_colour):
                        ok = False
                        break
                    if got_colour is None:
                        got_colour = got
            if ok:
                found = extend(got_colour, j + 1)
                if found is not None:
                    return found
            prefix.pop()
            psums.pop()
        return None

    return extend(colour, 0)


def test_find_afs_mono_matches_the_per_candidate_walk():
    rng = random.Random(41)
    found = 0
    for trial in range(300):
        dim = rng.randint(1, 3)
        window = rng.randint(dim, 40)
        keep = rng.choice((0.3, 0.7, 0.95, 1.0))
        palette = rng.randint(1, 3)
        table = {t: rng.randrange(palette) for t in vectors_domain(dim, window) if rng.random() < keep}
        c = Colouring(dim, window, palette, "vectors", table)
        for m in range(1, 8):
            limit = rng.choice((None, rng.randint(1, window), window + rng.randint(1, 5)))
            for apart, colour in ((False, None), (True, None), (False, palette - 1), (True, 0)):
                got = find_afs_mono(c, m, limit, apart, colour)
                assert got == per_candidate_afs_walk(c, m, limit, apart, colour), \
                    (dim, window, table, m, limit, apart, colour)
                found += got is not None
    assert found > 1500
