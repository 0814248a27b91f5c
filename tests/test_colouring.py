import json

import pytest
from hypothesis import given, settings, strategies as st

from irl.colouring import (
    Colouring,
    DifferenceColouring,
    colouring_from_json,
    colouring_to_json,
    enumerate_colourings,
    from_differences,
    is_shift_invariant,
    sample_colourings,
    sets_domain,
    to_differences,
    vectors_domain,
)
from irl.errors import BudgetExceededError, FormatError, NotInvariantError, PreconditionError


def pair_colouring(window, fn, palette=2):
    return Colouring(2, window, palette, "sets",
                     {t: fn(*t) for t in sets_domain(2, window)})


def test_invariance_examples():
    assert is_shift_invariant(pair_colouring(8, lambda x, y: (y - x) % 2))
    assert not is_shift_invariant(pair_colouring(8, lambda x, y: x % 2))
    constant = Colouring(3, 6, 2, "sets", {t: 1 for t in sets_domain(3, 6)})
    assert is_shift_invariant(constant)


def test_invariance_rejects_vectors_mode():
    c = Colouring(1, 4, 2, "vectors", {(z,): 0 for z in range(1, 5)})
    with pytest.raises(PreconditionError):
        is_shift_invariant(c)


def test_to_differences_reads_off_the_gap():
    c = pair_colouring(6, lambda x, y: (y - x) % 2)
    dc = to_differences(c)
    assert dc.dim == 1 and dc.window == 6
    assert dc.table == {(z,): z % 2 for z in range(1, 7)}


def test_to_differences_constant_triple():
    c = Colouring(3, 6, 2, "sets", {t: 1 for t in sets_domain(3, 6)})
    dc = to_differences(c)
    assert dc.dim == 2
    assert set(dc.table) == set(vectors_domain(2, 6))
    assert set(dc.table.values()) == {1}


def test_to_differences_rejects_with_witness():
    bad = pair_colouring(8, lambda x, y: x % 2)
    with pytest.raises(NotInvariantError) as info:
        to_differences(bad)
    (t1, c1), (t2, c2) = info.value.witness
    assert c1 != c2
    assert tuple(b - a for a, b in zip(t1, t1[1:])) == tuple(b - a for a, b in zip(t2, t2[1:]))
    assert bad.table[t1] == c1 and bad.table[t2] == c2


def test_to_differences_requires_pairs_or_higher():
    c = Colouring(1, 4, 2, "sets", {(x,): 0 for x in range(5)})
    with pytest.raises(PreconditionError):
        to_differences(c)


def test_from_differences_examples():
    dc = DifferenceColouring(1, 5, 3, {(z,): z % 3 for z in range(1, 6)})
    c = from_differences(dc, 5)
    assert c.table[(1, 4)] == 0
    assert c.table[(0, 2)] == 2
    assert to_differences(c) == dc

    dc2 = DifferenceColouring(2, 7, 2, {t: (t[0] * 3 + t[1]) % 2 for t in vectors_domain(2, 7)})
    c2 = from_differences(dc2, 7)
    assert c2.table[(0, 3, 7)] == dc2.table[(3, 4)]
    assert is_shift_invariant(c2)


def test_from_differences_window_larger_than_table_leaves_gaps():
    dc = DifferenceColouring(1, 3, 2, {(z,): z % 2 for z in range(1, 4)})
    c = from_differences(dc, 6)
    assert (0, 5) not in c.table and (1, 3) in c.table
    assert is_shift_invariant(c)
    assert not c.is_total()


def test_enumeration_counts():
    invariant_pairs = list(enumerate_colourings(2, 3, 2, invariant=True))
    assert len(invariant_pairs) == 8
    assert len({json.dumps(colouring_to_json(c)) for c in invariant_pairs}) == 8
    assert all(is_shift_invariant(c) for c in invariant_pairs)

    unary = list(enumerate_colourings(1, 2, 2))
    assert len(unary) == 8


def test_enumeration_budget_refusal_names_count():
    with pytest.raises(BudgetExceededError) as info:
        list(enumerate_colourings(2, 6, 2, budget=100))
    assert info.value.count == 2 ** 21


def test_sampling_is_reproducible():
    first = [colouring_to_json(c) for c in sample_colourings(2, 6, 3, seed=9, count=5)]
    second = [colouring_to_json(c) for c in sample_colourings(2, 6, 3, seed=9, count=5)]
    assert first == second
    third = [colouring_to_json(c) for c in sample_colourings(2, 6, 3, seed=10, count=5)]
    assert first != third


def _factors(c):
    try:
        dc = to_differences(c)
    except NotInvariantError:
        return False
    return from_differences(dc, c.window) == c


def test_factorization_exhaustive_small():
    for window in range(1, 5):
        for k in (1, 2):
            for c in enumerate_colourings(2, window, k):
                assert is_shift_invariant(c) == _factors(c)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=3),
       st.randoms(use_true_random=False))
def test_from_differences_output_is_invariant(window, palette, rnd):
    table = {t: rnd.randrange(palette) for t in vectors_domain(1, window)}
    dc = DifferenceColouring(1, window, palette, table)
    assert is_shift_invariant(from_differences(dc, min(window + 2, 10)))


def test_json_round_trip():
    c = pair_colouring(5, lambda x, y: (y - x) % 2)
    data = json.loads(json.dumps(colouring_to_json(c)))
    assert colouring_from_json(data) == c

    dc = to_differences(c)
    data = json.loads(json.dumps(colouring_to_json(dc)))
    assert data["mode"] == "differences"
    assert colouring_from_json(data) == dc


def test_json_rejects_malformed_payloads():
    good = colouring_to_json(pair_colouring(3, lambda x, y: 0))
    for breakage in (
        lambda d: d.pop("palette"),
        lambda d: d.update(mode="other"),
        lambda d: d["entries"].append(d["entries"][0]),          # duplicate tuple
        lambda d: d["entries"].append([[0, 9], 0]),              # out of window
        lambda d: d["entries"].append([[2, 1], 0]),              # not increasing
        lambda d: d["entries"].__setitem__(0, [[0, 1], 7]),      # colour out of range
    ):
        data = json.loads(json.dumps(good))
        breakage(data)
        with pytest.raises(FormatError):
            colouring_from_json(data)


def test_json_rejects_non_integer_key_components():
    data = {"dim": 2, "window": 3, "palette": 2, "mode": "sets", "entries": [[[0, [1]], 0]]}
    with pytest.raises(FormatError):
        colouring_from_json(data)


def test_table_validation():
    with pytest.raises(FormatError):
        Colouring(2, 4, 2, "sets", {(3, 1): 0})
    with pytest.raises(FormatError):
        Colouring(1, 4, 2, "vectors", {(0,): 0})
    with pytest.raises(FormatError):
        DifferenceColouring(2, 4, 2, {(3, 3): 0})
