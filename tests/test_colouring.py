import hashlib
import json
import random
import sys
import time
from enum import IntEnum

import pytest
from hypothesis import given, settings, strategies as st

from by_path import load
from irl import colouring
from irl.bits import block
from irl.colouring import (
    Colouring,
    DifferenceColouring,
    _check_entry,
    _check_table,
    colouring_from_json,
    colouring_to_json,
    enumerate_colourings,
    from_differences,
    invariance_witness,
    is_shift_invariant,
    sample_colourings,
    sets_domain,
    to_differences,
    vectors_domain,
)
from irl.errors import BudgetExceededError, FormatError, NotInvariantError, OverflowLimitError, PreconditionError
from irl.oracle import EnumerationOracle, lower_bound_colouring
from irl.reduce import _digest, forward_transform
from irl.search import FiniteNumberQuery, finite_number

invariance_clash = load("perfbench/checks.py").invariance_clash


def pair_colouring(window, fn, palette=2):
    return Colouring(2, window, palette, "sets",
                     {t: fn(*t) for t in sets_domain(2, window)})


def test_invariance_examples():
    assert is_shift_invariant(pair_colouring(8, lambda x, y: (y - x) % 2))
    assert not is_shift_invariant(pair_colouring(8, lambda x, y: x % 2))
    constant = Colouring(3, 6, 2, "sets", {t: 1 for t in sets_domain(3, 6)})
    assert is_shift_invariant(constant)


def test_invariance_witness_is_the_first_clash_in_any_table_order():
    rng = random.Random(8)
    for trial in range(200):
        dim, window = rng.randint(1, 3), rng.randint(1, 8)
        c = next(sample_colourings(dim, window, 2, seed=trial))
        items = list(c.table.items())
        rng.shuffle(items)
        for table in (dict(items), dict(reversed(list(c.table.items())))):
            shuffled = Colouring(dim, window, 2, "sets", table)
            clash = invariance_clash(table)  # the pair alone; the witness carries the colours
            assert invariance_witness(shuffled) == (None if clash is None else tuple((t, table[t]) for t in clash))


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


def test_to_differences_refuses_a_vectors_colouring():
    c = Colouring(2, 4, 2, "vectors", {(1, 1): 0, (1, 2): 1})
    with pytest.raises(PreconditionError) as info:
        to_differences(c)
    assert str(info.value) == "to_differences applies to sets-mode colourings"


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


def test_invariant_unary_enumeration_yields_the_constants_in_colour_order():
    for window in (0, 1, 5):
        for k in (1, 2, 3):
            got = [(c.dim, c.window, c.palette, c.mode, c.table)
                   for c in enumerate_colourings(1, window, k, invariant=True)]
            assert got == [(1, window, k, "sets", {(x,): colour for x in range(window + 1)})
                           for colour in range(k)]


def test_invariant_unary_sampling_draws_one_constant_per_sample():
    for seed in (0, 7):
        for window, k, count in ((0, 2, 3), (4, 3, 6), (6, 5, 4)):
            rng = random.Random(seed)
            expected = [{(x,): colour for x in range(window + 1)}
                        for colour in [rng.randrange(k) for _ in range(count)]]
            got = [c.table for c in sample_colourings(1, window, k, invariant=True,
                                                       seed=seed, count=count)]
            assert got == expected


def test_invariant_sampling_draws_one_colour_per_difference_vector():
    for dim in (2, 3):
        for window in (0, 2, 5, 7):
            for k in (1, 2, 4):
                for seed in (0, 3, 11):
                    rng = random.Random(seed)
                    expected = []
                    for _ in range(3):
                        table = {v: rng.randrange(k) for v in vectors_domain(dim - 1, window)}
                        dc = DifferenceColouring(dim - 1, window, k, table)
                        expected.append(from_differences(dc, window))
                    got = list(sample_colourings(dim, window, k, invariant=True, seed=seed, count=3))
                    assert [(c.dim, c.window, c.palette, c.mode, c.table) for c in got] == \
                        [(c.dim, c.window, c.palette, c.mode, c.table) for c in expected]


def test_invariant_lifts_are_charged_to_the_callers_budget(monkeypatch):
    monkeypatch.delenv("IRL_BUDGET", raising=False)
    with pytest.raises(BudgetExceededError) as info:
        next(enumerate_colourings(2, 5, 1, invariant=True, budget=5))  # 5 variables, C(6, 2) lifted tuples
    assert info.value.count == 15
    monkeypatch.setenv("IRL_BUDGET", "10")
    assert len(next(enumerate_colourings(2, 5, 1, invariant=True, budget=100)).table) == 15
    monkeypatch.delenv("IRL_BUDGET")
    query = FiniteNumberQuery("ZRT", 2, 2, 5, 4)
    with pytest.raises(BudgetExceededError) as info:
        finite_number(query, budget=5)
    assert info.value.count == 6
    assert len(finite_number(query, budget=6).counterexample.table) == 6


def test_invariant_unary_enumeration_charges_the_palette_to_the_budget():
    with pytest.raises(BudgetExceededError) as info:
        next(enumerate_colourings(1, 3, 10**6 + 1, invariant=True))
    assert info.value.count == 10**6 + 1


def test_enumeration_budget_refusal_names_count():
    with pytest.raises(BudgetExceededError) as info:
        list(enumerate_colourings(2, 6, 2, budget=100))
    assert info.value.count == 2 ** 21


def test_enumeration_refuses_a_huge_count_without_building_the_domain(monkeypatch):
    def unbuilt(*args):
        raise AssertionError("the domain was materialized")

    monkeypatch.setattr(colouring, "standard_domain", unbuilt)
    with pytest.raises(BudgetExceededError) as info:
        next(enumerate_colourings(2, 1000, 2))  # 2 ** 500500 colourings
    assert info.value.count == 2 ** 500_500
    assert "at least 2^500500 colourings" in str(info.value)
    with pytest.raises(BudgetExceededError) as info:
        next(enumerate_colourings(2, 1500, 2))  # C(1501, 2) tuples exceed the budget
    assert info.value.count == 1501 * 1500 // 2


def test_sampling_charges_the_domain_to_the_budget(monkeypatch):
    with pytest.raises(BudgetExceededError) as info:
        next(sample_colourings(2, 1500, 2))
    assert info.value.count == 1501 * 1500 // 2
    with pytest.raises(BudgetExceededError):
        next(sample_colourings(3, 1500, 2, invariant=True))  # C(1500, 2) difference vectors
    monkeypatch.setenv("IRL_BUDGET", "10")
    assert len(next(sample_colourings(1, 9, 2)).table) == 10
    with pytest.raises(BudgetExceededError):
        next(sample_colourings(1, 10, 2))
    with pytest.raises(BudgetExceededError):
        next(sample_colourings(1, 10, 2, invariant=True))


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
        lambda d: d["entries"].append(((0, 2), 0, 0)),           # a tuple entry of three
        lambda d: d["entries"].append(([0, 2], 0)),              # a tuple entry with a list key
        lambda d: d["entries"].__setitem__(0, ((0, 1), 0)),      # a tuple entry: JSON has no tuples
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


@pytest.mark.parametrize("call, error, message", [
    (lambda: next(enumerate_colourings(1, 2, 2, mode="bogus")), FormatError, "unknown mode 'bogus'"),
    (lambda: Colouring(1, -1, 2, "sets", {}), FormatError, "window must be an integer >= 0, got -1"),
    (lambda: Colouring(1, 2, 0, "sets", {}), FormatError, "palette must be an integer >= 1, got 0"),
    (lambda: Colouring(1, 2, 2, "bogus", {}), FormatError, "mode must be one of ('sets', 'vectors'), got 'bogus'"),
    (lambda: Colouring(1, 3, 2, "sets", None), FormatError, "table must be a dict, got NoneType"),
    (lambda: DifferenceColouring(1, 3, 2, [((1,), 0)]), FormatError, "table must be a dict, got list"),
    (lambda: from_differences(DifferenceColouring(1, 2, 2, {}), -1), FormatError,
     "window must be an integer >= 0, got -1"),
    (lambda: next(enumerate_colourings(2, 3, 2, mode="vectors", invariant=True)), PreconditionError,
     "invariant enumeration applies to sets-mode colourings"),
    (lambda: next(sample_colourings(2, 3, 2, mode="vectors", invariant=True)), PreconditionError,
     "invariant sampling applies to sets-mode colourings"),
    (lambda: colouring_from_json([]), FormatError, "expected a JSON object, got list"),
])
def test_shape_and_mode_checks_raise_their_own_errors(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_from_differences_charges_the_domain_to_the_budget(monkeypatch):
    dc = DifferenceColouring(1, 5, 2, {(1,): 0, (2,): 1})
    with pytest.raises(BudgetExceededError) as info:
        from_differences(dc, 100_000)
    assert info.value.count == 100_001 * 100_000 // 2  # C(100001, 2) pairs
    monkeypatch.setenv("IRL_BUDGET", str(13 * 12 // 2))
    assert len(from_differences(dc, 12).table) == 12 + 11
    with pytest.raises(BudgetExceededError):
        from_differences(dc, 13)


def _rechecked(c):
    """``c`` rebuilt through its checked public constructor."""
    if isinstance(c, DifferenceColouring):
        return DifferenceColouring(c.dim, c.window, c.palette, dict(c.table))
    return Colouring(c.dim, c.window, c.palette, c.mode, dict(c.table))


def _trusted_outputs():
    """Every kind of colouring the package builds without validation, over a small grid."""
    rng = random.Random(8)
    for window in range(13):
        for dim in (1, 2, 3):
            sets = Colouring(dim, window, 3, "sets",
                             {t: rng.randrange(3) for t in sets_domain(dim, window)})
            vectors = Colouring(dim, window, 3, "vectors",
                                {t: rng.randrange(3) for t in vectors_domain(dim, window)})
            dc = DifferenceColouring(dim, window, 2,
                                     {t: rng.randrange(2) for t in vectors_domain(dim, window)})
            invariant = from_differences(dc, window)
            blocks = Colouring(dim, 2 ** window - 1, 2, "vectors", {
                tuple(block(t[i], t[i + 1] - 1) for i in range(dim)): rng.randrange(2)
                for t in sets_domain(dim + 1, window)})
            yield from (invariant, to_differences(invariant),
                        forward_transform("RT_TO_ZRT", sets),
                        forward_transform("ZRT_TO_AHT", invariant),
                        forward_transform("AHT_TO_ZRT", vectors),
                        forward_transform("APAHT_TO_RT", blocks),
                        forward_transform("APAHT_TO_RT", vectors))
    for dim, window, mode in ((1, 3, "sets"), (2, 3, "sets"), (1, 4, "vectors"), (2, 4, "vectors")):
        yield from enumerate_colourings(dim, window, 2, mode=mode)
        yield from sample_colourings(dim, window, 3, mode=mode, seed=dim, count=5)
    for dim in (1, 2, 3):
        yield from enumerate_colourings(dim, 4, 2, invariant=True, budget=2**10)
        yield from sample_colourings(dim, 6, 3, invariant=True, seed=dim, count=5)
    for window in (1, 5, 12, 40):
        yield lower_bound_colouring(EnumerationOracle(((0, 2), (3, 5), (1, 1))), window)
    for principle, m in (("RT", 3), ("ZRT", 3), ("AHT", 3), ("APAHT", 3)):
        result = finite_number(FiniteNumberQuery(principle, 2 if principle == "ZRT" else 1, 2, m, 3))
        assert result.value is None
        yield result.counterexample


def test_trusted_outputs_pass_the_public_constructor():
    count = 0
    for c in _trusted_outputs():
        assert _rechecked(c) == c
        count += 1
    assert count > 500


def test_json_entries_are_sorted_tuple_colour_pairs_written_as_lists():
    """The entries text equals that of the ``[[list(t), colour], ...]`` form, and so do the digests."""
    outputs = [*_trusted_outputs(), to_differences(from_differences(
        DifferenceColouring(2, 9, 3, {v: sum(v) % 3 for v in vectors_domain(2, 9)}), 11))]
    for i, c in enumerate(outputs):
        data = colouring_to_json(c)
        entries = data["entries"]
        assert all(type(t) is tuple and type(colour) is int for t, colour in entries)
        assert all(a < b for (a, _), (b, _) in zip(entries, entries[1:]))
        listed = {**data, "entries": [[list(t), c.table[t]] for t in sorted(c.table)]}
        assert json.dumps(data) == json.dumps(listed)
        assert colouring_from_json(json.loads(json.dumps(data))) == c
        if i % 50 == 0:
            payload = json.dumps(listed, sort_keys=True).encode()
            assert _digest(c) == hashlib.sha256(payload).hexdigest()[:16]
    assert isinstance(outputs[-1], DifferenceColouring) and outputs[-1].table


class Level(IntEnum):
    LOW = 0
    MID = 1
    HIGH = 2


_components = st.one_of(
    st.integers(min_value=-2, max_value=14),
    st.booleans(),
    st.floats(min_value=-2, max_value=14, allow_nan=False),
    st.sampled_from(Level),
)
_keys = st.one_of(st.lists(_components, max_size=4).map(tuple), _components)


def _reference_check(t, colour, dim, window, palette, mode):
    """The per-entry check that the constructors ran before the one-pass table check."""
    if mode == "differences":
        _check_entry(t, colour, dim, window, palette, "vectors")
        if sum(t) > window:
            raise FormatError(f"difference vector total {sum(t)} exceeds window {window}: {t!r}")
    else:
        _check_entry(t, colour, dim, window, palette, mode)


def _error(check):
    try:
        check()
    except FormatError as exc:
        return str(exc)
    return None


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(("sets", "vectors", "differences")), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=12), st.integers(min_value=1, max_value=3),
       st.lists(st.tuples(_keys, _components), max_size=4))
def test_table_check_raises_what_the_per_entry_check_raised(mode, dim, window, palette, entries):
    table = dict(entries)

    def per_entry():
        for t, colour in table.items():
            _reference_check(t, colour, dim, window, palette, mode)

    assert _error(lambda: _check_table(table, dim, window, palette, mode)) == _error(per_entry)


@pytest.mark.parametrize("mode", ("sets", "vectors", "differences"))
def test_table_check_matches_the_per_entry_check_at_the_edges(mode):
    keys = [(-1, 2), (0, 1), (0, 6), (0, 7), (1, 5), (1, 6), (5, 6), (6, 7), (2, 2), (3, 1),
            (1,), (1, 2, 3), (True, 2), (1.0, 2), (Level.LOW, Level.HIGH), 3]
    for t in keys:
        for colour in (0, 2, 3, -1, True, 1.0, Level.HIGH):
            expected = _error(lambda: _reference_check(t, colour, 2, 6, 3, mode))
            assert _error(lambda: _check_table({t: colour}, 2, 6, 3, mode)) == expected, (t, colour)



def test_domains_of_long_tuples_are_refused_or_empty_without_building_them(monkeypatch):
    assert list(sets_domain(10**12, 5)) == []
    assert list(vectors_domain(10**12, 5)) == []
    assert list(vectors_domain(5000, 5000)) == [(1,) * 5000]  # no recursion per coordinate
    started = time.monotonic()
    with pytest.raises(BudgetExceededError) as info:  # C(10^6 + 1, 500001) is never computed
        from_differences(DifferenceColouring(500_000, 10**6, 2, {}), 10**6)
    assert info.value.count is None
    assert time.monotonic() - started < 1.0
    monkeypatch.setenv("IRL_BUDGET", "2000")
    with pytest.raises(BudgetExceededError):  # one tuple, but longer than the budget
        from_differences(DifferenceColouring(2999, 2999, 1, {}), 2999)
    assert len(from_differences(DifferenceColouring(1999, 1999, 1, {}), 1999).table) == 0


def test_is_total_counts_instead_of_building_the_domain():
    start = time.perf_counter()
    assert not Colouring(3, 10**6, 2, "sets", {}).is_total()
    assert not Colouring(3, 10**6, 2, "vectors", {}).is_total()
    assert not DifferenceColouring(3, 10**6, 2, {}).is_total()
    assert time.perf_counter() - start < 1.0
    assert Colouring(3, 1, 2, "sets", {}).is_total()  # no 3-subset of {0, 1}
    assert Colouring(3, 2, 2, "vectors", {}).is_total()
    assert DifferenceColouring(3, 2, 2, {}).is_total()


def test_is_total_agrees_with_the_domain_on_partial_tables():
    rng = random.Random(4)
    for _ in range(300):
        dim, window = rng.randint(1, 3), rng.randint(0, 7)
        keep = rng.choice((1.0, 0.95, 0.5))
        sets = {t: 0 for t in sets_domain(dim, window) if rng.random() < keep}
        c = Colouring(dim, window, 1, "sets", sets)
        assert c.is_total() == (set(sets) >= set(sets_domain(dim, window)))
        if window < 1:
            continue
        vectors = {t: 0 for t in vectors_domain(dim, window) if rng.random() < keep}
        dc = DifferenceColouring(dim, window, 1, vectors)
        assert dc.is_total() == (set(vectors) >= set(vectors_domain(dim, window)))
        for _ in range(rng.randint(0, 3)):  # keys with a total above the window do not count
            vectors[tuple(rng.randint(1, window) for _ in range(dim))] = 0
        v = Colouring(dim, window, 1, "vectors", vectors)
        assert v.is_total() == (set(vectors) >= set(vectors_domain(dim, window)))


@pytest.mark.parametrize("domain", [sets_domain, vectors_domain])
@pytest.mark.parametrize("dim, window, name, value", [
    (2, 2.5, "window", 2.5), (2, -1, "window", -1), (2, True, "window", True), (2, "3", "window", "3"),
    (1.5, 3, "dim", 1.5), (-1, 3, "dim", -1), (False, 3, "dim", False), (None, 3, "dim", None),
    (-1, -1, "dim", -1),  # dim is checked first
])
def test_domain_generators_refuse_a_bad_dim_or_window(domain, dim, window, name, value):
    with pytest.raises(FormatError) as info:  # next, not list: an unchecked generator may never end
        next(iter(domain(dim, window)))
    assert str(info.value) == f"{name} must be an integer >= 0, got {value!r}"


def test_domain_generators_keep_every_non_negative_int_input():
    for domain in (sets_domain, vectors_domain):
        assert list(domain(0, 0)) == list(domain(0, 4)) == [()]
        assert list(domain(0, Level.HIGH)) == [()]
    assert list(vectors_domain(2, 4)) == [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]
    assert list(sets_domain(2, 2)) == [(0, 1), (0, 2), (1, 2)]
    assert list(vectors_domain(3, 2)) == [] == list(sets_domain(4, 2))


def test_sets_domain_refuses_a_window_whose_points_exceed_a_machine_length():
    # combinations builds its whole pool of window + 1 points before it yields
    with pytest.raises(OverflowLimitError) as info:
        sets_domain(2, 2**70)
    assert str(info.value) == f"sets_domain window {2**70} holds more than {sys.maxsize} points"
    with pytest.raises(OverflowLimitError):
        sets_domain(0, sys.maxsize)
    assert next(vectors_domain(2, 2**70)) == (1, 1)
