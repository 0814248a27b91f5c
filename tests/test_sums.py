import random
from itertools import chain, combinations, product

import pytest
from hypothesis import given, strategies as st

from by_path import load
from irl.bits import block, highest_bit, is_apart, lowest_bit
from irl.errors import OverflowLimitError, PreconditionError
from irl.sums import (
    _anchor,
    _choose,
    _gaps,
    adjacent_sums,
    adjacent_tuples,
    differences,
    gap_increasing,
    normalize,
    partial_sums,
)

run_tuples = load("perfbench/checks.py").run_tuples


def test_adjacent_sums_examples():
    assert adjacent_sums((1, 2, 4)) == frozenset({1, 2, 3, 4, 6, 7})
    assert adjacent_sums((5,)) == frozenset({5})


def test_adjacent_tuples_examples():
    assert adjacent_tuples((1, 2, 4), 2) == frozenset({(1, 2), (1, 6), (2, 4), (3, 4)})
    assert adjacent_tuples((5,), 1) == frozenset({(5,)})
    assert adjacent_tuples((1, 2), 3) == frozenset()


def test_adjacent_tuples_rejects_bad_arity():
    with pytest.raises(PreconditionError):
        adjacent_tuples((1, 2), 0)
    with pytest.raises(PreconditionError):
        adjacent_sums(())
    with pytest.raises(PreconditionError):
        adjacent_sums((1, 0, 2))


@pytest.mark.parametrize("seq, expected", [
    ((3, 1, 2, 5), (3, 8)),
    ((1, 2, 4), (1, 2, 4)),
    ((2, 2, 2, 2, 2), (2, 4)),
    ((5,), (5,)),
    ((2, 2), (2,)),
])
def test_normalize_examples(seq, expected):
    assert normalize(seq) == expected


def test_normalize_rejects_empty():
    with pytest.raises(PreconditionError):
        normalize(())


@pytest.mark.parametrize("xs, expected", [
    ((1, 2, 3, 4, 5, 10, 11, 20, 40), (1, 2, 4, 10, 20, 40)),
    ((1, 2, 4, 8, 16), (1, 2, 4, 8, 16)),
    ((1, 2, 3), (1, 2)),
])
def test_gap_increasing_examples(xs, expected):
    assert gap_increasing(xs) == expected


def test_gap_increasing_needs_two_entries():
    with pytest.raises(PreconditionError):
        gap_increasing((7,))


@pytest.mark.parametrize("ys, expected", [
    ((2, 3, 5), (2, 5, 10)),
    ((7,), (7,)),
    ((1, 2, 4), (1, 3, 7)),
])
def test_partial_sums_examples(ys, expected):
    assert partial_sums(ys) == expected


@pytest.mark.parametrize("fn, xs", [(differences, (3, 3)), (differences, (3, 1)), (partial_sums, (2, 2))])
def test_differences_and_partial_sums_reject_non_increasing_input(fn, xs):
    with pytest.raises(PreconditionError) as info:
        fn(xs)
    assert str(info.value) == f"{fn.__name__} requires a strictly increasing sequence, got {xs}"


@pytest.mark.parametrize("ys, error, message", [
    ([], PreconditionError, "partial_sums requires a nonempty sequence"),
    ([0], PreconditionError, "partial_sums requires positive integer entries, got 0"),
    ([-1], PreconditionError, "partial_sums requires positive integer entries, got -1"),
    ([True], PreconditionError, "partial_sums requires positive integer entries, got True"),
    ([1.5], PreconditionError, "partial_sums requires positive integer entries, got 1.5"),
    (["1"], PreconditionError, "partial_sums requires positive integer entries, got '1'"),
    ([3, 1], PreconditionError, "partial_sums requires a strictly increasing sequence, got (3, 1)"),
    ([2, 2], PreconditionError, "partial_sums requires a strictly increasing sequence, got (2, 2)"),
    ([1, 2**64], OverflowLimitError, f"value {2**64 + 1} exceeds the 64-bit limit"),
])
def test_partial_sums_refusals(ys, error, message):
    with pytest.raises(error) as info:
        partial_sums(ys)
    assert type(info.value) is error and str(info.value) == message


positive_seqs = st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=10)


@given(positive_seqs)
def test_normalize_output_increasing_and_subset_law(seq):
    out = normalize(seq)
    assert all(a < b for a, b in zip(out, out[1:]))
    assert adjacent_sums(out) <= adjacent_sums(seq)


@given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=2, max_size=12, unique=True))
def test_telescoping_identity(values):
    xs = tuple(sorted(values))
    kept = gap_increasing(xs)
    gaps = differences(kept)
    brute = frozenset(b - a for a, b in combinations(kept, 2))
    assert adjacent_sums(gaps) == brute


@given(positive_seqs, st.integers(min_value=1, max_value=3))
def test_flattening_adjacent_tuples_gives_adjacent_sums(seq, d):
    sums = adjacent_sums(seq)
    for t in adjacent_tuples(seq, d):
        assert sum(t) in sums


@st.composite
def apart_sequences(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    out = []
    position = 0
    for _ in range(n):
        position += draw(st.integers(min_value=0, max_value=3))
        width = draw(st.integers(min_value=1, max_value=3))
        out.append(block(position, position + width - 1))
        position += width
    return tuple(out)


@given(apart_sequences())
def test_apart_sums_keep_bit_endpoints(seq):
    assert is_apart(seq)
    n = len(seq)
    for i in range(n):
        for j in range(i, n):
            run = sum(seq[i:j + 1])
            assert lowest_bit(run) == lowest_bit(seq[i])
            assert highest_bit(run) == highest_bit(seq[j])


def test_gap_increasing_gaps_strictly_increase():
    rng = random.Random(5)
    for _ in range(300):
        xs = tuple(sorted(rng.sample(range(0, 500), rng.randint(2, 12))))
        kept = gap_increasing(xs)
        gaps = differences(kept) if len(kept) > 1 else ()
        assert all(a < b for a, b in zip(gaps, gaps[1:]))
        assert kept[0] == xs[0] and kept[1] == xs[1]


def test_adjacent_tuples_of_an_arity_above_the_length_are_empty():
    assert adjacent_tuples((1, 2), 3) == frozenset()
    assert adjacent_tuples((1, 2), 10**12) == frozenset()  # no index array of that size


def outcome(fn, *args):
    try:
        return "value", fn(*args)
    except Exception as error:  # noqa: BLE001  compared by type and message
        return type(error), str(error)


def test_adjacent_tuples_match_the_bound_index_loop():
    rng = random.Random(71)
    for _ in range(3000):
        seq = [rng.randint(1, rng.choice((5, 100, 2**40))) for _ in range(rng.randint(1, 8))]
        d = rng.randint(1, 9)
        assert adjacent_tuples(seq, d) == run_tuples(seq, d), (seq, d)
    assert adjacent_tuples([2**63, 2**63 - 1], 2) == frozenset({(2**63, 2**63 - 1)})


def test_adjacent_tuples_raise_the_same_errors():
    cases = [((), 1), ([], 2), ((0,), 1), ((-1, 2), 1), ((True,), 1), ((2**64,), 1),
             ((2**63, 2**63), 1), ((1, 1.5), 1), ((1, 2), 0), ((1, 2), -1), ((1, 2), True),
             ((1, 2), 2**64), ((0,), 0), ((), "1")]
    expected = [
        (PreconditionError, "adjacent_tuples requires a nonempty sequence"),
        (PreconditionError, "adjacent_tuples requires a nonempty sequence"),
        (PreconditionError, "adjacent_tuples requires positive integer entries, got 0"),
        (PreconditionError, "adjacent_tuples requires positive integer entries, got -1"),
        (PreconditionError, "adjacent_tuples requires positive integer entries, got True"),
        (OverflowLimitError, f"value {2**64} exceeds the 64-bit limit"),
        (OverflowLimitError, f"value {2**64} exceeds the 64-bit limit"),
        (PreconditionError, "adjacent_tuples requires positive integer entries, got 1.5"),
        (PreconditionError, "arity must be >= 1, got 0"),
        (PreconditionError, "arity must be >= 1, got -1"),
        (PreconditionError, "arity must be >= 1, got True"),
        ("value", frozenset()),
        (PreconditionError, "arity must be >= 1, got 0"),
        (PreconditionError, "arity must be >= 1, got '1'"),
    ]
    assert [outcome(adjacent_tuples, seq, d) for seq, d in cases] == expected


def reference_entries(seq, name):
    """The entry checks of ``adjacent_sums`` and ``normalize``, written out."""
    entries = tuple(seq)
    if not entries:
        raise PreconditionError(f"{name} requires a nonempty sequence")
    for x in entries:
        if not isinstance(x, int) or isinstance(x, bool) or x < 1:
            raise PreconditionError(f"{name} requires positive integer entries, got {x!r}")
    if sum(entries) > 2**64 - 1:
        raise OverflowLimitError(f"value {sum(entries)} exceeds the 64-bit limit")
    return entries


def reference_adjacent_sums(seq):
    """Reference form of adjacent_sums: every run between two prefix-sum indices."""
    entries = reference_entries(seq, "adjacent_sums")
    p = [0]
    for x in entries:
        p.append(p[-1] + x)
    n = len(entries)
    return frozenset(p[j] - p[i] for i in range(n) for j in range(i + 1, n + 1))


def reference_normalize(seq):
    """Reference form of normalize: grow each block from its start until it beats the last output."""
    entries = reference_entries(seq, "normalize")
    out = []
    i = 0
    n = len(entries)
    while i < n:
        total = 0
        j = i
        while j < n:
            total += entries[j]
            j += 1
            if not out or total > out[-1]:
                break
        if out and total <= out[-1]:
            break
        out.append(total)
        i = j
    return tuple(out)


def test_normalize_and_adjacent_sums_match_the_reference_loops():
    rng = random.Random(15)
    small = (seq for n in range(1, 8) for seq in product(range(1, 6), repeat=n))
    drawn = ([rng.randint(1, rng.choice((5, 100, 2**40))) for _ in range(rng.randint(1, 12))]
             for _ in range(2000))
    for seq in chain(small, drawn):
        assert normalize(seq) == reference_normalize(seq), seq
        assert adjacent_sums(seq) == reference_adjacent_sums(seq), seq


@pytest.mark.parametrize("seq", [(), [], (0,), (1, 0), (-1,), (2, -1), (True,), (1, True), (1.5,),
                                 (2, 1.5), (2**64,), (2**63, 2**63), (1, 2**64 - 2)])
def test_normalize_and_adjacent_sums_raise_the_reference_errors(seq):
    assert outcome(normalize, seq) == outcome(reference_normalize, seq)
    assert outcome(adjacent_sums, seq) == outcome(reference_adjacent_sums, seq)


@given(st.lists(st.integers(min_value=-10**20, max_value=10**20), max_size=10).map(tuple))
def test_anchor_and_gaps_invert_each_other(v):
    assert _gaps(_anchor(v)) == v
    t = (0, *v)
    assert _anchor(_gaps(t)) == t


def test_choose_beyond_the_pool_is_empty_at_once():
    assert list(_choose(range(3), 10**12)) == []  # no index array of that size
    assert list(_choose((1, 2, 3), 2)) == list(combinations((1, 2, 3), 2))
