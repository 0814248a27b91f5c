import random

import pytest
from hypothesis import given, strategies as st

from by_path import load
from irl import bits
from irl.bits import (
    MAX_VALUE,
    bit_support,
    block,
    highest_bit,
    is_apart,
    is_separated,
    lowest_bit,
)
from irl.errors import OverflowLimitError, PreconditionError

checks = load("perfbench/checks.py")


@pytest.mark.parametrize("x, expected", [(12, 2), (1, 0), (96, 5)])
def test_lowest_bit_examples(x, expected):
    assert lowest_bit(x) == expected


@pytest.mark.parametrize("x, expected", [(12, 3), (1, 0), (96, 6)])
def test_highest_bit_examples(x, expected):
    assert highest_bit(x) == expected


@pytest.mark.parametrize("a, b, expected", [(2, 4, 28), (3, 3, 8), (0, 2, 7)])
def test_block_examples(a, b, expected):
    assert block(a, b) == expected


class Word(int):
    """An int subclass: accepted like the plain int, through the exact checks."""


def test_zero_is_rejected():
    with pytest.raises(PreconditionError):
        lowest_bit(0)
    with pytest.raises(PreconditionError):
        highest_bit(0)
    with pytest.raises(PreconditionError):
        is_apart((1, 0, 4))
    # bools are refused whichever int they equal
    for value in (False, True):
        for call in (lowest_bit, highest_bit, lambda v: is_apart((1, v, 4))):
            with pytest.raises(PreconditionError) as info:
                call(value)
            assert str(info.value) == f"expected a positive integer, got {value}"


def test_block_bad_range_and_overflow():
    with pytest.raises(PreconditionError):
        block(4, 2)
    with pytest.raises(PreconditionError):
        block(-1, 2)
    with pytest.raises(OverflowLimitError):
        block(0, 64)
    assert block(0, 63) == MAX_VALUE


def test_value_width_guard():
    for call in (lowest_bit, highest_bit, lambda v: is_apart((1, v))):
        with pytest.raises(OverflowLimitError) as info:
            call(2**64)
        assert str(info.value) == "value 18446744073709551616 exceeds the 64-bit limit"
    # the largest value is accepted, plain or as an int subclass
    for edge in (2**64 - 1, Word(2**64 - 1)):
        assert (lowest_bit(edge), highest_bit(edge)) == (0, 63)
        assert is_apart((edge,)) is True and is_apart((1, edge)) is False
    assert (lowest_bit(Word(96)), highest_bit(Word(96))) == (lowest_bit(96), highest_bit(96)) == (5, 6)
    assert is_apart((Word(1), Word(2), 4)) is is_apart((1, 2, 4)) is True


def test_only_plain_ints_in_range_skip_the_exact_checks(monkeypatch):
    # a plain int in 1..MAX_VALUE passes one type-and-range test; an int
    # subclass and a value above the word take the exact checks
    checked = []
    exact = bits.check_value
    monkeypatch.setattr(bits, "check_value", lambda x: exact(checked.append(x) or x))
    for value in (1, 96, 2**63, 2**64 - 1):
        lowest_bit(value), highest_bit(value), is_apart((value,))
    assert checked == []
    lowest_bit(Word(96)), highest_bit(Word(2**64 - 1)), is_apart((4, Word(8)))
    assert checked == [96, 2**64 - 1, 8]
    with pytest.raises(OverflowLimitError):
        lowest_bit(2**64)
    assert checked[-1] == 2**64


@pytest.mark.parametrize("seq, expected", [
    ((1, 2, 4), True),
    ((2, 3), False),
    ((96, 384, 1536), True),
    ((7,), True),
    ((), True),
])
def test_is_apart_examples(seq, expected):
    assert is_apart(seq) is expected


@pytest.mark.parametrize("xs, expected", [
    ((1, 3, 7, 23), True),
    ((0, 1, 2), False),
    ((5, 6, 8, 12), True),
    ((4,), True),
    ((4, 9), True),
])
def test_is_separated_examples(xs, expected):
    assert is_separated(xs) is expected


def test_is_separated_rejects_non_increasing():
    with pytest.raises(PreconditionError):
        is_separated((3, 3, 5))
    with pytest.raises(PreconditionError):
        is_separated(())
    with pytest.raises(PreconditionError) as info:
        is_separated((1, -2, 3))
    assert str(info.value) == "is_separated requires non-negative integer entries"


positives = st.integers(min_value=1, max_value=2**40 - 1)


@given(positives)
def test_endpoints_bound_each_other(x):
    lo, hi = lowest_bit(x), highest_bit(x)
    assert lo <= hi
    assert (lo == hi) == (x & (x - 1) == 0)
    assert 2**lo <= x < 2**(hi + 1)
    assert x % 2**lo == 0 and x % 2**(lo + 1) != 0


@given(positives)
def test_bit_support_endpoints(x):
    support = bit_support(x)
    assert sum(2**p for p in support) == x
    assert min(support) == lowest_bit(x)
    assert max(support) == highest_bit(x)


@given(st.integers(min_value=1, max_value=2**20), st.integers(min_value=1, max_value=2**20),
       st.integers(min_value=0, max_value=5))
def test_block_sum_law(x, raw_y, pad):
    # shift raw_y so its lowest bit clears the highest bit of x
    y = raw_y << (highest_bit(x) + 1 + pad)
    assert highest_bit(x) < lowest_bit(y)
    assert lowest_bit(x + y) == lowest_bit(x)
    assert highest_bit(x + y) == highest_bit(y)
    assert bit_support(x + y) == bit_support(x) | bit_support(y)


@given(st.integers(min_value=0, max_value=62), st.integers(min_value=0, max_value=62))
def test_block_endpoints(a, b):
    lo, hi = min(a, b), max(a, b)
    value = block(lo, hi)
    assert lowest_bit(value) == lo
    assert highest_bit(value) == hi


@given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=8, unique=True))
def test_separated_agrees_with_apart_of_differences(values):
    xs = tuple(sorted(values))
    diffs = [b - a for a, b in zip(xs, xs[1:])]
    assert is_separated(xs) == is_apart(diffs)


def test_apartness_is_a_multiple_of_a_power_of_two():
    # b lies apart above a iff b is a multiple of 2^(bit length of a)
    rng = random.Random(11)
    edges = [1 << j for j in range(64)] + [2**63, 2**64 - 1, 2**63 + 1, 3, 5, 6, 7, 12, 96]
    pairs = [(a, b) for a in edges for b in edges]
    for _ in range(3000):
        a = rng.getrandbits(rng.randint(1, 64)) or 1
        b = (rng.getrandbits(rng.randint(1, 20)) | 1) << rng.randint(0, 43)
        pairs.append((a, b))
    for a, b in pairs:
        expected = checks.apart((a, b))  # highest bit of a below the lowest bit of b
        assert (b % (1 << a.bit_length()) == 0) == expected, (a, b)
        assert is_apart((a, b)) is expected, (a, b)
    for _ in range(500):
        seq = [(rng.getrandbits(rng.randint(1, 8)) | 1) << rng.randint(0, 55) for _ in range(rng.randint(0, 5))]
        assert is_apart(seq) is checks.apart(seq), seq
