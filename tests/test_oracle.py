import json
import random
import sys
import time
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from by_path import load
from irl.bits import MAX_VALUE
from irl.errors import BudgetExceededError, FormatError, OverflowLimitError, PreconditionError, WindowExhaustedError
from irl.oracle import (
    EnumerationOracle,
    approx,
    decode,
    decode_colour,
    encode_colour,
    lower_bound_colouring,
    oracle_from_json,
    oracle_to_json,
    pair_colour,
    synthesize_solution,
)

checks = load("perfbench/checks.py")

W = EnumerationOracle(events=((0, 2), (3, 5)))


def random_oracle(rng, max_events=8, max_stage=12, element_pool=30):
    count = rng.randint(0, max_events)
    elements = rng.sample(range(element_pool), count)
    return EnumerationOracle(events=tuple((e, rng.randint(0, max_stage)) for e in elements))


@pytest.mark.parametrize("bound, stage, expected", [
    (4, 3, {0}),
    (4, 5, {0, 3}),
    (2, 9, {0}),
])
def test_approx_examples(bound, stage, expected):
    assert approx(W, bound, stage) == frozenset(expected)


def test_settle_and_final():
    assert W.settle_stage == 5
    assert W.final_set == frozenset({0, 3})
    empty = EnumerationOracle(events=())
    assert empty.settle_stage == 0 and empty.final_set == frozenset()


@pytest.mark.parametrize("x, y, expected", [
    (4, 8, (1, 1)),
    (8, 4, (0, 1)),
    (2, 6, (0, 0)),
])
def test_pair_colour_examples(x, y, expected):
    assert decode_colour(pair_colour(W, x, y)) == expected
    assert pair_colour(W, x, y) == encode_colour(*expected)


def test_lower_bound_colouring_matches_pointwise_core():
    c = lower_bound_colouring(W, 8)
    assert c.mode == "vectors" and c.dim == 2 and c.palette == 4
    assert set(c.table) == {(x, y) for x in range(1, 9) for y in range(1, 9)}
    for (x, y), colour in c.table.items():
        assert colour == pair_colour(W, x, y)
    assert c.table[(4, 8)] == 3 and c.table[(8, 4)] == 1 and c.table[(2, 6)] == 0


def test_lower_bound_colouring_charges_its_pairs_to_the_budget(monkeypatch):
    monkeypatch.delenv("IRL_BUDGET", raising=False)
    assert len(lower_bound_colouring(W, 256).table) == 65_536
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="9000000 ordered pairs over window 3000") as info:
        lower_bound_colouring(W, 3000)
    assert info.value.count == 9_000_000
    assert time.perf_counter() - start < 1.0
    monkeypatch.setenv("IRL_BUDGET", "100")
    assert len(lower_bound_colouring(W, 10).table) == 100
    with pytest.raises(BudgetExceededError):
        lower_bound_colouring(W, 11)


def test_lower_bound_colouring_refuses_a_window_above_the_word(monkeypatch):
    # the budget is checked first, so a default budget still names the pair count
    monkeypatch.delenv("IRL_BUDGET", raising=False)
    with pytest.raises(BudgetExceededError, match=f"{2**128} ordered pairs over window {2**64}"):
        lower_bound_colouring(W, 2**64)
    monkeypatch.setenv("IRL_BUDGET", str(2**140))
    for window in (MAX_VALUE + 1, 2**70):
        with pytest.raises(OverflowLimitError) as info:
            lower_bound_colouring(EnumerationOracle(events=()), window)
        assert str(info.value) == f"window {window} exceeds the 64-bit limit"
    # within the word, but no list holds window + 1 positions
    for window in (2**63, 2**64 - 1):
        with pytest.raises(OverflowLimitError) as info:
            lower_bound_colouring(EnumerationOracle(events=()), window)
        assert str(info.value) == f"lower_bound_colouring window {window} holds more than {sys.maxsize} points"
    # a list holds window + 1 positions, but no dict holds window^2 pairs; 3_037_000_500 is the least such window
    assert 3_037_000_499 ** 2 <= sys.maxsize < 3_037_000_500 ** 2
    for window in (3_037_000_500, 2**62):
        with pytest.raises(OverflowLimitError) as info:
            lower_bound_colouring(EnumerationOracle(events=()), window)
        assert str(info.value) == f"lower_bound_colouring window {window} has {window**2} pairs, more than {sys.maxsize}"


def test_synthesize_examples():
    assert synthesize_solution(W, 3) == (96, 384, 1536)
    assert synthesize_solution(W, 1) == (96,)
    settled_at_zero = EnumerationOracle(events=((5, 0),))
    assert settled_at_zero.settle_stage == 0
    assert synthesize_solution(settled_at_zero, 2) == (3, 12)


def test_synthesize_is_apart_with_mono_pairs():
    for oracle in (W, EnumerationOracle(events=()), EnumerationOracle(events=((1, 7), (9, 2)))):
        xs = synthesize_solution(oracle, 4)
        assert checks.apart(xs)
        lows = [checks.low_bit(x) for x in xs]
        assert lows == sorted(set(lows))
        for a, b in checks.run_tuples(xs, 2):
            assert decode_colour(pair_colour(oracle, a, b)) == (1, 1) == checks.coding_colour(oracle.events, a, b)


def test_synthesize_overflow_reported():
    late = EnumerationOracle(events=((0, 60),))
    with pytest.raises(OverflowLimitError):
        synthesize_solution(late, 3)


def test_decode_examples():
    xs = synthesize_solution(W, 3)
    assert decode(xs, W, 3) is True
    assert decode(xs, W, 1) is False
    with pytest.raises(WindowExhaustedError):
        decode(xs, W, 9)
    with pytest.raises(PreconditionError):
        decode((), W, 1)


@given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=14))
def test_stage_monotonicity(bound, stage):
    assert approx(W, bound, stage) <= approx(W, bound, stage + 1)


def test_stage_monotonicity_random_oracles():
    rng = random.Random(2)
    for _ in range(50):
        oracle = random_oracle(rng)
        for stage in range(13):
            assert approx(oracle, 30, stage) <= approx(oracle, 30, stage + 1)
        assert approx(oracle, 30, oracle.settle_stage) == oracle.final_set


def test_synthesis_soundness_randomized():
    rng = random.Random(11)
    for _ in range(80):
        oracle = random_oracle(rng)
        m = rng.randint(1, 5)
        xs = synthesize_solution(oracle, m)
        for a, b in checks.run_tuples(xs, 2):
            assert decode_colour(pair_colour(oracle, a, b)) == (1, 1) == checks.coding_colour(oracle.events, a, b)
        for query in range(checks.low_bit(xs[-1])):
            assert decode(xs, oracle, query) == (query in oracle.final_set)


def test_lambda_monotone_colour_law():
    # every adjacent pair sum of an apart sequence gets first bit 1
    rng = random.Random(23)
    for _ in range(50):
        oracle = random_oracle(rng)
        position = 0
        seq = []
        for _ in range(rng.randint(2, 5)):
            position += rng.randint(0, 2)
            width = rng.randint(1, 3)
            seq.append(sum(2**p for p in range(position, position + width)))
            position += width
        assert checks.apart(seq)
        for a, b in checks.run_tuples(seq, 2):
            i, _ = decode_colour(pair_colour(oracle, a, b))
            assert i == 1 == checks.coding_colour(oracle.events, a, b)[0]


def test_conditional_decoding_on_searched_sequences():
    # every (1,1)-monochromatic sequence with settled stages decodes correctly
    rng = random.Random(31)
    for _ in range(6):
        oracle = random_oracle(rng, max_events=3, max_stage=2, element_pool=6)
        settle = oracle.settle_stage
        window = 48
        for cand in combinations(range(1, window + 1), 3):
            if sum(cand) > window:
                continue
            pairs = checks.run_tuples(cand, 2)
            if any(decode_colour(pair_colour(oracle, a, b)) != (1, 1) for a, b in pairs):
                continue
            assert all(checks.coding_colour(oracle.events, a, b) == (1, 1) for a, b in pairs)
            if min(checks.high_bit(x) for x in cand) <= settle:
                continue
            top = max(checks.low_bit(x) for x in cand)
            for query in range(top):
                assert decode(cand, oracle, query) == (query in oracle.final_set)


def test_oracle_json_round_trip_and_rejections():
    data = json.loads(json.dumps(oracle_to_json(W)))
    assert oracle_from_json(data) == W
    with pytest.raises(FormatError):
        oracle_from_json({"events": [[0, 2], [0, 5]]})
    with pytest.raises(FormatError):
        oracle_from_json({"events": [[0, -1]]})
    with pytest.raises(FormatError):
        oracle_from_json({"wrong": []})


ORACLE_CHECKS = [
    (lambda: EnumerationOracle(events=((1,),)), FormatError, "events must be (element, stage) pairs, got (1,)"),
    (lambda: EnumerationOracle(events=((1, 2), (1, 3), (2, -1))), FormatError, "element 1 enumerated twice"),
    (lambda: EnumerationOracle(events=((2, -1), (1, 2), (1, 3))), FormatError,
     "elements and stages must be naturals, got (2, -1)"),
    (lambda: EnumerationOracle(events=None), FormatError, "events must be a tuple of (element, stage) pairs, got NoneType"),
    (lambda: EnumerationOracle(events=[(1, 2)]), FormatError, "events must be a tuple of (element, stage) pairs, got list"),
    (lambda: EnumerationOracle(events=[(1,)]), FormatError, "events must be a tuple of (element, stage) pairs, got list"),
    # JSON and Python refuse a malformed event with one wording
    (lambda: oracle_from_json({"events": [[1]]}), FormatError, "events must be (element, stage) pairs, got (1,)"),
    (lambda: oracle_from_json({"events": [5]}), FormatError, "events must be (element, stage) pairs, got 5"),
    (lambda: lower_bound_colouring(W, 0), PreconditionError, "window must be an integer >= 1, got 0"),
    (lambda: synthesize_solution(W, 0), PreconditionError, "length must be an integer >= 1, got 0"),
    (lambda: decode(5, W, 1), PreconditionError, "decode requires an iterable of integers, got 5"),
    (lambda: pair_colour("x", 1, 2), PreconditionError, "pair_colour expects an EnumerationOracle instance, got str"),
    (lambda: decode((1, 2), None, 0), PreconditionError, "decode expects an EnumerationOracle instance, got NoneType"),
    # an exhausted window still refuses a non-oracle by its class, not by the window
    (lambda: decode((1,), None, 5), PreconditionError, "decode expects an EnumerationOracle instance, got NoneType"),
    (lambda: decode((1, 2), "x", 3), PreconditionError, "decode expects an EnumerationOracle instance, got str"),
    (lambda: lower_bound_colouring(None, 4), PreconditionError,
     "lower_bound_colouring expects an EnumerationOracle instance, got NoneType"),
    # the window and its budget first: the oracle is read only once the pairs are built
    (lambda: lower_bound_colouring(None, 0), PreconditionError, "window must be an integer >= 1, got 0"),
    (lambda: synthesize_solution(None, 3), PreconditionError,
     "synthesize_solution expects an EnumerationOracle instance, got NoneType"),
    (lambda: approx(None, 1, 1), PreconditionError, "approx expects an EnumerationOracle instance, got NoneType"),
    (lambda: oracle_to_json(None), PreconditionError,
     "oracle_to_json expects an EnumerationOracle instance, got NoneType"),
]


@pytest.mark.parametrize("call, error, message", ORACLE_CHECKS)
def test_oracle_checks_raise_their_own_errors(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def outcome(fn, *args):
    """The value of a call, or the type and message of the error it raised."""
    try:
        return "value", fn(*args)
    except Exception as error:  # noqa: BLE001  compared by type and message
        return type(error), str(error)


def reference_value(x):
    """The value rule of ``pair_colour`` and ``decode``, written out: a positive int of at most 64 bits."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise PreconditionError(f"expected a positive integer, got {x!r}")
    if x < 1:
        raise PreconditionError(f"expected a positive integer, got {x}")
    if x > 2**64 - 1:
        raise OverflowLimitError(f"value {x} exceeds the 64-bit limit")
    return x


def reference_pair_colour(oracle, x, y):
    i, j = checks.coding_colour(oracle.events, reference_value(x), reference_value(y))
    return 2 * i + j


def reference_decode(seq, oracle, m):
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        raise PreconditionError(f"query must be an integer >= 0, got {m!r}")
    entries = tuple(seq)
    if not entries:
        raise PreconditionError("decode requires a nonempty sequence")
    for x in entries:
        if checks.low_bit(reference_value(x)) > m:
            return any(e == m and s <= checks.high_bit(x) for e, s in oracle.events)
    raise WindowExhaustedError(f"window exhausted: no entry has its lowest bit above {m}")


def random_value(rng):
    """A positive value below 2^64 with its low and high bits spread over the word."""
    low = rng.randint(0, 63)
    return (rng.getrandbits(63 - low) << (low + 1) | 1 << low) if low < 63 else 1 << 63


def test_pair_colour_matches_the_two_approximations():
    rng = random.Random(61)
    seen = set()
    for _ in range(300):
        oracle = random_oracle(rng, max_events=12, max_stage=rng.choice((12, 64)),
                               element_pool=rng.choice((30, 64)))
        for _ in range(40):
            x = random_value(rng) if rng.random() < 0.5 else rng.randint(1, 300)
            y = random_value(rng) if rng.random() < 0.5 else rng.randint(1, 300)
            colour = pair_colour(oracle, x, y)
            assert colour == reference_pair_colour(oracle, x, y), (oracle, x, y)
            seen.add(colour)
    assert seen == {0, 1, 2, 3}
    edges = (1, 2, 3, 2**62, 2**63, 2**63 + 1, 2**64 - 1)
    for x in edges:
        for y in edges:
            assert pair_colour(W, x, y) == reference_pair_colour(W, x, y)


def test_decode_matches_membership_in_the_approximation():
    rng = random.Random(62)
    seen = set()
    for _ in range(300):
        oracle = random_oracle(rng, max_events=12, max_stage=rng.choice((12, 64)),
                               element_pool=rng.choice((30, 64)))
        seq = tuple(random_value(rng) for _ in range(rng.randint(1, 5)))
        for m in range(0, 66, 3):
            got = outcome(decode, seq, oracle, m)
            assert got == outcome(reference_decode, seq, oracle, m), (oracle, seq, m)
            seen.add(got[1] if got[0] == "value" else got[0])
    assert seen == {True, False, WindowExhaustedError}


class Word(int):
    """An int subclass: accepted like the plain int, through the exact checks."""


def test_pair_colour_and_decode_raise_the_reference_errors():
    bad = (0, -1, True, False, 2**64, 2**70, 1.5, "2")
    for value in bad:
        for good in (1, 6, 2**63, 2**64 - 1, Word(6)):
            assert outcome(pair_colour, W, value, good) == outcome(reference_pair_colour, W, value, good)
            assert outcome(pair_colour, W, good, value) == outcome(reference_pair_colour, W, good, value)
        for other in bad:
            assert outcome(pair_colour, W, value, other) == outcome(reference_pair_colour, W, value, other)
    sequences = [(), []] + [(value,) for value in bad] + [(1, value) for value in bad] \
        + [(8, value) for value in bad] + [(1, 2, 4), (96, 384), (2**63,), (2**64 - 1,), (2**63, 2**64 - 1)]
    sequences += [tuple(map(Word, seq)) for seq in sequences[-5:]]
    for seq in sequences:
        for m in (0, 1, 2, 5, 63, 64, -1, True, False, 2**64, "1"):
            assert outcome(decode, seq, W, m) == outcome(reference_decode, seq, W, m), (seq, m)
    # an int subclass gets the plain int's colour and readout
    rng = random.Random(65)
    edges = (1, 2, 3, 6, 96, 2**63, 2**64 - 1)
    for oracle in [W] + [random_oracle(rng, max_events=12, max_stage=64, element_pool=64) for _ in range(20)]:
        for x in edges:
            for y in edges:
                assert pair_colour(oracle, Word(x), Word(y)) == pair_colour(oracle, x, Word(y)) \
                    == pair_colour(oracle, x, y), (oracle, x, y)
            for m in range(0, 66, 5):
                assert outcome(decode, (Word(x), Word(2**63)), oracle, m) \
                    == outcome(decode, (x, 2**63), oracle, m), (oracle, x, m)


def test_lower_bound_colouring_matches_the_two_approximations():
    # every entry against the reference colour, on the empty oracle, W and
    # random oracles whose elements and stages reach 64
    rng = random.Random(63)
    oracles = [EnumerationOracle(events=()), W] + [
        random_oracle(rng, max_events=12, max_stage=rng.choice((8, 64)), element_pool=rng.choice((12, 65)))
        for _ in range(16)]
    seen = set()
    for oracle in oracles:
        for window in (1, 2, 3, 64, 100):
            c = lower_bound_colouring(oracle, window)
            assert list(c.table) == [(x, y) for x in range(1, window + 1) for y in range(1, window + 1)]
            for (x, y), colour in c.table.items():
                assert colour == reference_pair_colour(oracle, x, y), (oracle, window, x, y)
                seen.add(colour)
    assert seen == {0, 1, 2, 3}


EDGES = (62, 63, 64, 65, 10**6, 2**70)


def edge_oracles():
    """The empty oracle and oracles whose elements and stages sit at the word's edges.

    Small elements enumerated at edge stages test the stage clamp and the
    (low, high] stage window; edge elements beside small ones test the
    prefix ORs over the bounds.
    """
    rng = random.Random(64)
    oracles = [EnumerationOracle(events=()),
               EnumerationOracle(events=((61, 62), (62, 63), (63, 0), (60, 1), (0, 64)))]
    for edge in EDGES:
        oracles.append(EnumerationOracle(events=((edge, 1), (0, edge), (3, 2), (1, 5))))
        oracles.append(EnumerationOracle(events=((edge, edge), (2, 61), (4, 62), (5, 63))))
    for _ in range(8):
        elements = rng.sample((*range(8), *EDGES), rng.randint(1, 10))
        oracles.append(EnumerationOracle(events=tuple((e, rng.choice((*range(8), 61, *EDGES))) for e in elements)))
    return oracles


def test_stage_profile_at_the_word_edges_matches_the_approximations():
    rng = random.Random(65)
    values = (1, 2, 3, 6, 2**61, 2**62, 2**62 + 2**61, 2**63, 2**63 + 1, 2**63 + 2**62, 2**64 - 1)
    colours, readouts = set(), set()
    for oracle in edge_oracles():
        for x in values:
            for y in values:
                colour = pair_colour(oracle, x, y)
                assert colour == reference_pair_colour(oracle, x, y), (oracle, x, y)
                colours.add(colour)
        for seq in [(2**63,), (2**62, 2**63), (3 << 61,), (2**64 - 1,)] + [
                tuple(random_value(rng) for _ in range(rng.randint(1, 4))) for _ in range(6)]:
            for m in range(67):
                got = outcome(decode, seq, oracle, m)
                assert got == outcome(reference_decode, seq, oracle, m), (oracle, seq, m)
                readouts.add(got[1] if got[0] == "value" else got[0])
        for window in (63, 64, 65, 128):
            table = lower_bound_colouring(oracle, window).table
            assert len(table) == window * window
            for (x, y), colour in table.items():
                assert colour == reference_pair_colour(oracle, x, y), (oracle, window, x, y)
    assert colours == {0, 1, 2, 3}
    assert readouts == {True, False, WindowExhaustedError}


def test_stage_profile_cache_stays_out_of_equality_and_serialization():
    events = ((3, 7), (0, 2), (70, 1))
    used, fresh = EnumerationOracle(events=events), EnumerationOracle(events=events)
    before = (repr(used), hash(used), json.dumps(oracle_to_json(used)))
    assert pair_colour(used, 8, 2**9) == reference_pair_colour(fresh, 8, 2**9)
    assert "stage_profile" in vars(used) and "stage_profile" not in vars(fresh)
    assert used == fresh and fresh == used
    assert (repr(used), hash(used), json.dumps(oracle_to_json(used))) == before
    assert (repr(fresh), hash(fresh), json.dumps(oracle_to_json(fresh))) == before
    restored = oracle_from_json(json.loads(json.dumps(oracle_to_json(used))))
    assert restored == used and hash(restored) == hash(used) and repr(restored) == repr(used)
    assert "stage_profile" not in vars(restored)
