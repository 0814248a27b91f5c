import inspect
import json
import random
from dataclasses import fields, replace
from itertools import accumulate, product
from math import comb

import pytest
from hypothesis import given, strategies as st

import irl
from by_path import load
from irl.bits import block, is_apart, is_separated
from irl.cli import main
from irl.colouring import (
    Colouring,
    DifferenceColouring,
    _lift_translates,
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
from irl.errors import BudgetExceededError, IrlError, NotInvariantError, PreconditionError
from irl.oracle import EnumerationOracle
from irl.reduce import (
    KINDS,
    REDUCTIONS,
    ReductionReport,
    backward_transform,
    bit_window,
    forward_transform,
    verify_reduction,
)
from irl.search import _SHAPES, FiniteNumberQuery, find_afs_mono, find_mono_subset, finite_number
from irl.sums import adjacent_sums, adjacent_tuples, differences, gap_increasing, normalize, partial_sums
from test_golden_cli import VERIFY_SHAPES, _instance as golden_instance
from test_oracle import ORACLE_CHECKS

checks = load("perfbench/checks.py")


def unary_colouring(window, fn, palette=2):
    return Colouring(1, window, palette, "sets", {(y,): fn(y) for y in range(window + 1)})


def vector_colouring(dim, window, fn, palette=2):
    return Colouring(dim, window, palette, "vectors",
                     {t: fn(t) for t in vectors_domain(dim, window)})


def invariant_pairs(window, fn, palette=2):
    dc = DifferenceColouring(1, window, palette, {(z,): fn(z) for z in range(1, window + 1)})
    return from_differences(dc, window)


def block_instance(n, positions, fn, palette=2):
    """A vectors instance coloured on the block tuples realizable below `positions`."""
    table = {}
    for t in sets_domain(n + 1, positions):
        blocks = tuple(block(t[i], t[i + 1] - 1) for i in range(n))
        table[blocks] = fn(t)
    return Colouring(n, 2**positions - 1, palette, "vectors", table)


def test_forward_rt_to_zrt_example():
    c = unary_colouring(12, lambda y: y % 2)
    f = forward_transform("RT_TO_ZRT", c)
    assert f.dim == 2 and f.mode == "sets" and f.window == 12
    assert f.table[(2, 5)] == 1
    assert is_shift_invariant(f)


def test_forward_zrt_to_aht_example():
    rng = random.Random(3)
    dc = DifferenceColouring(2, 12, 3, {t: rng.randrange(3) for t in vectors_domain(2, 12)})
    c = from_differences(dc, 12)
    f = forward_transform("ZRT_TO_AHT", c)
    assert f.mode == "vectors" and f.dim == 2
    assert f.table[(3, 4)] == c.table[(0, 3, 7)]


def test_forward_zrt_to_aht_rejects_non_invariant():
    bad = Colouring(2, 6, 2, "sets", {t: t[0] % 2 for t in sets_domain(2, 6)})
    with pytest.raises(NotInvariantError):
        forward_transform("ZRT_TO_AHT", bad)


def test_forward_aht_to_zrt_is_invariant():
    v = vector_colouring(1, 12, lambda t: t[0] % 2)
    f = forward_transform("AHT_TO_ZRT", v)
    assert f.dim == 2 and f.table[(3, 8)] == 1
    assert is_shift_invariant(f)


def test_forward_apaht_uses_half_open_blocks():
    inst = vector_colouring(1, 31, lambda t: t[0] % 2)
    f = forward_transform("APAHT_TO_RT", inst)
    assert f.window == bit_window(31) == 5
    assert f.table[(2, 5)] == inst.table[(28,)]
    assert f.table[(0, 1)] == inst.table[(1,)]


def test_forward_mode_mismatch():
    sets_instance = unary_colouring(5, lambda y: 0)
    with pytest.raises(PreconditionError):
        forward_transform("AHT_TO_ZRT", sets_instance)
    with pytest.raises(PreconditionError):
        forward_transform("UNKNOWN", sets_instance)


@pytest.mark.parametrize("kind, solution, expected", [
    ("RT_TO_ZRT", (4, 7, 12, 20), (3, 8, 16)),
    ("ZRT_TO_AHT", (2, 4, 6), (2, 6, 12)),
    ("AHT_TO_ZRT", (1, 2, 3, 4, 5, 10, 11, 20, 40), (1, 2, 6, 10, 20)),
    ("APAHT_TO_RT", (1, 3, 4), (6, 8)),
])
def test_backward_examples(kind, solution, expected):
    assert backward_transform(kind, solution) == expected


def test_backward_preconditions():
    with pytest.raises(PreconditionError):
        backward_transform("AHT_TO_ZRT", (5,))
    with pytest.raises(PreconditionError):
        backward_transform("APAHT_TO_RT", (3, 1))
    with pytest.raises(PreconditionError):
        backward_transform("RT_TO_ZRT", ())


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("solution, bad", [
    ([None, 5], None), (["a", "b"], "a"), ([0.5, 1.5], 0.5), ([1, 2.0], 2.0), ([True, 2], True), ([0, 1, False], False),
])
def test_backward_refuses_a_non_integer_entry_before_comparing(kind, solution, bad):
    if kind == "ZRT_TO_AHT" and solution[0] == 0:
        bad = 0  # the entries of an AHT witness are positive, so its 0 is refused first
    with pytest.raises(PreconditionError) as info:
        backward_transform(kind, solution)
    sign = "positive" if kind == "ZRT_TO_AHT" else "non-negative"
    assert str(info.value) == f"{kind} requires {sign} integer entries, got {bad!r}"


@pytest.mark.parametrize("kind, message", [
    ("RT_TO_ZRT", "RT_TO_ZRT requires non-negative integer entries, got -1"),
    ("ZRT_TO_AHT", "ZRT_TO_AHT requires positive integer entries, got -1"),
    ("AHT_TO_ZRT", "AHT_TO_ZRT requires non-negative integer entries, got -1"),
    ("APAHT_TO_RT", "APAHT_TO_RT requires non-negative integer entries, got -1"),
])
def test_backward_refuses_a_negative_entry_for_every_kind(kind, message):
    with pytest.raises(PreconditionError) as info:
        backward_transform(kind, [-1, 2])
    assert str(info.value) == message


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=2, max_size=8, unique=True))
def test_apartness_production(values):
    solution = tuple(sorted(values))
    assert is_apart(backward_transform("APAHT_TO_RT", solution))


def test_invariance_production_exhaustive():
    for window in range(1, 7):
        for c in enumerate_colourings(1, window, 2):
            assert is_shift_invariant(forward_transform("RT_TO_ZRT", c))
        for v in enumerate_colourings(1, window, 2, mode="vectors"):
            assert is_shift_invariant(forward_transform("AHT_TO_ZRT", v))


def test_invariance_production_sampled_dim2():
    for c in sample_colourings(2, 8, 3, seed=21, count=30):
        assert is_shift_invariant(forward_transform("RT_TO_ZRT", c))
    rng = random.Random(22)
    for _ in range(30):
        v = vector_colouring(2, 8, lambda t: rng.randrange(3), palette=3)
        assert is_shift_invariant(forward_transform("AHT_TO_ZRT", v))


def test_verify_zrt_to_aht_example():
    instance = invariant_pairs(12, lambda z: z % 2)
    report = verify_reduction("ZRT_TO_AHT", instance, 3)
    assert report.witness == (2, 4, 6)
    assert report.mapped == (2, 6, 12)
    assert report.passed is True
    assert report.colour == 0


def test_verify_rt_to_zrt_constant_example():
    instance = unary_colouring(5, lambda y: 0)
    report = verify_reduction("RT_TO_ZRT", instance, 3)
    assert report.witness == (0, 1, 2, 3)
    assert report.mapped == (1, 2, 3)
    assert report.passed is True


def test_verify_aht_to_zrt_example():
    instance = vector_colouring(1, 12, lambda t: t[0] % 2)
    report = verify_reduction("AHT_TO_ZRT", instance, 4)
    assert report.passed is True


def test_verify_reports_no_witness_as_null():
    instance = invariant_pairs(4, lambda z: z % 2)
    report = verify_reduction("ZRT_TO_AHT", instance, 4)
    assert report.witness is None and report.mapped is None and report.passed is None


def test_verify_round_trip_colour_identity():
    rng = random.Random(40)
    seen_pass = 0
    for trial in range(60):
        window = rng.randint(6, 12)
        palette = rng.randint(1, 3)
        table = {(z,): rng.randrange(palette) for z in range(1, window + 1)}
        instance = from_differences(DifferenceColouring(1, window, palette, table), window)
        report = verify_reduction("ZRT_TO_AHT", instance, 3)
        assert report.passed is not False
        if report.passed:
            seen_pass += 1
            transformed = forward_transform("ZRT_TO_AHT", instance)
            colours = {transformed.table[t] for t in checks.run_tuples(report.witness, 1)}
            assert colours == {report.colour}
    assert seen_pass > 10


def test_verify_apaht_round_trip():
    rng = random.Random(50)
    seen_pass = 0
    for trial in range(40):
        n = rng.choice((1, 2))
        positions = rng.randint(n + 2, 9)
        instance = block_instance(n, positions, lambda t: rng.randrange(2))
        report = verify_reduction("APAHT_TO_RT", instance, n + 1)
        assert report.passed is not False
        if report.passed:
            seen_pass += 1
            assert is_apart(report.mapped)
    assert seen_pass > 5


def test_verify_maps_each_witness_back_as_backward_transform_does():
    # verify calls the backward maps on search witnesses without backward_transform's checks;
    # the instances are seeded ones of the golden CLI file's reduction shapes
    rng = random.Random(33)
    mapped = dict.fromkeys(KINDS, 0)
    for _ in range(3):
        for kind, maker, dim, window, palette, target in VERIFY_SHAPES:
            mode, w, table = golden_instance(rng, maker, dim, window, palette)
            report = verify_reduction(kind, Colouring(dim, w, palette, mode, table), target)
            if report.witness is not None:
                assert report.mapped == backward_transform(kind, report.witness), (kind, report.witness)
                mapped[kind] += 1
    assert min(mapped.values()) > 0, mapped


def test_report_json_shape_and_determinism():
    instance = invariant_pairs(12, lambda z: z % 2)
    first = verify_reduction("ZRT_TO_AHT", instance, 3)
    second = verify_reduction("ZRT_TO_AHT", instance, 3)
    assert first == second
    data = first.to_json_dict()
    assert list(data) == ["kind", "params", "window", "target", "witness", "mapped", "pass", "colour"]
    assert json.dumps(data) == json.dumps(second.to_json_dict())


def test_reports_of_different_instances_with_equal_verdicts_are_equal():
    # a report holds its verdict only, so it compares and hashes by its eight fields
    assert [f.name for f in fields(ReductionReport)] == [
        "kind", "param", "window", "target", "witness", "mapped", "passed", "colour"]
    first = verify_reduction("RT_TO_ZRT", unary_colouring(1, lambda y: 0), 3)
    second = verify_reduction("RT_TO_ZRT", unary_colouring(1, lambda y: y), 3)
    assert first.to_json_dict() == second.to_json_dict()
    assert first == second and hash(first) == hash(second)
    assert len({first, second}) == 1
    assert first != verify_reduction("RT_TO_ZRT", unary_colouring(1, lambda y: 0), 4)


def test_kinds_are_complete():
    assert set(KINDS) == {"RT_TO_ZRT", "ZRT_TO_AHT", "AHT_TO_ZRT", "APAHT_TO_RT"}


# kind -> (source mode, target mode, source shift invariance, source apartness), read from _SHAPES
DERIVED = {
    "RT_TO_ZRT": ("sets", "sets", False, False),
    "ZRT_TO_AHT": ("sets", "vectors", True, False),
    "AHT_TO_ZRT": ("vectors", "sets", False, False),
    "APAHT_TO_RT": ("vectors", "sets", False, True),
}


def test_each_kind_takes_its_shape_from_its_principles():
    assert KINDS == ("RT_TO_ZRT", "ZRT_TO_AHT", "AHT_TO_ZRT", "APAHT_TO_RT")
    for kind, reduction in REDUCTIONS.items():
        assert kind == f"{reduction.source}_TO_{reduction.target}"
        mode, invariant, apart = _SHAPES[reduction.source]
        assert (mode, _SHAPES[reduction.target][0], invariant, apart) == DERIVED[kind]
    assert sorted(r.source for r in REDUCTIONS.values()) == ["AHT", "APAHT", "RT", "ZRT"]


@pytest.mark.parametrize("kind", KINDS)
def test_forward_and_verify_follow_the_derived_shapes(monkeypatch, kind):
    source_mode, target_mode, invariant, apart = DERIVED[kind]
    if source_mode == "vectors":
        instance, other = vector_colouring(1, 15, lambda t: 0), invariant_pairs(6, lambda z: 0)
    else:
        instance, other = invariant_pairs(6, lambda z: 0), vector_colouring(1, 15, lambda t: 0)
    assert forward_transform(kind, instance).mode == target_mode
    reduction = REDUCTIONS[kind]  # every forward map returns the table verify searches
    assert type(reduction.forward(instance, reduction.window(instance.window))) is dict
    with pytest.raises(PreconditionError, match=f"{kind} expects a {source_mode}-mode instance") as refused:
        forward_transform(kind, other)
    with pytest.raises(PreconditionError) as info:  # one check pass: verify refuses it for the same reason
        verify_reduction(kind, other, 2)
    assert str(info.value) == str(refused.value)
    if source_mode == "sets":
        anchored = Colouring(2, 4, 2, "sets", {t: t[0] % 2 for t in sets_domain(2, 4)})
        if invariant:
            with pytest.raises(NotInvariantError):
                forward_transform(kind, anchored)
        else:
            forward_transform(kind, anchored)
    # a monochromatic mapped solution passes unless the source principle asks for apartness
    monkeypatch.setitem(REDUCTIONS, kind, replace(REDUCTIONS[kind], backward=lambda witness: (1, 3)))
    report = verify_reduction(kind, instance, 2)
    assert report.mapped == (1, 3) and not is_apart((1, 3))
    assert report.passed is (not apart)


DIFFERENCES = DifferenceColouring(1, 4, 2, {(1,): 0})


@pytest.mark.parametrize("call", [
    lambda inst: forward_transform("NOPE", inst),
    lambda inst: backward_transform("NOPE", ()),
    lambda inst: verify_reduction("NOPE", inst, 2),
    lambda inst: verify_reduction("NOPE", DIFFERENCES, 2),  # the kind before the type
])
def test_unknown_kind_is_refused_before_any_other_fault(call):
    with pytest.raises(PreconditionError) as info:
        call(vector_colouring(1, 4, lambda t: 0))
    assert str(info.value) == f"kind must be one of {KINDS}, got 'NOPE'"


SETS = Colouring(1, 4, 2, "sets", {(1,): 0})
VECTORS = Colouring(2, 4, 2, "vectors", {(1, 1): 0})

WRONG_TYPE = [
    (lambda: backward_transform("RT_TO_ZRT", 5), "RT_TO_ZRT requires an iterable of integers, got 5"),
    (lambda: backward_transform("RT_TO_ZRT", None), "RT_TO_ZRT requires an iterable of integers, got None"),
    (lambda: forward_transform("RT_TO_ZRT", {"dim": 1}), "RT_TO_ZRT expects a Colouring instance, got dict"),
    (lambda: verify_reduction("RT_TO_ZRT", None, 2), "RT_TO_ZRT expects a Colouring instance, got NoneType"),
    (lambda: forward_transform("AHT_TO_ZRT", DIFFERENCES),
     "AHT_TO_ZRT expects a Colouring instance, got DifferenceColouring"),
    (lambda: verify_reduction("ZRT_TO_AHT", DIFFERENCES, 2),
     "ZRT_TO_AHT expects a Colouring instance, got DifferenceColouring"),
    (lambda: verify_reduction("APAHT_TO_RT", DIFFERENCES, 2),
     "APAHT_TO_RT expects a Colouring instance, got DifferenceColouring"),
    # each checked first: a sets table read as differences would lift to tuples that are not increasing
    (lambda: from_differences(Colouring(2, 3, 2, "sets", {(0, 1): 0, (1, 2): 1}), 4),
     "from_differences expects a DifferenceColouring instance, got Colouring"),
    (lambda: from_differences(None, -1), "from_differences expects a DifferenceColouring instance, got NoneType"),
    (lambda: to_differences(DIFFERENCES), "to_differences expects a Colouring instance, got DifferenceColouring"),
    (lambda: invariance_witness(DIFFERENCES),
     "invariance_witness expects a Colouring instance, got DifferenceColouring"),
    (lambda: is_shift_invariant(DIFFERENCES),
     "is_shift_invariant expects a Colouring instance, got DifferenceColouring"),
    (lambda: find_mono_subset(None, 3), "find_mono_subset expects a Colouring instance, got NoneType"),
    (lambda: find_afs_mono(None, 3), "find_afs_mono expects a Colouring instance, got NoneType"),
    (lambda: finite_number(None), "finite_number expects a FiniteNumberQuery instance, got NoneType"),
    (lambda: colouring_to_json(None),
     "colouring_to_json expects a Colouring or DifferenceColouring instance, got NoneType"),
    # the mode, checked after the class by the same rule
    (lambda: invariance_witness(VECTORS), "invariance_witness expects a sets-mode instance, got 'vectors'"),
    (lambda: is_shift_invariant(VECTORS), "is_shift_invariant expects a sets-mode instance, got 'vectors'"),
    (lambda: to_differences(VECTORS), "to_differences expects a sets-mode instance, got 'vectors'"),
    (lambda: find_mono_subset(VECTORS, 3), "find_mono_subset expects a sets-mode instance, got 'vectors'"),
    (lambda: find_afs_mono(SETS, 3), "find_afs_mono expects a vectors-mode instance, got 'sets'"),
    (lambda: adjacent_sums(5), "adjacent_sums requires an iterable of integers, got 5"),
    (lambda: adjacent_tuples(5, 2), "adjacent_tuples requires an iterable of integers, got 5"),
    (lambda: normalize(5), "normalize requires an iterable of integers, got 5"),
    (lambda: differences(5), "differences requires an iterable of integers, got 5"),
    (lambda: gap_increasing(5), "gap_increasing requires an iterable of integers, got 5"),
    (lambda: partial_sums(5), "partial_sums requires an iterable of integers, got 5"),
    (lambda: is_apart(5), "is_apart requires an iterable of integers, got 5"),
    (lambda: is_separated(None), "is_separated requires an iterable of integers, got None"),
]


@pytest.mark.parametrize("call, message", WRONG_TYPE)
def test_entry_points_refuse_an_argument_of_the_wrong_type(call, message):
    with pytest.raises(PreconditionError) as info:
        call()
    assert str(info.value) == message


def test_every_entry_point_that_takes_a_package_object_has_a_wrong_class_row():
    # found by signature, so a new entry point needs a row here or in the oracle checks
    classes = (Colouring, DifferenceColouring, EnumerationOracle, FiniteNumberQuery)
    takes_one = {name for name, value in vars(irl).items() if inspect.isfunction(value)
                 and any(p.annotation in classes for p in inspect.signature(value).parameters.values())}
    assert len(takes_one) == 15
    rows = [*WRONG_TYPE, *((call, message) for call, _, message in ORACLE_CHECKS)]
    refused = {call.__code__.co_names[0] for call, message in rows if " instance, got " in message}
    assert takes_one | {"colouring_to_json"} <= refused


def test_verify_checks_the_target_before_the_kind():
    with pytest.raises(PreconditionError, match="target must be an integer >= 1"):
        verify_reduction("NOPE", unary_colouring(3, lambda y: 0), 0)


def test_verify_on_an_instance_of_huge_arity_is_vacuous():
    report = verify_reduction("ZRT_TO_AHT", Colouring(10**12, 100, 2, "sets", {}), 2)
    assert report.to_json_dict() == {
        "kind": "ZRT_TO_AHT", "params": 10**12 - 1, "window": 100, "target": 2,
        "witness": [1, 2], "mapped": [1, 3], "pass": True, "colour": None}


def test_finite_number_counterexamples_stay_witness_free_forward():
    # a witness-free colouring, pushed forward, has no witness at the target
    # length: the finite contrapositive of each reduction
    checked = refused = 0
    for principle, kind in (("RT", "RT_TO_ZRT"), ("ZRT", "ZRT_TO_AHT"), ("APAHT", "APAHT_TO_RT")):
        for dim in (1, 2, 3):
            for k in (1, 2, 3):
                for m in range(dim if principle in ("RT", "ZRT") else 1, 6):
                    for cap in (3, 5, 8):
                        try:
                            result = finite_number(FiniteNumberQuery(principle, dim, k, m, cap))
                        except BudgetExceededError:
                            continue
                        if result.value is not None:
                            continue
                        try:
                            report = verify_reduction(kind, result.counterexample, m)
                        except PreconditionError:  # ZRT_TO_AHT at arity 1
                            assert kind == "ZRT_TO_AHT" and dim == 1
                            refused += 1
                            continue
                        assert report.passed is None and report.witness is None, \
                            (principle, dim, k, m, cap)
                        checked += 1
    assert (checked, refused) == (164, 6)


def test_translation_lifts_match_the_differences_walk():
    # from_differences, RT_TO_ZRT and AHT_TO_ZRT each colour a set by the
    # class of its translates; vectors coordinates run over [1, window], so
    # some AHT_TO_ZRT entries total more than the window and have no translate
    rng = random.Random(2024)
    for dim in (1, 2, 3):
        for window in range(13):
            for keep in (0.2, 0.6, 1.0):
                palette = rng.randint(1, 3)

                def partial(domain):
                    return {t: rng.randrange(palette) for t in domain if rng.random() < keep}

                dc = DifferenceColouring(dim, window, palette, partial(vectors_domain(dim, window)))
                lift = rng.randint(0, 12)
                assert from_differences(dc, lift).table == checks.expected_forward("AHT_TO_ZRT", dim, lift, dc.table)[3]

                sets = partial(sets_domain(dim, window))
                got = forward_transform("RT_TO_ZRT", Colouring(dim, window, palette, "sets", sets))
                assert got.table == checks.expected_forward("RT_TO_ZRT", dim, window, sets)[3]

                vectors = partial(product(range(1, window + 1), repeat=dim))
                got = forward_transform("AHT_TO_ZRT", Colouring(dim, window, palette, "vectors", vectors))
                assert got.table == checks.expected_forward("AHT_TO_ZRT", dim, window, vectors)[3]


def walk_is_short(dim, n):
    """Whether a target domain of dim-subsets of n points holds at most 10^6 tuple elements."""
    return comb(n, dim) * dim <= 10**6


def reference_zrt_to_aht(instance):
    """forward_transform("ZRT_TO_AHT"): its refusals, then the checks' walk of the target domain.

    Past a short walk, the difference vectors of the tuples from 0.
    """
    if instance.mode != "sets":
        raise PreconditionError(f"ZRT_TO_AHT expects a sets-mode instance, got {instance.mode!r}")
    if instance.dim < 2:
        raise PreconditionError("ZRT_TO_AHT expects tuple arity >= 2")
    clash = checks.invariance_clash(instance.table)
    if clash is not None:
        witness = tuple((t, instance.table[t]) for t in clash)
        raise NotInvariantError("ZRT_TO_AHT requires a shift-invariant instance", witness=witness)
    dim, window = instance.dim - 1, instance.window
    if walk_is_short(dim, window):  # a vector of d entries from 1 is a d-subset of [1, window]
        table = checks.expected_forward("ZRT_TO_AHT", instance.dim, window, instance.table)[3]
    else:
        table = {checks.diffs(t): colour for t, colour in instance.table.items() if t[0] == 0}
    return Colouring(dim, window, instance.palette, "vectors", table)


def transform_outcome(transform, instance):
    """The transformed instance, or the type, message, witness and count of the error."""
    try:
        return "value", transform(instance)
    except IrlError as error:
        return type(error), str(error), getattr(error, "witness", None), getattr(error, "count", None)


def test_zrt_to_aht_forward_matches_the_target_domain_walk(monkeypatch):
    monkeypatch.delenv("IRL_BUDGET", raising=False)
    rng = random.Random(77)
    instances = [unary_colouring(6, lambda y: y % 2), vector_colouring(2, 6, lambda t: 0),
                 vector_colouring(1, 6, lambda t: 0), Colouring(3, 10**6, 2, "sets", {})]
    for dim in (2, 3, 4):
        for window in range(11):
            palette = rng.randint(1, 3)
            for keep in (0.3, 1.0):
                differences = {v: rng.randrange(palette) for v in vectors_domain(dim - 1, window)
                               if rng.random() < keep}
                lifted = from_differences(DifferenceColouring(dim - 1, window, palette, differences),
                                          rng.randint(0, 12))
                # dropping entries keeps a lifted table invariant, but may drop the tuples from 0
                partial = {t: colour for t, colour in lifted.table.items() if rng.random() < 0.5}
                instances += [lifted, replace(lifted, table=partial)]
            instances.append(Colouring(dim, window, palette, "sets", {}))
            instances.append(Colouring(dim, window, palette, "sets",
                                       {t: rng.randrange(palette) for t in sets_domain(dim, window)}))
    seen = set()

    def check(instance):
        got = transform_outcome(lambda c: forward_transform("ZRT_TO_AHT", c), instance)
        assert got == transform_outcome(reference_zrt_to_aht, instance), instance
        seen.add(got[0])

    for instance in instances:
        check(instance)
    # nothing is lifted, so no budget refuses the map: only the invariance check does
    invariant = invariant_pairs(10, lambda z: z % 2)
    lifted = from_differences(DifferenceColouring(2, 10, 2, {v: sum(v) % 2 for v in vectors_domain(2, 10)}), 10)
    non_invariant = Colouring(3, 10, 2, "sets", {t: t[0] % 2 for t in sets_domain(3, 10)})
    monkeypatch.setenv("IRL_BUDGET", "20")
    for instance in (invariant, lifted, non_invariant):
        check(instance)
    assert seen == {"value", PreconditionError, NotInvariantError}


def run_values(positions):
    """The values of the half-open blocks between consecutive positions, unchecked."""
    return tuple((1 << b) - (1 << a) for a, b in zip(positions, positions[1:]))


def reference_apaht_to_rt(instance):
    """forward_transform("APAHT_TO_RT"): its refusal, then the checks' walk of the target domain.

    Past a short walk, each entry's positions: the lowest bit of its first
    value, then one past the highest bit of each value.  The entry is kept
    when the half-open blocks of those positions give it back and the last
    one is within the bit window.
    """
    if instance.mode != "vectors":
        raise PreconditionError(f"APAHT_TO_RT expects a vectors-mode instance, got {instance.mode!r}")
    dim, window = instance.dim + 1, bit_window(instance.window)
    if walk_is_short(dim, window + 1):
        table = checks.expected_forward("APAHT_TO_RT", instance.dim, instance.window, instance.table)[3]
    else:
        table = {}
        for values, colour in instance.table.items():
            positions = (checks.low_bit(values[0]), *(checks.high_bit(v) + 1 for v in values))
            if run_values(positions) == values and positions[-1] <= window:
                table[positions] = colour
    return Colouring(dim, window, instance.palette, "sets", table)


def test_apaht_to_rt_forward_matches_the_target_domain_walk(monkeypatch):
    monkeypatch.delenv("IRL_BUDGET", raising=False)
    rng = random.Random(131)
    instances = [Colouring(2, 2**12 - 1, 2, "vectors", {}),
                 # the walk's bounds at 64 bits: one tuple over [0, 64], none over [0, 70]
                 Colouring(64, 2**64 - 1, 2, "vectors", {run_values(range(65)): 1}),
                 Colouring(71, 2**70, 2, "vectors", {run_values(range(72)): 1})]
    for n in (1, 2, 3, 4):
        for positions in range(13):
            palette = rng.randint(1, 3)
            full = block_instance(n, positions, lambda t: rng.randrange(palette), palette)
            for keep in (0.1, 0.5, 1.0):
                table = {v: c for v, c in full.table.items() if rng.random() < keep}
                junk = {tuple(rng.randint(1, full.window) for _ in range(n)): rng.randrange(palette)
                        for _ in range(3 if full.window else 0)}
                instances.append(replace(full, table={**junk, **table}))
                # the halved value window keeps runs whose last position is above its bit window
                half = full.window // 2 + 1
                instances.append(Colouring(n, half, palette, "vectors",
                                           {v: c for v, c in table.items() if max(v) <= half}))
        for window in (2**64 - 1, 2**65 - 1, 2**70):
            top = bit_window(window)
            runs = [range(n + 1), range(top - n - 1, top), range(top - n, top + 1)]
            instances.append(Colouring(n, window, 2, "vectors", {run_values(t): rng.randrange(2) for t in runs}))
    # past 64 bits the walk overflows on its first over-wide tuple, unless the domain is empty
    instances += [Colouring(dim, 2**70, 2, "vectors", {}) for dim in (65, 66, 67, 70)]
    seen = set()

    def check(instance):
        got = transform_outcome(lambda c: forward_transform("APAHT_TO_RT", c), instance)
        assert got == transform_outcome(reference_apaht_to_rt, instance), instance
        seen.add(got[0])

    for instance in instances:
        check(instance)
    # the mode is the only refusal: nothing is lifted, so no budget is charged
    monkeypatch.setenv("IRL_BUDGET", "20")
    for instance in (unary_colouring(5, lambda y: 0), block_instance(1, 3, lambda t: 1),
                     block_instance(1, 12, lambda t: 1), Colouring(1, 2**65 - 1, 2, "vectors", {})):
        check(instance)
    assert seen == {"value", PreconditionError}


def test_apaht_to_rt_forward_work_follows_the_instance(monkeypatch):
    # at 60 bits the target domain of a dim-d instance holds C(61, d + 1) tuples
    monkeypatch.delenv("IRL_BUDGET", raising=False)
    calls = 0

    def counted(a, b):
        nonlocal calls
        calls += 1
        return block(a, b)

    monkeypatch.setattr("irl.reduce.block", counted)
    for dim in (2, 3):
        calls = 0
        instance = Colouring(dim, 2**60 - 1, 2, "vectors", {run_values((0, 7, 59, 60)[-dim - 1:]): 1})
        assert forward_transform("APAHT_TO_RT", instance).table == {(0, 7, 59, 60)[-dim - 1:]: 1}
        assert calls <= dim * len(instance.table)


def test_length_preserving_passes_by_kind():
    # a pass maps back to a solution of the target's length, except through
    # AHT_TO_ZRT, whose gap-increasing subsequence is usually shorter
    rng = random.Random(11)

    def colour(_):
        return rng.randrange(2)

    instances = {
        "RT_TO_ZRT": [Colouring(dim, w, 2, "sets", {t: colour(t) for t in sets_domain(dim, w)})
                      for dim in (1, 2) for w in (6, 9)],
        "ZRT_TO_AHT": [from_differences(DifferenceColouring(
                           dim - 1, w, 2, {v: colour(v) for v in vectors_domain(dim - 1, w)}), w)
                       for dim in (2, 3) for w in (8, 11)],
        "AHT_TO_ZRT": [vector_colouring(dim, w, colour) for dim in (1, 2) for w in (9, 12)],
        "APAHT_TO_RT": [block_instance(n, positions, colour) for n in (1, 2) for positions in (5, 7)],
    }
    counts = {}
    for kind, colourings in instances.items():
        same = shorter = none = 0
        for c in colourings:
            for target in (2, 3, 4, 5):
                try:
                    report = verify_reduction(kind, c, target)
                except PreconditionError:
                    continue
                if report.passed is None:
                    none += 1
                else:
                    assert report.passed is True
                    if len(report.mapped) == target:
                        same += 1
                    else:
                        shorter += 1
        counts[kind] = (same, shorter, none)
    # (passes of the target's length, shorter passes, windows with no witness)
    assert counts == {"RT_TO_ZRT": (7, 0, 9), "ZRT_TO_AHT": (5, 0, 11),
                      "AHT_TO_ZRT": (0, 12, 2), "APAHT_TO_RT": (7, 0, 9)}


@pytest.mark.parametrize("odd", [(1,), (2,), (3,)])
def test_verify_checks_every_tuple_of_the_mapped_solution(monkeypatch, odd):
    # a backward map that returns (1, 2), whose adjacent tuples (1,), (2,), (3,)
    # are coloured alike but for one: the verdict must see that one
    instance = Colouring(1, 6, 2, "vectors", {(z,): int((z,) == odd) for z in range(1, 7)})
    monkeypatch.setitem(REDUCTIONS, "AHT_TO_ZRT", replace(REDUCTIONS["AHT_TO_ZRT"], backward=lambda witness: (1, 2)))
    report = verify_reduction("AHT_TO_ZRT", instance, 2)
    assert report.witness is not None and report.mapped == (1, 2)
    assert report.passed is False and report.colour is None


def test_verify_fails_a_mapped_solution_with_an_uncoloured_tuple(monkeypatch):
    # (1, 2) has the adjacent tuples (1,), (2,), (3,); (3,) is uncoloured and the others agree
    instance = Colouring(1, 6, 2, "vectors", {(z,): 0 for z in range(1, 7) if z != 3})
    monkeypatch.setitem(REDUCTIONS, "AHT_TO_ZRT", replace(REDUCTIONS["AHT_TO_ZRT"], backward=lambda witness: (1, 2)))
    report = verify_reduction("AHT_TO_ZRT", instance, 2)
    assert report.witness is not None and report.mapped == (1, 2)
    assert report.passed is False and report.colour is None


def test_verify_fails_a_partial_instance_that_leaves_a_mapped_tuple_uncoloured(tmp_path, capsys):
    # the forward map reads only the tuples from 0, but the mapped solution (1, 3)
    # is checked on its own tuple, which this partial instance leaves uncoloured
    instance = Colouring(2, 3, 2, "sets", {(0, 1): 0, (0, 2): 0, (0, 3): 0})
    report = verify_reduction("ZRT_TO_AHT", instance, 2)
    assert (report.witness, report.mapped, report.passed, report.colour) == ((1, 2), (1, 3), False, None)
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(colouring_to_json(instance)))
    assert main(["reduce", "--kind", "ZRT_TO_AHT", "--m", "2", "--input", str(path)]) == 0
    assert capsys.readouterr().out == (
        '{"kind": "ZRT_TO_AHT", "params": 1, "window": 3, "target": 2, "witness": [1, 2], '
        '"mapped": [1, 3], "pass": false, "colour": null}\n')


@pytest.mark.parametrize("call, message", [
    (lambda: block(0.5, 2),"block requires 0 <= a <= b, got (0.5, 2)"),
    (lambda: block("a", 3), "block requires 0 <= a <= b, got (a, 3)"),
    (lambda: block(True, 3), "block requires 0 <= a <= b, got (True, 3)"),
    (lambda: block(1, 2.0), "block requires 0 <= a <= b, got (1, 2.0)"),
    (lambda: bit_window(1.5), "value window must be an integer >= 0, got 1.5"),
    (lambda: bit_window(-5), "value window must be an integer >= 0, got -5"),
    (lambda: bit_window(True), "value window must be an integer >= 0, got True"),
    (lambda: list(sample_colourings(2, 3, 2, count=1.5)), "count must be an integer >= 0, got 1.5"),
    (lambda: list(sample_colourings(2, 3, 2, count=-1)), "count must be an integer >= 0, got -1"),
    (lambda: list(enumerate_colourings(2, 3, 2, budget="100")), "budget must be an integer >= 0, got '100'"),
    (lambda: list(enumerate_colourings(2, 3, 2, budget=100.0)), "budget must be an integer >= 0, got 100.0"),
    (lambda: list(enumerate_colourings(2, 3, 1, budget=True)), "budget must be an integer >= 0, got True"),
    (lambda: list(enumerate_colourings(2, 3, 1, budget=-1)), "budget must be an integer >= 0, got -1"),
    (lambda: finite_number(FiniteNumberQuery("RT", 1, 2, 3, 4), budget="100"),
     "budget must be an integer >= 0, got '100'"),
    (lambda: finite_number(FiniteNumberQuery("RT", 1, 2, 3, 4), budget=1.5), "budget must be an integer >= 0, got 1.5"),
    (lambda: finite_number(FiniteNumberQuery("RT", 1, 2, 3, 4), budget=True), "budget must be an integer >= 0, got True"),
])
def test_public_entry_points_refuse_malformed_numbers(call, message):
    with pytest.raises(PreconditionError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("entries, lift_points, from_zero, verdict", [
    ((301,), 600, 2, None),  # translates of (0, 301) cover [0, 299] and [301, 600]
    ((400,), 402, 2, None),
    ((300,), 601, 2, None),
    ((1,), 601, 2, None),
    (range(1, 601), 601, 601, "witness length 601 exceeds the supported maximum of 500"),
], ids=["301", "400", "300", "1", "1-600"])
def test_verify_counts_the_points_from_zero_before_the_witness_length(monkeypatch, entries, lift_points, from_zero,
                                                                       verdict):
    # at target 600 the witness has 601 elements, each sharing a tuple with 0: fewer points
    # from 0 hold none, whatever the lift's points, and 601 are refused by the 500-element limit
    monkeypatch.delenv("IRL_BUDGET", raising=False)
    instance = Colouring(1, 600, 2, "sets", {(k,): 1 for k in entries})
    assert len(forward_transform("RT_TO_ZRT", instance).points) == lift_points
    assert len(set().union(*REDUCTIONS["RT_TO_ZRT"].forward(instance, 600))) == from_zero
    if verdict is None:
        report = verify_reduction("RT_TO_ZRT", instance, 600)
        assert (report.witness, report.mapped, report.passed) == (None, None, None)
    else:
        with pytest.raises(PreconditionError) as info:
            verify_reduction("RT_TO_ZRT", instance, 600)
        assert str(info.value) == verdict


def test_verify_into_zrt_finds_the_least_witness_of_the_lift():
    # verify searches a lift from 0 without building it; the least witness of the
    # lift, by the checks' lift and search, must start at 0 and be the one it finds
    rng = random.Random(2323)
    checked = {}
    for dim in (1, 2, 3):
        for window in range(15):
            for _ in range(2):
                palette = rng.randint(1, 3)
                keep = rng.choice((0.3, 0.7, 1.0))
                # a difference table, some of its vectors totalling more than the window
                vectors = {v: rng.randrange(palette) for v in product(range(1, window + 1), repeat=dim)
                           if rng.random() < keep}
                sets = {tuple(accumulate(v)): colour for v, colour in vectors.items() if sum(v) <= window}
                # the forward map skips the sets that hold 0: {0} + s has n + 1 elements only when s[0] > 0
                sets.update({(0, *s[1:]): rng.randrange(palette) for s in list(sets)[:2] if s[0] > 1})
                for kind, mode, table in (("RT_TO_ZRT", "sets", sets), ("AHT_TO_ZRT", "vectors", vectors)):
                    instance = Colouring(dim, window, palette, mode, table)
                    lifted = checks.expected_forward(kind, dim, window, table)[3]
                    transformed = forward_transform(kind, instance)
                    assert transformed.table == lifted
                    for target in range(dim, 7):
                        length = target + REDUCTIONS[kind].extra
                        if length < max(dim + 1, REDUCTIONS[kind].min_len):
                            continue
                        witness = verify_reduction(kind, instance, target).witness
                        assert witness == checks.least_subset(lifted, window, dim + 1, length, palette), \
                            (kind, instance, target)
                        assert witness == find_mono_subset(transformed, length)
                        assert witness is None or witness[0] == 0
                        checked[kind, witness is None] = checked.get((kind, witness is None), 0) + 1
    # (kind, no witness) -> verdicts checked
    assert checked == {("RT_TO_ZRT", False): 154, ("RT_TO_ZRT", True): 296,
                       ("AHT_TO_ZRT", False): 147, ("AHT_TO_ZRT", True): 213}


LIFT_INSTANCES = {
    "RT_TO_ZRT": unary_colouring(12, lambda y: y % 2),
    "ZRT_TO_AHT": invariant_pairs(12, lambda z: z % 2),
    "AHT_TO_ZRT": vector_colouring(1, 12, lambda t: t[0] % 3, palette=3),
    "APAHT_TO_RT": block_instance(1, 6, lambda t: t[0] % 2),
}


@pytest.mark.parametrize("kind", KINDS)
def test_verify_builds_no_lift_where_forward_transform_is_refused(monkeypatch, kind):
    instance = LIFT_INSTANCES[kind]
    lifts = []
    monkeypatch.setattr("irl.reduce._lift_translates", lambda *args: lifts.append(args) or _lift_translates(*args))
    # verify builds no lift and charges none; forward_transform builds the lift and is charged for it
    monkeypatch.setenv("IRL_BUDGET", "2")
    report = verify_reduction(kind, instance, 3)
    assert report.witness is not None and lifts == []  # into ZRT, verify searches the pairs from 0
    if _SHAPES[REDUCTIONS[kind].target][1]:
        with pytest.raises(BudgetExceededError) as info:
            forward_transform(kind, instance)
        assert str(info.value) == "materializing 78 2-tuples over window 12 exceeds the budget of 2"
        assert len(lifts) == 1


def test_verify_does_not_depend_on_the_budget(monkeypatch):
    # verify charges no lift, so its reports are the same under a budget of 1, where
    # forward_transform into ZRT is still refused with its own message
    rng = random.Random(35)
    cases = [(kind, LIFT_INSTANCES[kind], 3) for kind in KINDS]
    for kind, maker, dim, window, palette, target in VERIFY_SHAPES:
        mode, w, table = golden_instance(rng, maker, dim, window, palette)
        cases.append((kind, Colouring(dim, w, palette, mode, table), target))
    monkeypatch.delenv("IRL_BUDGET", raising=False)
    expected = [verify_reduction(*case).to_json_dict() for case in cases]
    monkeypatch.setenv("IRL_BUDGET", "1")
    assert [verify_reduction(*case).to_json_dict() for case in cases] == expected
    # each refusal names the exact size of the lift's domain, C(window + 1, dim + 1), whatever the budget
    sizes = iter([78, 78, 55, 78, 84, 165, 4, 105, 105, 286, 165])
    refused = 0
    for kind, instance, _ in cases:
        if _SHAPES[REDUCTIONS[kind].target][1]:
            with pytest.raises(BudgetExceededError) as info:
                forward_transform(kind, instance)
            dim, window, size = instance.dim + 1, instance.window, next(sizes)
            assert str(info.value) == f"materializing {size} {dim}-tuples over window {window} exceeds the budget of 1"
            assert info.value.count == size
            refused += 1
    assert refused == 2 + 9


@pytest.mark.parametrize("kind, instance, target, message", [
    ("RT_TO_ZRT", Colouring(2, 6, 2, "sets", {(1, 2): 0}), 1, "RT_TO_ZRT needs target >= 2 on a dim-2 instance, got 1"),
    ("RT_TO_ZRT", Colouring(3, 6, 2, "sets", {}), 2, "RT_TO_ZRT needs target >= 3 on a dim-3 instance, got 2"),
    ("APAHT_TO_RT", block_instance(3, 6, lambda t: 0), 2, "APAHT_TO_RT needs target >= 3 on a dim-3 instance, got 2"),
    ("AHT_TO_ZRT", vector_colouring(2, 6, lambda t: 0), 2, "AHT_TO_ZRT needs target >= 3 on a dim-2 instance, got 2"),
])
def test_verify_refuses_a_target_below_the_arity(kind, instance, target, message):
    # the refusal names the target and the instance's dim, not the witness length the search sees
    with pytest.raises(PreconditionError) as info:
        verify_reduction(kind, instance, target)
    assert str(info.value) == message
    assert verify_reduction(kind, instance, target + 1).target == target + 1
