"""The finite-number search's work, pinned per size for the benchmark's queries.

For each of the 11 pinned finite-number queries of perfbench's
finite-numbers workload, ``finite_number_work.json`` holds the answer
and, for each size searched: the DFS nodes, the distinct constraints
handed to the kernel (the sum of its bucket sizes) and the budget units
of the candidates that fit the size.  The counts are read by wrapping the
walk and the kernel, so neither the package nor the benchmark changes,
and none of them depends on timing or hash order.  A size's units are
read from its charge, the budget spent when its kernel starts less the
budget spent when the size before ended and the size's own unit, so they
count again the candidates that an earlier size walked.  A change that
moves the search's work shows here as a count diff, even when every
answer holds.  Like the other golden files, its pins were written once
and are not rewritten to make a test pass.

The kernel itself, ``_least_witness_free``, is checked against a
brute-force reference on random bucket sets, with each index at its own
bit and again at a permuted one: its answer, its node count and the
refusal one unit short of that count.
"""

import json
import random
from itertools import combinations
from pathlib import Path

import pytest

from by_path import load
from irl import search
from irl.errors import BudgetExceededError

checks = load("perfbench/checks.py")
GOLDEN = Path(__file__).with_name("golden") / "finite_number_work.json"
QUERIES = [  # (principle, dim, k, m, cap), as perfbench/workloads.py FINITE_QUERIES lists them
    ("RT", 1, 2, 3, 12),
    ("RT", 1, 2, 4, 12),
    ("RT", 1, 3, 3, 12),
    ("AHT", 1, 1, 3, 12),
    ("AHT", 1, 1, 4, 12),
    ("AHT", 1, 2, 2, 12),
    ("APAHT", 1, 1, 3, 12),
    ("ZRT", 2, 2, 3, 12),
    ("SEPZRT", 2, 2, 3, 12),
    ("RT", 2, 2, 3, 12),
    ("ZRT", 2, 3, 3, 11),
]


def work(monkeypatch, query):
    """(answer, [{"size", "nodes", "constraints", "units"} for each size searched])."""
    sizes = []
    ended = [0]  # the budget spent when the last kernel returned
    candidates, kernel = search._candidate_witnesses, search._least_witness_free

    def counted_candidates(principle, dim, m, window):
        size = window + 1 if search._SHAPES[principle][0] == "sets" else window
        sizes.append({"size": size, "nodes": 0, "constraints": 0, "units": 0})
        return candidates(principle, dim, m, window)

    def counted_kernel(buckets, bits, palette, spent, limit):
        assignment, after = kernel(buckets, bits, palette, spent, limit)
        sizes[-1]["nodes"] = after - spent
        sizes[-1]["constraints"] = sum(map(len, buckets))
        sizes[-1]["units"] = spent - ended[0] - 1  # the size's own unit is not a candidate's
        ended[0] = after
        return assignment, after

    monkeypatch.setattr(search, "_candidate_witnesses", counted_candidates)
    monkeypatch.setattr(search, "_least_witness_free", counted_kernel)
    result = search.finite_number(search.FiniteNumberQuery(*query))
    answer = {"N": result.value, "witness": None if result.witness is None else list(result.witness)}
    return answer, sizes


def label(query):
    return " ".join(map(str, query))


@pytest.mark.parametrize("query", QUERIES, ids=label)
def test_finite_number_work_matches_its_pins(monkeypatch, query):
    answer, sizes = work(monkeypatch, query)
    assert {"answer": answer, "sizes": sizes} == json.loads(GOLDEN.read_text())[label(query)]


def test_work_pins_cover_the_benchmark_queries():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(map(label, QUERIES))


def fitting_candidates(principle, m, window):
    """The candidate witnesses that fit a window, from the definitions: RT's m-subsets of [0, window], those
    from 0 (ZRT) with apart gaps (SEPZRT), and AHT's increasing positive m-sequences of total at most window,
    apart ones (APAHT)."""
    mode, invariant, apart = search._SHAPES[principle]
    if mode == "sets":
        return {s for s in combinations(range(window + 1), m)
                if (not invariant or s[0] == 0) and (not apart or checks.apart(checks.diffs(s)))}
    return {s for s in combinations(range(1, window + 1), m) if sum(s) <= window and (not apart or checks.apart(s))}


def test_each_candidate_is_walked_once(monkeypatch):
    # a candidate that fits a size fits every later one, so a query walks each candidate once, where it first
    # fits: the walks of all its sizes together yield the candidates of its last size, each once
    candidates = search._candidate_witnesses
    walked_in_all = 0
    for query in QUERIES:
        walked, windows = [], []

        def recorded(principle, dim, m, window):
            windows.append(window)
            for candidate, tuples, unit in candidates(principle, dim, m, window):
                walked.append(candidate)
                yield candidate, tuples, unit

        monkeypatch.setattr(search, "_candidate_witnesses", recorded)
        search.finite_number(search.FiniteNumberQuery(*query))
        principle, _, _, m, _ = query
        assert len(set(walked)) == len(walked), query
        assert set(walked) == fitting_candidates(principle, m, windows[-1]), query
        walked_in_all += len(walked)
    assert walked_in_all == 183  # the walks that rebuilt each size from scratch yielded 453


def first_use(n, palette):
    """Every colour sequence of length n in which each colour is at most one above the largest before it, in order."""
    def extend(prefix, top):
        if len(prefix) == n:
            yield prefix
            return
        for colour in range(min(palette - 1, top + 1) + 1):
            yield from extend(prefix + (colour,), max(top, colour))
    return extend((), -1)


def reference(buckets, palette):
    """(least witness-free first-use assignment or None, DFS nodes), by enumerating first-use sequences."""
    n = len(buckets)
    candidates = [(i, [j for j in range(n) if rest >> j & 1]) for i, bucket in enumerate(buckets) for rest in bucket]

    def clash(prefix):  # a candidate within the prefix is monochromatic
        return any(i < len(prefix) and all(prefix[j] == prefix[i] for j in others) for i, others in candidates)

    answer = next((a for a in first_use(n, palette) if not clash(a)), None)
    # a node is a colour tried at index len(p) - 1: its proper prefix is clash-free, and
    # the search reaches it before it stops at the answer's prefix of the same length
    nodes = sum(not clash(p[:-1]) and (answer is None or p <= answer[:len(p)])
                for length in range(1, n + 1) for p in first_use(length, palette))
    return (None if answer is None else list(answer)), nodes


def test_kernel_matches_a_brute_force_reference():
    # the reference reads bit j as index j; the kernel gets the same buckets with index j at bit bits[j],
    # once with bits[j] = j and once with the bits permuted, as finite_number numbers them by first appearance
    rng, shuffler = random.Random(11), random.Random(12)
    for draw in range(600):
        n, palette = rng.randint(1, 7), rng.randint(1, 3)
        buckets = [{} for _ in range(n)]  # filed under their largest index, as finite_number files them
        for _ in range(rng.randint(0, 8)):
            mask = sum(1 << j for j in rng.sample(range(n), rng.randint(1, min(3, n))))
            last = mask.bit_length() - 1
            buckets[last][mask ^ (1 << last)] = None
        answer, nodes = reference(buckets, palette)
        for bits in (list(range(n)), shuffler.sample(range(n), n)):
            relabelled = [dict.fromkeys(sum(1 << bits[j] for j in range(n) if rest >> j & 1) for rest in bucket)
                          for bucket in buckets]
            where = draw, bits
            assert search._least_witness_free(relabelled, bits, palette, 0, nodes) == (answer, nodes), where
            with pytest.raises(BudgetExceededError) as info:
                search._least_witness_free(relabelled, bits, palette, 0, nodes - 1)
            assert info.value.count == nodes, where
