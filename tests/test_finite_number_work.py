"""The finite-number search's work, pinned per size for the benchmark's queries.

For each of the 11 pinned finite-number queries of perfbench's
finite-numbers workload, ``finite_number_work.json`` holds the answer
and, for each size searched: the DFS nodes, the distinct constraints
handed to the kernel (the sum of its bucket sizes) and the budget units
of the candidate walk.  The counts are read by wrapping the two private
kernels, so neither the package nor the benchmark changes, and none of
them depends on timing or hash order.  A change that moves the search's
work shows here as a count diff, even when every answer holds.  Like
the other golden files, its pins were written once and are not rewritten
to make a test pass.

The kernel itself, ``_least_witness_free``, is checked against a
brute-force reference on random bucket sets: its answer, its node count
and the refusal one unit short of that count.
"""

import json
import random
from pathlib import Path

import pytest

from irl import search
from irl.errors import BudgetExceededError

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
    candidates, kernel = search._candidate_witnesses, search._least_witness_free

    def counted_candidates(principle, dim, m, window):
        size = window + 1 if search._SHAPES[principle][0] == "sets" else window
        sizes.append({"size": size, "nodes": 0, "constraints": 0, "units": 0})
        for candidate, tuples, unit in candidates(principle, dim, m, window):
            sizes[-1]["units"] += unit
            yield candidate, tuples, unit

    def counted_kernel(buckets, palette, spent, limit):
        assignment, after = kernel(buckets, palette, spent, limit)
        sizes[-1]["nodes"] = after - spent
        sizes[-1]["constraints"] = sum(map(len, buckets))
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
    rng = random.Random(11)
    for draw in range(600):
        n, palette = rng.randint(1, 7), rng.randint(1, 3)
        buckets = [{} for _ in range(n)]  # filed under their largest index, as finite_number files them
        for _ in range(rng.randint(0, 8)):
            mask = sum(1 << j for j in rng.sample(range(n), rng.randint(1, min(3, n))))
            last = mask.bit_length() - 1
            buckets[last][mask ^ (1 << last)] = None
        answer, nodes = reference(buckets, palette)
        assert search._least_witness_free(buckets, palette, 0, nodes) == (answer, nodes), draw
        with pytest.raises(BudgetExceededError) as info:
            search._least_witness_free(buckets, palette, 0, nodes - 1)
        assert info.value.count == nodes, draw
