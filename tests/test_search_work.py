"""The witness searches' work, pinned per search as table lookups.

``search_work.json`` holds, for each search below, its witness and the
number of table lookups it made:

- seeded instances shaped like the benchmark's search-oracle ones, two
  colours on every tuple of sets at dim 2, window 30 and of vectors at
  dim 2, window 100, each searched as that workload searches them, plus
  a fixed-colour adjacent-sum search;
- the one search that each reduction verify of ``test_golden_cli.py``'s
  ``VERIFY_SHAPES`` runs on its transformed instance.

Lookups are counted by a table whose ``get`` counts, on a fresh
``Colouring`` per search, so no cached subset mask is reused.  Neither
the package nor the benchmark changes, and no count depends on timing or
hash order.  A change that moves a search's work shows here as a count
diff, even when every witness holds.  Like the other golden files, its
pins were written once and are not rewritten to make a test pass.
"""

import json
import random
from dataclasses import replace
from itertools import combinations
from pathlib import Path

from irl import reduce
from irl.colouring import Colouring
from irl.search import find_afs_mono, find_mono_subset
from test_golden_cli import VERIFY_SHAPES, _instance

GOLDEN = Path(__file__).with_name("golden") / "search_work.json"
SEED = 32
INSTANCES = 4  # of each mode
SUBSET_SEARCHES = {"plain m5": (5, False), "plain m6": (6, False), "plain m8": (8, False),
                   "separated m4": (4, True), "separated m5": (5, True)}
AFS_SEARCHES = {"plain m3": (3, False, None), "plain m4": (4, False, None), "plain m6": (6, False, None),
                "apart m3": (3, True, None), "apart m5": (5, True, None), "colour 1 m4": (4, False, 1)}


class CountingTable(dict):
    """A colouring table whose ``get`` counts its calls."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return dict.get(self, key, default)


def counted(search, c, *args, **kwargs):
    """(witness, {"witness", "lookups"}) of ``search`` on a fresh copy of ``c`` over a counting table."""
    table = CountingTable(c.table)
    witness = search(replace(c, table=table), *args, **kwargs)
    return witness, {"witness": None if witness is None else list(witness), "lookups": table.lookups}


def search_oracle_work():
    rng = random.Random(SEED)
    out = {}
    for _ in range(INSTANCES):
        sets = Colouring(2, 30, 2, "sets", {t: rng.randrange(2) for t in combinations(range(31), 2)})
        for name, (m, separated) in SUBSET_SEARCHES.items():
            out.setdefault(f"find_mono_subset {name}", []).append(
                counted(find_mono_subset, sets, m, separated=separated)[1])
    for _ in range(INSTANCES):
        vectors = Colouring(2, 100, 2, "vectors",
                            {(a, b): rng.randrange(2) for a in range(1, 100) for b in range(1, 101 - a)})
        for name, (m, apart, colour) in AFS_SEARCHES.items():
            out.setdefault(f"find_afs_mono {name}", []).append(
                counted(find_afs_mono, vectors, m, apart=apart, colour=colour)[1])
    return out


def verify_work(monkeypatch):
    found = []
    for name in ("find_mono_subset", "_find_mono_from_zero", "find_afs_mono"):
        def wrapped(c, m, search=getattr(reduce, name), name=name):
            witness, work = counted(search, c, m)
            found.append({"search": name, **work})
            return witness
        monkeypatch.setattr(reduce, name, wrapped)
    rng = random.Random(SEED)
    out = {}
    for kind, maker, dim, window, palette, target in VERIFY_SHAPES:
        mode, w, table = _instance(rng, maker, dim, window, palette)
        reduce.verify_reduction(kind, Colouring(dim, w, palette, mode, table), target)
        out[f"verify {kind} {maker} d{dim} w{window} k{palette} m{target}"] = found.pop()
    assert found == []
    return out


def test_search_work_matches_its_pins(monkeypatch):
    assert {**search_oracle_work(), **verify_work(monkeypatch)} == json.loads(GOLDEN.read_text())
