"""CLI stdout pinned byte for byte over seeded inputs.

The pinned file was written once, by an earlier version of the package,
from the cases below.  Outputs longer than ``INLINE_LIMIT`` bytes are
pinned by their SHA-256 and length.  Pins are only ever added, never
rewritten to make a test pass.
"""

import csv
import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from itertools import product
from pathlib import Path

from by_path import load
from irl.cli import main
from irl.search import sweep_finite_numbers

checks = load("perfbench/checks.py")

KINDS = ("RT_TO_ZRT", "ZRT_TO_AHT", "AHT_TO_ZRT", "APAHT_TO_RT")

GOLDEN = Path(__file__).with_name("golden") / "cli_stdout.json"
SWEEP_CSV = GOLDEN.parent / "finite_number_sweep_cap12.csv"
INLINE_LIMIT = 1024
SEED = 20240
REPLICAS = 2

# (kind, maker, dim, window, palette, target): the reduction acceptance shapes
VERIFY_SHAPES = [
    ("RT_TO_ZRT", "sets", 1, 10, 2, 3),
    ("RT_TO_ZRT", "sets", 1, 12, 3, 3),
    ("RT_TO_ZRT", "sets", 2, 8, 2, 3),
    ("RT_TO_ZRT", "sets", 2, 10, 3, 3),
    ("RT_TO_ZRT", "sets", 2, 3, 2, 4),  # too small a window: null verdict
    ("ZRT_TO_AHT", "invariant", 2, 14, 2, 3),
    ("ZRT_TO_AHT", "invariant", 2, 14, 3, 3),
    ("ZRT_TO_AHT", "invariant", 3, 12, 2, 3),
    ("ZRT_TO_AHT", "invariant", 3, 10, 3, 3),
    ("AHT_TO_ZRT", "vectors", 1, 14, 2, 4),
    ("AHT_TO_ZRT", "vectors", 1, 14, 3, 4),
    ("AHT_TO_ZRT", "vectors", 2, 12, 2, 4),
    ("AHT_TO_ZRT", "vectors", 2, 10, 3, 4),
    ("APAHT_TO_RT", "blocks", 1, 12, 2, 2),
    ("APAHT_TO_RT", "blocks", 2, 10, 2, 3),
    ("APAHT_TO_RT", "blocks", 2, 12, 3, 3),
]
FORWARD_SHAPES = [  # (kind, maker, dim, window, palette)
    ("RT_TO_ZRT", "sets", 1, 12, 2),
    ("RT_TO_ZRT", "sets", 2, 14, 2),
    ("RT_TO_ZRT", "sets", 3, 14, 3),
    ("ZRT_TO_AHT", "invariant", 2, 12, 3),
    ("ZRT_TO_AHT", "invariant", 3, 12, 2),
    ("AHT_TO_ZRT", "vectors", 1, 12, 2),
    ("AHT_TO_ZRT", "vectors", 2, 12, 3),
    ("APAHT_TO_RT", "blocks", 1, 10, 3),
    ("APAHT_TO_RT", "blocks", 2, 12, 2),
]
SEARCH_SHAPES = [  # (maker, dim, window, palette, m)
    ("sets", 1, 14, 2, 4),
    ("sets", 2, 14, 2, 4),
    ("sets", 3, 12, 2, 4),
    ("vectors", 1, 14, 3, 3),
    ("vectors", 2, 14, 2, 3),
]
# Inputs with one or more faults for some kinds; their pins fix which error wins.
ERROR_SHAPES = [  # (maker, dim, window, palette, label)
    ("sets", 1, 6, 2, "sets-d1"),
    ("sets", 2, 6, 3, "noninvariant-d2"),
    ("vectors", 1, 6, 2, "vectors-d1"),
]
BACKWARD_SOLUTIONS = ["[]", "[3]", "[3,1]", "[-1,2]", "[0,1,3]"]
# (principle, dim, k, m, cap): the benchmark's finite-number queries (SEPZRT
# and ZRT d2k3 exceed their caps), then one more query per principle whose cap
# is exceeded, so a counterexample of every principle is pinned
FINITE_QUERIES = [
    ("RT", 1, 2, 3, 12), ("RT", 1, 2, 4, 12), ("RT", 1, 3, 3, 12), ("AHT", 1, 1, 3, 12),
    ("AHT", 1, 1, 4, 12), ("AHT", 1, 2, 2, 12), ("APAHT", 1, 1, 3, 12), ("ZRT", 2, 2, 3, 12),
    ("SEPZRT", 2, 2, 3, 12), ("RT", 2, 2, 3, 12), ("ZRT", 2, 3, 3, 11),
    ("RT", 1, 2, 3, 4), ("AHT", 1, 2, 2, 8), ("APAHT", 1, 2, 2, 5),
    # SEPZRT's counterexample at cap 31 is a lifted difference table; 32 is a
    # regression value; AHT d1 k3 m2 is the weak Schur number WS(3) + 1 = 24
    ("SEPZRT", 2, 2, 3, 31), ("SEPZRT", 2, 2, 3, 40), ("AHT", 1, 3, 2, 30),
]
# (maker, dim, window, palette, keep): partial instances for the translation
# lifts; vectors coordinates run over [1, window], so some totals exceed it
PARTIAL_SHAPES = [
    ("sets", 1, 9, 2, 0.6),
    ("sets", 2, 8, 3, 0.5),
    ("sets", 3, 9, 2, 0.3),
    ("vectors", 1, 9, 2, 0.6),
    ("vectors", 2, 7, 2, 0.5),
    ("vectors", 3, 5, 3, 0.4),
]
SPARSE_DIFFERENCES = [  # (dim, table window, lift window, palette, keep)
    (1, 4, 15, 2, 0.5),
    (2, 6, 14, 3, 0.3),
    (3, 5, 12, 2, 0.4),
]


def _instance(rng, maker, dim, window, palette):
    """(mode, window, table) of a seeded instance; ``window`` counts bit positions for blocks."""
    if maker == "sets":
        return "sets", window, {t: rng.randrange(palette) for t in checks.sets_tuples(dim, window)}
    if maker == "invariant":
        differences = {v: rng.randrange(palette) for v in checks.vector_tuples(dim - 1, window)}
        return "sets", window, checks.expected_forward("AHT_TO_ZRT", dim - 1, window, differences)[3]
    if maker == "vectors":
        return "vectors", window, {v: rng.randrange(palette) for v in checks.vector_tuples(dim, window)}
    table = {tuple(2 ** t[i + 1] - 2 ** t[i] for i in range(dim)): rng.randrange(palette)
             for t in checks.sets_tuples(dim + 1, window)}
    return "vectors", 2 ** window - 1, table


def _payload(dim, window, palette, mode, table):
    return {"dim": dim, "window": window, "palette": palette, "mode": mode,
            "entries": [[list(t), table[t]] for t in sorted(table)]}


def cases(directory):
    """[(case id, argv)] over input files written into ``directory``."""
    rng = random.Random(SEED)
    out = []

    def add(name, data, argv):
        path = Path(directory) / f"{name}.json"
        path.write_text(json.dumps(data))
        out.append((name, [argv[0], "--input", str(path), *argv[1:]]))

    for r in range(REPLICAS):
        for kind, maker, dim, window, palette, target in VERIFY_SHAPES:
            mode, w, table = _instance(rng, maker, dim, window, palette)
            add(f"verify-{kind}-d{dim}w{window}k{palette}m{target}-{r}",
                _payload(dim, w, palette, mode, table),
                ["reduce", "--kind", kind, "--m", str(target)])
        for kind, maker, dim, window, palette in FORWARD_SHAPES:
            mode, w, table = _instance(rng, maker, dim, window, palette)
            add(f"forward-{kind}-d{dim}w{window}k{palette}-{r}",
                _payload(dim, w, palette, mode, table),
                ["reduce", "--kind", kind, "--op", "forward"])
        for maker, dim, window, palette, m in SEARCH_SHAPES:
            mode, w, table = _instance(rng, maker, dim, window, palette)
            add(f"search-{maker}-d{dim}w{window}k{palette}m{m}-{r}",
                _payload(dim, w, palette, mode, table), ["search", "--m", str(m)])
        for maker, dim in (("invariant", 3), ("sets", 2)):
            mode, w, table = _instance(rng, maker, dim, 12, 3)
            add(f"check-invariance-{maker}-d{dim}-{r}", _payload(dim, w, 3, mode, table),
                ["check-invariance"])
        mode, w, table = _instance(rng, "invariant", 3, 12, 2)
        add(f"to-differences-{r}", _payload(3, w, 2, mode, table), ["to-differences"])
        _, _, differences = _instance(rng, "vectors", 2, 12, 2)
        add(f"from-differences-{r}", _payload(2, 12, 2, "differences", differences),
            ["from-differences", "--window", "14"])
    # drawn from a second generator, so the cases above keep their inputs
    rng = random.Random(SEED + 1)
    for maker, dim, window, palette, label in ERROR_SHAPES:
        mode, w, table = _instance(rng, maker, dim, window, palette)
        data = _payload(dim, w, palette, mode, table)
        for kind in KINDS:
            add(f"reduce-forward-{kind}-{label}", data, ["reduce", "--kind", kind, "--op", "forward"])
            for target in (1, 2, 3):
                add(f"reduce-verify-{kind}-{label}-m{target}", data,
                    ["reduce", "--kind", kind, "--m", str(target)])
    for kind in KINDS:
        for solution in BACKWARD_SOLUTIONS:
            out.append((f"reduce-backward-{kind}-{solution}",
                        ["reduce", "--kind", kind, "--op", "backward", "--solution", solution]))
    out.append(("reduce-backward-unknown-kind",
                ["reduce", "--kind", "NOPE", "--op", "backward", "--solution", "[]"]))
    data = _payload(1, 6, 2, "sets", {(x,): x % 2 for x in range(7)})
    add("reduce-forward-unknown-kind", data, ["reduce", "--kind", "NOPE", "--op", "forward"])
    add("reduce-verify-unknown-kind", data, ["reduce", "--kind", "NOPE", "--m", "0"])
    # a third generator for the partial-instance cases
    rng = random.Random(SEED + 2)
    for maker, dim, window, palette, keep in PARTIAL_SHAPES:
        if maker == "sets":
            domain = checks.sets_tuples(dim, window)
        else:
            domain = list(product(range(1, window + 1), repeat=dim))
        table = {t: rng.randrange(palette) for t in domain if rng.random() < keep}
        data = _payload(dim, window, palette, maker, table)
        kind = "RT_TO_ZRT" if maker == "sets" else "AHT_TO_ZRT"
        label = f"{kind}-d{dim}w{window}k{palette}"
        add(f"partial-forward-{label}", data, ["reduce", "--kind", kind, "--op", "forward"])
        for target in (dim + 1, dim + 2):
            add(f"partial-verify-{label}-m{target}", data, ["reduce", "--kind", kind, "--m", str(target)])
    for dim, window, lift, palette, keep in SPARSE_DIFFERENCES:
        table = {v: rng.randrange(palette) for v in checks.vector_tuples(dim, window) if rng.random() < keep}
        add(f"sparse-from-differences-d{dim}w{window}-to{lift}",
            _payload(dim, window, palette, "differences", table),
            ["from-differences", "--window", str(lift)])
    for query in FINITE_QUERIES:
        principle, dim, k, m, cap = map(str, query)
        argv = ["finite-number", "--principle", principle, "--dim", dim, "--k", k, "--m", m,
                "--cap", cap]
        for fmt in ("json", "csv"):
            out.append((f"finite-number-{principle}-d{dim}k{k}m{m}cap{cap}-{fmt}",
                        argv + ["--format", fmt]))
    return out


def run(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def pin(text):
    """The pinned form of one stdout: the text itself, or its digest and length."""
    if len(text.encode()) <= INLINE_LIMIT:
        return text
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(), "bytes": len(text.encode())}


def test_golden_stdout(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    seen = []
    for name, argv in cases(tmp_path):
        code, text = run(argv)
        assert code == (1 if text.startswith('{"error"') else 0), (name, text)
        assert pin(text) == golden[name], name
        seen.append(name)
    assert sorted(seen) == sorted(golden)


def test_finite_number_sweep_matches_pinned_csv():
    buffer = io.StringIO()
    sweep_finite_numbers(load("scripts/finite_number_sweep.py").default_queries(12), buffer)
    assert buffer.getvalue().encode() == SWEEP_CSV.read_bytes()  # byte for byte: rows end in \r\n


# rows whose finite number has no published or elementary value to check it by
NO_INDEPENDENT_VALUE = {("ZRT", 2, 2, 2), ("SEPZRT", 2, 1, 3)}


def test_finite_number_sweep_rows_pass_the_independent_check():
    verdicts = {}
    witnesses = 0
    for row in csv.DictReader(io.StringIO(SWEEP_CSV.read_text())):
        query = (row["principle"], int(row["dim"]), int(row["k"]), int(row["m"]))
        shown = json.loads(row["witness_or_counterexample"])
        if row["N"] == "exceeds cap":
            value, witness = None, None
            counterexample = (shown["dim"], shown["window"], shown["palette"], shown["mode"], checks.table_of(shown))
        else:
            value, witness, counterexample = int(row["N"]), shown, None
            # every value row, with a closed form or not: the least witness of the constant colouring at N
            principle, dim, _, m = query
            sets_mode = principle in ("RT", "ZRT", "SEPZRT")
            window = value - 1 if sets_mode else value
            domain = checks.sets_tuples(dim, window) if sets_mode else checks.vector_tuples(dim, window)
            least = checks._least_witness(principle, dict.fromkeys(domain, 0), dim, m, window, 1)
            assert tuple(witness) == least, (query, witness, least)
            witnesses += 1
        verdicts[query] = checks.check_finite_number(*query, 12, value, witness, counterexample)
    assert len(verdicts) == 14 and witnesses == 13
    assert verdicts == {query: "no independent value to compare against" if query in NO_INDEPENDENT_VALUE else None
                        for query in verdicts}
