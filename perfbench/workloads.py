"""The three workloads: seeded inputs, the op sequence of one cycle, and the checks.

``build(name, seed, mods, workdir)`` returns the list of ops of one cycle.
Every input is drawn from ``random.Random(seed)`` at fixed shapes, so the
seed changes colours, oracles and op order but not the amount of work.
An op is a callable that reaches the package only through module
attributes (``mods.search.find_mono_subset(...)``), so tracing wrappers
installed on those attributes see every call.  Its check runs once, on the
op's first result, outside the timed region.
"""

import io
import json
import os
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Callable

import checks

WORKLOADS = ("cli-mix", "finite-numbers", "search-oracle")


@dataclass
class Op:
    kind: str
    fn: Callable
    check: Callable  # first result -> None or a one-line reason
    refused_size: Callable = lambda count: None  # candidate count -> size reached


# -- seeded tables (plain dicts, built without the package) ------------------


def random_sets(rng, dim, window, palette):
    return {t: rng.randrange(palette) for t in checks.sets_tuples(dim, window)}


def random_vectors(rng, dim, window, palette):
    return {t: rng.randrange(palette) for t in checks.vector_tuples(dim, window)}


def lift(differences, dim, window):
    """The shift-invariant sets colouring of arity ``dim`` with these difference colours."""
    out = {}
    for t in checks.sets_tuples(dim, window):
        colour = differences.get(checks.diffs(t))
        if colour is not None:
            out[t] = colour
    return out


def random_invariant(rng, dim, window, palette):
    # a difference table is a vectors-mode table
    return lift(random_vectors(rng, dim - 1, window, palette), dim, window)


def random_blocks(rng, n, positions, palette):
    """A vectors instance on bit-block values, as in the apartness criterion."""
    table = {}
    for t in checks.sets_tuples(n + 1, positions):
        table[tuple(2 ** t[i + 1] - 2 ** t[i] for i in range(n))] = rng.randrange(palette)
    return table, 2 ** positions - 1


def random_events(rng, elements, max_count, max_stage):
    chosen = rng.sample(range(elements), rng.randint(0, max_count))
    return tuple((e, rng.randint(0, max_stage)) for e in chosen)


def payload(dim, window, palette, mode, table):
    return {"dim": dim, "window": window, "palette": palette, "mode": mode,
            "entries": [[list(t), table[t]] for t in sorted(table)]}


# -- cli-mix -----------------------------------------------------------------

# (kind, instance maker, dim, window, palette, target); criterion 2/3/5 shapes
VERIFY_SHAPES = [
    ("RT_TO_ZRT", "sets", 1, 10, 2, 3),
    ("RT_TO_ZRT", "sets", 1, 12, 3, 3),
    ("RT_TO_ZRT", "sets", 2, 8, 2, 3),
    ("RT_TO_ZRT", "sets", 2, 10, 3, 3),
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
FORWARD_SHAPES = [
    ("RT_TO_ZRT", "sets", 2, 14, 2),
    ("RT_TO_ZRT", "sets", 3, 14, 3),  # the largest write: 1365 entries out
    ("ZRT_TO_AHT", "invariant", 3, 12, 2),
    ("AHT_TO_ZRT", "vectors", 2, 12, 3),
    ("APAHT_TO_RT", "blocks", 2, 12, 2),
]
SEARCH_SHAPES = [  # (maker, dim, window, palette, m)
    ("sets", 2, 14, 2, 4),
    ("sets", 3, 12, 2, 4),
    ("vectors", 2, 14, 2, 3),
    ("vectors", 1, 14, 3, 3),
]
CLI_REPLICAS = 5


def _instance(rng, maker, dim, window, palette):
    """(mode, dim, window, table) of a seeded instance; ``window`` is positions for blocks."""
    if maker == "sets":
        return "sets", window, random_sets(rng, dim, window, palette)
    if maker == "invariant":
        return "sets", window, random_invariant(rng, dim, window, palette)
    if maker == "vectors":
        return "vectors", window, random_vectors(rng, dim, window, palette)
    table, value_window = random_blocks(rng, dim, window, palette)
    return "vectors", value_window, table


def run_cli(cli, argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects before main's own handler
            code = exc.code
    return code, buffer.getvalue()


def _cli_output(result):
    code, text = result
    if code != 0 or text.count("\n") != 1:
        return None, f"exit {code}: {text.strip()[:200]}"
    return text, None


def _cli_op(mods, kind, argv, check_text):
    def check(result):
        text, error = _cli_output(result)
        return error if error else check_text(text)

    return Op(kind, lambda: run_cli(mods.cli, argv), check)


def build_cli_mix(seed, mods, workdir):
    rng = random.Random(seed)
    ops = []
    counter = iter(range(10**6))

    def write(data):
        path = os.path.join(workdir, f"in{next(counter)}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        return path

    for _ in range(CLI_REPLICAS):
        for kind, maker, dim, window, palette, target in VERIFY_SHAPES:
            mode, w, table = _instance(rng, maker, dim, window, palette)
            path = write(payload(dim, w, palette, mode, table))

            def check_verify(text, kind=kind, dim=dim, w=w, table=table, target=target):
                report = json.loads(text)
                if (report["kind"], report["window"], report["target"]) != (kind, w, target):
                    return "report header does not echo the request"
                return checks.check_verify(kind, dim, table, target, report)

            argv = ["reduce", "--kind", kind, "--input", path, "--m", str(target)]
            ops.append(_cli_op(mods, f"reduce.verify.{kind}", argv, check_verify))

        for kind, maker, dim, window, palette in FORWARD_SHAPES:
            mode, w, table = _instance(rng, maker, dim, window, palette)
            path = write(payload(dim, w, palette, mode, table))
            argv = ["reduce", "--kind", kind, "--op", "forward", "--input", path]
            ops.append(_cli_op(mods, f"reduce.forward.{kind}", argv,
                               lambda text, k=kind, d=dim, w=w, t=table: checks.check_colouring_json(
                                   text, *checks.expected_forward(k, d, w, t))))

        for maker, dim, window, palette, m in SEARCH_SHAPES:
            mode, w, table = _instance(rng, maker, dim, window, palette)
            path = write(payload(dim, w, palette, mode, table))

            def check_search(text, mode=mode, dim=dim, w=w, palette=palette, m=m, table=table):
                got = json.loads(text)
                if mode == "sets":
                    least = checks.least_subset(table, w, dim, m, palette)
                else:
                    least = checks.least_run_sequence(table, dim, m, w, palette)
                witness = None if got["witness"] is None else tuple(got["witness"])
                if witness != least:
                    return f"witness {got['witness']}, independent search found {least}"
                if least is not None:
                    tuples = combinations(least, dim) if mode == "sets" else checks.run_tuples(least, dim)
                    if checks.mono_colour(table, tuples) != got["colour"]:
                        return f"colour {got['colour']} is not the witness colour"
                return None

            argv = ["search", "--input", path, "--m", str(m)]
            ops.append(_cli_op(mods, f"search.{mode}", argv, check_search))

        for maker in ("invariant", "sets"):
            mode, w, table = _instance(rng, maker, 3 if maker == "invariant" else 2, 12, 3)
            dim = 3 if maker == "invariant" else 2
            path = write(payload(dim, w, 3, mode, table))

            def check_invariance(text, table=table):
                clash = checks.invariance_clash(table)
                expected = {"invariant": True} if clash is None else {
                    "invariant": False,
                    "witness": [[list(t), table[t]] for t in clash],
                }
                return None if json.loads(text) == expected else f"expected {expected}"

            ops.append(_cli_op(mods, "check-invariance", ["check-invariance", "--input", path],
                               check_invariance))

        differences = random_vectors(rng, 2, 12, 2)
        table = lift(differences, 3, 12)
        path = write(payload(3, 12, 2, "sets", table))
        ops.append(_cli_op(mods, "to-differences", ["to-differences", "--input", path],
                           lambda text, d=differences: checks.check_colouring_json(
                               text, 2, 12, "differences", d)))

        differences = random_vectors(rng, 2, 12, 2)
        path = write(payload(2, 12, 2, "differences", differences))
        ops.append(_cli_op(mods, "from-differences",
                           ["from-differences", "--input", path, "--window", "14"],
                           lambda text, d=differences: checks.check_colouring_json(
                               text, 3, 14, "sets", lift(d, 3, 14))))
    rng.shuffle(ops)
    return ops


# -- finite-numbers ----------------------------------------------------------

# ((principle, dim, k, m, cap), runs per cycle): the pinned queries.  The
# nine that take under 0.2 s run 20 times a cycle, spread over it by the
# shuffle, so that the median and the tail rest on many runs of each,
# taken at different moments; the two slow ones run once.
FINITE_QUERIES = [
    (("RT", 1, 2, 3, 12), 20),
    (("RT", 1, 2, 4, 12), 20),
    (("RT", 1, 3, 3, 12), 20),
    (("AHT", 1, 1, 3, 12), 20),
    (("AHT", 1, 1, 4, 12), 20),
    (("AHT", 1, 2, 2, 12), 20),
    (("APAHT", 1, 1, 3, 12), 20),
    (("ZRT", 2, 2, 3, 12), 20),
    (("SEPZRT", 2, 2, 3, 12), 20),
    (("RT", 2, 2, 3, 12), 1),
    (("ZRT", 2, 3, 3, 11), 1),
]


def _finite_op(mods, query):
    def run():
        search = mods.search
        return search.finite_number(search.FiniteNumberQuery(*query))

    def check(result):
        c = result.counterexample
        counterexample = None if c is None else (c.dim, c.window, c.palette, c.mode, dict(c.table))
        return checks.check_finite_number(*query, result.value, result.witness, counterexample)

    principle, dim, k, m, cap = query

    def refused_size(count):
        # the size whose exhaustive enumeration has ``count`` colourings
        for size in range(1, cap + 1):
            if principle in ("ZRT", "SEPZRT"):
                domain = comb(size - 1, dim - 1)
            else:
                domain = comb(size, dim)
            if k ** domain == count:
                return size
        return None

    return Op(f"finite_number.{principle}.d{dim}k{k}m{m}", run, check, refused_size)


def build_finite_numbers(seed, mods, workdir):
    ops = [_finite_op(mods, query) for query, runs in FINITE_QUERIES for _ in range(runs)]
    random.Random(seed).shuffle(ops)
    return ops


# -- search-oracle -----------------------------------------------------------

SETS_WINDOW, VECTORS_WINDOW, CODING_WINDOW, READOUT_WINDOW = 30, 100, 256, 48
SETS_INSTANCES, VECTORS_INSTANCES = 48, 24
ROUND_TRIP_LENGTH = 5
ROUND_TRIPS = 200
CODING_SAMPLE = 2000  # pairs of each coding colouring rechecked against the definition


def _subset_op(mods, kind, instance, table, m, separated):
    def check(result):
        least = checks.least_subset(table, instance.window, 2, m, instance.palette, separated)
        if result != least:
            return f"{kind} m={m}: got {result}, independent search found {least}"
        if result is not None and checks.mono_colour(table, combinations(result, 2)) is None:
            return f"{kind} m={m}: witness {result} is not monochromatic"
        return None

    return Op(kind, lambda: mods.search.find_mono_subset(instance, m, separated=separated), check)


def _afs_op(mods, kind, instance, table, m, apart=False, colour=None, precheck=lambda: None):
    def check(result):
        reason = precheck()
        if reason is not None:
            return reason
        least = checks.least_run_sequence(table, 2, m, instance.window, instance.palette,
                                          apart_only=apart, colour=colour)
        if result != least:
            return f"{kind} m={m}: got {result}, independent search found {least}"
        if result is not None and checks.mono_colour(table, checks.run_tuples(result, 2)) is None:
            return f"{kind} m={m}: witness {result} is not monochromatic"
        return None

    return Op(kind, lambda: mods.search.find_afs_mono(instance, m, apart=apart, colour=colour), check)


def _round_trip(mods, oracle, m):
    o, sums = mods.oracle, mods.sums
    sequence = o.synthesize_solution(oracle, m)
    coded = o.encode_colour(1, 1)
    pairs_ok = all(o.pair_colour(oracle, a, b) == coded for a, b in sums.adjacent_tuples(sequence, 2))
    answers = tuple(o.decode(sequence, oracle, q) for q in range(checks.low_bit(sequence[-1])))
    return sequence, pairs_ok, answers


def _readout(mods, oracle, window):
    o, sums = mods.oracle, mods.sums
    settle = oracle.settle_stage
    out = []
    for cand in combinations(range(1, window + 1), 3):
        if sum(cand) > window:
            continue
        if any(o.decode_colour(o.pair_colour(oracle, a, b)) != (1, 1)
               for a, b in sums.adjacent_tuples(cand, 2)):
            continue
        if min(checks.high_bit(x) for x in cand) <= settle:
            continue
        answers = tuple(o.decode(cand, oracle, q) for q in range(max(checks.low_bit(x) for x in cand)))
        out.append((cand, answers))
    return tuple(out)


def build_search_oracle(seed, mods, workdir):
    rng = random.Random(seed)
    Colouring = mods.colouring.Colouring
    ops = []
    # Most ops find a witness or are oracle round trips.  The exhaustive "no
    # witness" searches (sizes where a witness almost never exists at these
    # windows: plain m=8 and separated m=5 on sets, plain m=6 and apart m=5
    # on vectors) take most of the time and, after the two readouts, form
    # the tail.
    for i in range(SETS_INSTANCES):
        table = random_sets(rng, 2, SETS_WINDOW, 2)
        instance = Colouring(2, SETS_WINDOW, 2, "sets", dict(table))
        ops += [_subset_op(mods, "subset.plain", instance, table, m, False) for m in (5, 6)]
        ops.append(_subset_op(mods, "subset.separated", instance, table, 4, True))
        ops.append(_subset_op(mods, "subset.plain", instance, table, 8, False))
        if i % 2 == 0:
            ops.append(_subset_op(mods, "subset.separated", instance, table, 5, True))
    for i in range(VECTORS_INSTANCES):
        table = random_vectors(rng, 2, VECTORS_WINDOW, 2)
        instance = Colouring(2, VECTORS_WINDOW, 2, "vectors", dict(table))
        ops += [_afs_op(mods, "afs.plain", instance, table, m) for m in (3, 4)]
        ops.append(_afs_op(mods, "afs.apart", instance, table, 3, apart=True))
        if i % 2:
            ops.append(_afs_op(mods, "afs.plain", instance, table, 6))
        else:
            ops.append(_afs_op(mods, "afs.apart", instance, table, 5, apart=True))
    coded = mods.oracle.encode_colour(1, 1)
    sample = random.Random(f"{seed}-coding")
    for _ in range(2):
        events = random_events(rng, 30, 8, 12)
        oracle = mods.oracle.EnumerationOracle(events)
        instance = mods.oracle.lower_bound_colouring(oracle, CODING_WINDOW)
        table = instance.table
        pairs = [(sample.randint(1, CODING_WINDOW), sample.randint(1, CODING_WINDOW))
                 for _ in range(CODING_SAMPLE)]

        def precheck(events=events, table=table, pairs=pairs):
            return checks.check_coding_table(events, table, pairs)

        ops += [_afs_op(mods, "afs.coded", instance, table, m, colour=coded, precheck=precheck)
                for m in (4, 5, 6)]
        ops += [_afs_op(mods, "afs.coding_plain", instance, table, m, precheck=precheck)
                for m in (3, 5)]
    for _ in range(ROUND_TRIPS):
        events = random_events(rng, 30, 8, 12)
        oracle = mods.oracle.EnumerationOracle(events)
        ops.append(Op("oracle.round_trip",
                      lambda oracle=oracle: _round_trip(mods, oracle, ROUND_TRIP_LENGTH),
                      lambda result, events=events: checks.check_round_trip(
                          events, ROUND_TRIP_LENGTH, result)))
    for _ in range(2):
        events = random_events(rng, 6, 3, 2)
        oracle = mods.oracle.EnumerationOracle(events)
        ops.append(Op("oracle.readout",
                      lambda oracle=oracle: _readout(mods, oracle, READOUT_WINDOW),
                      lambda result, events=events: checks.check_readout(
                          events, READOUT_WINDOW, result)))
    rng.shuffle(ops)
    return ops


BUILDERS = {
    "cli-mix": build_cli_mix,
    "finite-numbers": build_finite_numbers,
    "search-oracle": build_search_oracle,
}
