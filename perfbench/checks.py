"""Independent output checks.

Everything here is written with plain loops over dicts and tuples and
imports nothing from ``irl``: a bug in the package's search, transform or
oracle code cannot hide itself by being reused in its own check.  The
checks run outside the timed region.  Each returns ``None`` when the
output is right and a one-line reason otherwise.
"""

import json
from itertools import combinations


def low_bit(x):
    return (x & -x).bit_length() - 1


def high_bit(x):
    return x.bit_length() - 1


def apart(seq):
    return all(high_bit(a) < low_bit(b) for a, b in zip(seq, seq[1:]))


def increasing(seq):
    return all(a < b for a, b in zip(seq, seq[1:]))


def diffs(seq):
    return tuple(b - a for a, b in zip(seq, seq[1:]))


def run_tuples(seq, d):
    """Every d-tuple of consecutive, gap-free run sums of ``seq``."""
    prefix = [0]
    for x in seq:
        prefix.append(prefix[-1] + x)
    return {
        tuple(prefix[b[i + 1]] - prefix[b[i]] for i in range(d))
        for b in combinations(range(len(seq) + 1), d + 1)
    }


def mono_colour(table, tuples):
    """The common colour of ``tuples`` in ``table``, or None if absent or mixed."""
    colours = {table.get(t) for t in tuples}
    if len(colours) != 1 or None in colours:
        return None
    return colours.pop()


# -- least witnesses, one colour at a time -----------------------------------


def least_subset(table, window, dim, m, palette, separated=False):
    """Lexicographically least m-subset of [0, window] all of whose dim-subsets share a colour."""
    best = None
    for colour in range(palette):
        found = _least_subset_in(table, window, dim, m, colour, separated, best)
        if found is not None and (best is None or found < best):
            best = found
    return best


def _least_subset_in(table, window, dim, m, colour, separated, bound):
    """Least witness of one colour; only prefixes not above ``bound`` are explored."""
    chosen = []

    def grow(start, tight):
        i = len(chosen)
        if i == m:
            return tuple(chosen)
        for x in range(start, window + 1):
            if window + 1 - x < m - i or (tight and x > bound[i]):
                return None
            if separated and len(chosen) >= 2:
                if not high_bit(chosen[-1] - chosen[-2]) < low_bit(x - chosen[-1]):
                    continue
            if all(table.get(rest + (x,)) == colour for rest in combinations(chosen, dim - 1)):
                chosen.append(x)
                found = grow(x + 1, tight and x == bound[i])
                if found is not None:
                    return found
                chosen.pop()
        return None

    return grow(0, bound is not None)


def least_run_sequence(table, dim, m, window, palette, apart_only=False, colour=None):
    """Lexicographically least increasing length-m sequence over [1, window] with
    total <= window whose adjacent dim-tuples all carry one colour."""
    colours = range(palette) if colour is None else (colour,)
    best = None
    for c in colours:
        found = _least_run_sequence_in(table, dim, m, window, c, apart_only, best)
        if found is not None and (best is None or found < best):
            best = found
    return best


def _least_run_sequence_in(table, dim, m, window, colour, apart_only, bound):
    """Least sequence of one colour; only prefixes not above ``bound`` are explored."""
    chosen = []

    def ok_with(x):
        seq = chosen + [x]
        n = len(seq)
        if n < dim:
            return True
        sums = [0]
        for v in seq:
            sums.append(sums[-1] + v)
        # tuples whose last run ends at the new element
        for b in combinations(range(n), dim):
            edges = b + (n,)
            key = tuple(sums[edges[i + 1]] - sums[edges[i]] for i in range(dim))
            if table.get(key) != colour:
                return False
        return True

    def grow(start, total, tight):
        i = len(chosen)
        if i == m:
            return tuple(chosen)
        left = m - i - 1
        for x in range(start, window + 1):
            if total + (left + 1) * x + left * (left + 1) // 2 > window or (tight and x > bound[i]):
                return None
            if apart_only and chosen and not high_bit(chosen[-1]) < low_bit(x):
                continue
            if ok_with(x):
                chosen.append(x)
                found = grow(x + 1, total + x, tight and x == bound[i])
                if found is not None:
                    return found
                chosen.pop()
        return None

    return grow(1, 0, bound is not None)


# -- instance transforms, written out from their definitions -----------------


def sets_tuples(dim, window):
    return combinations(range(window + 1), dim)


def vector_tuples(dim, window):
    out = []

    def rec(prefix, left):
        if len(prefix) == dim:
            out.append(tuple(prefix))
            return
        for z in range(1, left - (dim - len(prefix) - 1) + 1):
            rec(prefix + [z], left - z)

    rec([], window)
    return out


def expected_forward(kind, dim, window, table):
    """(dim, window, mode, table) of the transformed instance."""
    out = {}
    if kind == "RT_TO_ZRT":
        for t in sets_tuples(dim + 1, window):
            colour = table.get(tuple(x - t[0] for x in t[1:]))
            if colour is not None:
                out[t] = colour
        return dim + 1, window, "sets", out
    if kind == "ZRT_TO_AHT":
        for v in vector_tuples(dim - 1, window):
            anchored = (0,) + tuple(sum(v[: i + 1]) for i in range(len(v)))
            colour = table.get(anchored)
            if colour is not None:
                out[v] = colour
        return dim - 1, window, "vectors", out
    if kind == "AHT_TO_ZRT":
        for t in sets_tuples(dim + 1, window):
            colour = table.get(diffs(t))
            if colour is not None:
                out[t] = colour
        return dim + 1, window, "sets", out
    positions = 0
    while 2 ** (positions + 1) - 1 <= window:
        positions += 1
    for t in sets_tuples(dim + 1, positions):
        colour = table.get(tuple(2 ** t[i + 1] - 2 ** t[i] for i in range(dim)))
        if colour is not None:
            out[t] = colour
    return dim + 1, positions, "sets", out


def table_of(payload):
    return {tuple(t): c for t, c in payload["entries"]}


def check_colouring_json(text, dim, window, mode, table):
    payload = json.loads(text)
    got = (payload["dim"], payload["window"], payload["mode"], table_of(payload))
    if got != (dim, window, mode, table):
        return "emitted colouring differs from the independent construction"
    entries = [tuple(t) for t, _ in payload["entries"]]
    if entries != sorted(entries):
        return "entries are not sorted lexicographically"
    return None


def invariance_clash(table):
    """A pair of equal-difference tuples with unequal colours, or None."""
    first = {}
    for t in sorted(table):
        d = diffs(t)
        if d not in first:
            first[d] = t
        elif table[first[d]] != table[t]:
            return first[d], t
    return None


# -- reductions: the mapped-back object against the original instance -------


def check_verify(kind, dim, table, target, report):
    witness, mapped = report["witness"], report["mapped"]
    if witness is None:
        if report["pass"] is not None or mapped is not None:
            return "report without a witness carries a verdict"
        return None
    if report["pass"] is not True:
        return f"round trip reported pass={report['pass']}"
    witness, mapped = tuple(witness), tuple(mapped)
    if kind == "RT_TO_ZRT":
        expected = tuple(x - witness[0] for x in witness[1:])
    elif kind == "ZRT_TO_AHT":
        expected = tuple(sum(witness[: i + 1]) for i in range(len(witness)))
    elif kind == "AHT_TO_ZRT":
        kept = [witness[0], witness[1]]
        for x in witness[2:]:
            if x - kept[-1] > kept[-1] - kept[-2]:
                kept.append(x)
        expected = diffs(kept)
    else:
        expected = tuple(2 ** b - 2 ** a for a, b in zip(witness, witness[1:]))
    if mapped != expected:
        return f"mapped {list(mapped)} is not the backward image of {list(witness)}"
    if kind in ("RT_TO_ZRT", "ZRT_TO_AHT"):
        tuples = list(combinations(mapped, dim))
    else:
        tuples = sorted(run_tuples(mapped, dim))
    if not tuples:
        if report["colour"] is not None:
            return "vacuous round trip reported a colour"
        return None
    colour = mono_colour(table, tuples)
    if colour is None:
        return f"mapped {list(mapped)} is not monochromatic on the original instance"
    if colour != report["colour"]:
        return f"colour {report['colour']} reported, {colour} observed"
    if kind == "APAHT_TO_RT" and not apart(mapped):
        return f"mapped {list(mapped)} is not apart"
    return None


# -- finite numbers ----------------------------------------------------------

SCHUR = {1: 1, 2: 4, 3: 13}
WEAK_SCHUR = {1: 2, 2: 8, 3: 23}


def closed_form(principle, dim, k, m):
    """Published or elementary value of a finite number, or None if unknown."""
    if principle == "RT" and dim == 1:
        return k * (m - 1) + 1
    if principle == "RT" and (dim, k, m) == (2, 2, 3):
        return 6  # R(3, 3)
    if principle == "AHT" and dim == 1 and k == 1:
        return m * (m + 1) // 2
    if principle == "AHT" and dim == 1 and m == 2 and k in WEAK_SCHUR:
        return WEAK_SCHUR[k] + 1
    if principle == "APAHT" and dim == 1 and k == 1:
        return 2 ** m - 1
    if principle == "ZRT" and dim == 2 and m == 3 and k in SCHUR:
        return SCHUR[k] + 2
    return None


def _least_witness(principle, table, dim, m, window, palette):
    if principle in ("RT", "ZRT", "SEPZRT"):
        return least_subset(table, window, dim, m, palette, separated=principle == "SEPZRT")
    return least_run_sequence(table, dim, m, window, palette, apart_only=principle == "APAHT")


def check_finite_number(principle, dim, k, m, cap, value, witness, counterexample):
    """``counterexample`` is (dim, window, palette, mode, table) or None."""
    expected = closed_form(principle, dim, k, m)
    sets_mode = principle in ("RT", "ZRT", "SEPZRT")
    if value is not None:
        if expected is not None and value != expected:
            return f"N={value}, expected {expected}"
        if expected is None:
            return "no independent value to compare against"
        # the first colouring enumerated at size N is the constant colouring 0
        window = value - 1 if sets_mode else value
        domain = sets_tuples(dim, window) if sets_mode else vector_tuples(dim, window)
        constant = {t: 0 for t in domain}
        least = _least_witness(principle, constant, dim, m, window, 1)
        if witness is None or tuple(witness) != least:
            return f"witness {witness} is not the least witness {least} of the constant colouring"
        return None
    if expected is not None and expected <= cap:
        return f"reported 'exceeds cap {cap}', expected {expected}"
    # exceeding the cap is proved by one witness-free admissible colouring at the cap
    c_dim, c_window, c_palette, c_mode, table = counterexample
    window = cap - 1 if sets_mode else cap
    if (c_dim, c_window, c_palette, c_mode) != (dim, window, k, "sets" if sets_mode else "vectors"):
        return "counterexample has the wrong shape"
    domain = list(sets_tuples(dim, window) if sets_mode else vector_tuples(dim, window))
    if set(table) != set(domain) or any(not 0 <= c < k for c in table.values()):
        return "counterexample is not a total colouring of the window"
    if principle in ("ZRT", "SEPZRT") and invariance_clash(table) is not None:
        return "counterexample is not shift-invariant"
    found = _least_witness(principle, table, dim, m, window, k)
    if found is not None:
        return f"counterexample has the witness {list(found)}"
    return None


# -- membership coding -------------------------------------------------------


def coding_colour(events, x, y):
    """The (i, j) membership-coding colour of the ordered pair (x, y)."""
    lx = low_bit(x)

    def approx(stage):
        return {e for e, s in events if e < lx and s <= stage}

    i = 1 if lx < low_bit(y) else 0
    j = 1 if approx(high_bit(x)) == approx(high_bit(y)) else 0
    return i, j


def check_coding_table(events, table, pairs):
    """The materialized coding colouring against the definition, on the given pairs."""
    for x, y in pairs:
        i, j = coding_colour(events, x, y)
        if table.get((x, y)) != 2 * i + j:
            return f"coding colouring of ({x}, {y}) is {table.get((x, y))}, expected {2 * i + j}"
    return None


def check_round_trip(events, m, result):
    sequence, pairs_ok, answers = result
    if not pairs_ok:
        return "the package's own pair colours of the synthesized sequence are not all (1, 1)"
    members = {e for e, _ in events}
    if len(sequence) != m or not increasing(sequence) or not apart(sequence):
        return f"synthesized {list(sequence)} is not an increasing apart length-{m} sequence"
    for a, b in run_tuples(sequence, 2):
        if coding_colour(events, a, b) != (1, 1):
            return f"pair ({a}, {b}) of the synthesized sequence is not coloured (1, 1)"
    if len(answers) != low_bit(sequence[-1]):
        return "not every query below the last lowest bit was decoded"
    for query, answer in enumerate(answers):
        if answer != (query in members):
            return f"decode({query}) = {answer}, but membership is {query in members}"
    return None


def check_readout(events, window, result):
    members = {e for e, _ in events}
    settle = max((s for _, s in events), default=0)
    expected = []
    for cand in combinations(range(1, window + 1), 3):
        if sum(cand) > window:
            continue
        if all(coding_colour(events, a, b) == (1, 1) for a, b in run_tuples(cand, 2)):
            if min(high_bit(x) for x in cand) > settle:
                expected.append(cand)
    if [cand for cand, _ in result] != expected:
        return f"{len(result)} (1,1) candidates read out, {len(expected)} expected"
    for cand, answers in result:
        if len(answers) != max(low_bit(x) for x in cand):
            return f"candidate {list(cand)} decoded the wrong number of queries"
        for query, answer in enumerate(answers):
            if answer != (query in members):
                return f"decode({list(cand)}, {query}) = {answer}, membership is {query in members}"
    return None
