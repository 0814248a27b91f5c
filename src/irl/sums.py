"""Adjacent finite sums and the sequence transforms built on them.

An adjacent sum of a finite sequence is the total of one contiguous run of
entries; an adjacent d-tuple collects d consecutive, gap-free runs, which
are the gaps of d + 1 of its prefix sums from 0.  The private helpers below
state that rule once for the package: ``_gaps``, its inverse ``_anchor``
on tuples from 0, ``_choose`` and ``_run_tuples``.  ``_gaps`` is the
kernel under adjacent tuples, difference scans and run walks alike: it
unpacks a tuple of length 2 or 3 (arity 1 or 2) in one step and sends
every other length through ``map``, the tuple's length picking the
branch.  The adjacent sums and tuples of a sequence check its total on
the last prefix sum they build.  The transforms here
(greedy renormalization into a strictly increasing sequence, gap-increasing
extraction, initial partial sums) are the solution-side halves of the
reductions in ``irl.reduce``.

Sequences are plain tuples of ints.  Positivity is required wherever sums
are formed; the subset-style inputs of ``differences``/``gap_increasing``
may start at 0.
"""

from itertools import accumulate, combinations
from operator import sub

from irl.bits import check_value
from irl.errors import check_entries, check_int


def _gaps(t) -> tuple:
    """Successive differences of a tuple: (t1 - t0, ..., tn - t(n-1)); lengths 2 and 3 unpacked."""
    n = len(t)
    if n == 3:
        a, b, c = t
        return (b - a, c - b)
    if n == 2:
        return (t[1] - t[0],)
    return tuple(map(sub, t[1:], t))


def _anchor(v) -> tuple:
    """The tuple from 0 whose gaps are v: 0 and the partial sums of v."""
    return (0, *accumulate(v))


def _choose(xs, r):
    """The r-subsets of the sized ``xs`` in lexicographic order."""
    if r > len(xs):
        return iter(())  # none exist, but combinations would still allocate r indices
    return combinations(xs, r)


def _run_tuples(sums, d):
    """The adjacent d-tuples of a sequence: the gaps of d + 1 of its prefix sums ``sums``."""
    return map(_gaps, _choose(sums, d + 1))


def _positive_sums(seq, name):
    """The prefix sums from 0 of a positive sequence, its total checked on the last of them."""
    sums = _anchor(check_entries(seq, name, 1))
    check_value(sums[-1])
    return sums


def _increasing_entries(seq, name, min_len=1):
    entries = check_entries(seq, name, 0, increasing=True, min_len=min_len)
    check_value(entries[-1])
    return entries


def adjacent_sums(seq) -> frozenset:
    """All sums of contiguous nonempty runs of the sequence (a set of ints)."""
    return frozenset(b - a for a, b in combinations(_positive_sums(seq, "adjacent_sums"), 2))


def adjacent_tuples(seq, d: int) -> frozenset:
    """All d-tuples of consecutive gap-free run sums (a set of d-tuples).

    A tuple is determined by a start index and d run boundaries; runs are
    nonempty and leave no gap between one another.
    """
    check_int(d, "arity", 1)
    return frozenset(_run_tuples(_positive_sums(seq, "adjacent_tuples"), d))


def normalize(seq) -> tuple:
    """Greedy contiguous block sums forming a strictly increasing sequence.

    The first output entry is the first input entry; each later entry is
    the shortest following block whose sum strictly exceeds the previous
    output entry.  A trailing block that cannot exceed it is discarded, so
    every adjacent sum of the output is an adjacent sum of the input.
    """
    entries = check_entries(seq, "normalize", 1)
    check_value(sum(entries))
    out = []
    total = 0  # the sum of the block since the last output entry
    for x in entries:
        total += x
        if not out or total > out[-1]:
            out.append(total)
            total = 0
    return tuple(out)


def differences(xs) -> tuple:
    """Successive differences of a strictly increasing sequence."""
    return _gaps(_increasing_entries(xs, "differences"))


def gap_increasing(xs) -> tuple:
    """Greedy subsequence whose gaps strictly increase.

    Keeps the two smallest elements, then repeatedly the least element
    whose gap to the last kept element strictly exceeds the previous gap.
    """
    entries = _increasing_entries(xs, "gap_increasing", min_len=2)
    out = [entries[0], entries[1]]
    gap = entries[1] - entries[0]
    for x in entries[2:]:
        if x - out[-1] > gap:
            gap = x - out[-1]
            out.append(x)
    return tuple(out)


def partial_sums(ys) -> tuple:
    """All nonempty initial sums y1, y1+y2, ... of an increasing positive sequence."""
    entries = check_entries(ys, "partial_sums", 1, increasing=True)
    check_value(sum(entries))
    return tuple(accumulate(entries))
