"""Adjacent finite sums and the sequence transforms built on them.

An adjacent sum of a finite sequence is the total of one contiguous run of
entries; an adjacent d-tuple collects d consecutive, gap-free runs, which
are the gaps of d + 1 of its prefix sums from 0.  The private helpers below
state that rule once for the package: ``_gaps``, its inverse ``_anchor``
on tuples from 0, ``_choose`` and ``_run_tuples``.  The transforms here
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
from irl.errors import PreconditionError


def _gaps(t) -> tuple:
    """Successive differences of a tuple: (t1 - t0, ..., tn - t(n-1))."""
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


def _positive_entries(seq, name):
    try:
        entries = tuple(seq)
    except TypeError:
        raise PreconditionError(f"{name} requires an iterable of integers, got {seq!r}") from None
    if not entries:
        raise PreconditionError(f"{name} requires a nonempty sequence")
    for x in entries:
        if not isinstance(x, int) or isinstance(x, bool) or x < 1:
            raise PreconditionError(f"{name} requires positive integer entries, got {x!r}")
    check_value(sum(entries))
    return entries


def _increasing_entries(seq, name, min_len=1):
    try:
        entries = tuple(seq)
    except TypeError:
        raise PreconditionError(f"{name} requires an iterable of integers, got {seq!r}") from None
    if len(entries) < min_len:
        raise PreconditionError(f"{name} requires at least {min_len} entries")
    if any(not isinstance(x, int) or isinstance(x, bool) or x < 0 for x in entries):
        raise PreconditionError(f"{name} requires non-negative integer entries")
    if any(a >= b for a, b in zip(entries, entries[1:])):
        raise PreconditionError(f"{name} requires a strictly increasing sequence, got {entries}")
    check_value(entries[-1])
    return entries


def adjacent_sums(seq) -> frozenset:
    """All sums of contiguous nonempty runs of the sequence (a set of ints)."""
    entries = _positive_entries(seq, "adjacent_sums")
    return frozenset(b - a for a, b in combinations(_anchor(entries), 2))


def adjacent_tuples(seq, d: int) -> frozenset:
    """All d-tuples of consecutive gap-free run sums (a set of d-tuples).

    A tuple is determined by a start index and d run boundaries; runs are
    nonempty and leave no gap between one another.
    """
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise PreconditionError(f"arity must be >= 1, got {d!r}")
    entries = _positive_entries(seq, "adjacent_tuples")
    return frozenset(_run_tuples(_anchor(entries), d))


def normalize(seq) -> tuple:
    """Greedy contiguous block sums forming a strictly increasing sequence.

    The first output entry is the first input entry; each later entry is
    the shortest following block whose sum strictly exceeds the previous
    output entry.  A trailing block that cannot exceed it is discarded, so
    every adjacent sum of the output is an adjacent sum of the input.
    """
    entries = _positive_entries(seq, "normalize")
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
    return tuple(accumulate(_increasing_entries(_positive_entries(ys, "partial_sums"), "partial_sums")))
