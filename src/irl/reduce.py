"""The four instance/solution transform pairs, as one table, and a finite-window verifier.

``REDUCTIONS`` holds one ``Reduction`` record per kind; the transforms and
the verifier below are shared by all four kinds and read the record.

Kinds (instance direction / solution direction):

* ``RT_TO_ZRT``:   n-subset colouring -> shift-invariant (n+1)-subset
  colouring via translates of {0} + s, s an n-set / subtract the minimum element.
* ``ZRT_TO_AHT``:  shift-invariant (d+1)-subset colouring -> d-vector
  colouring of gap tuples / initial partial sums.
* ``AHT_TO_ZRT``:  d-vector colouring -> shift-invariant (d+1)-subset
  colouring via the translates of its partial sums from 0 / differences
  of the gap-increasing subsequence.
* ``APAHT_TO_RT``: vector colouring over bit-block values -> subset
  colouring of bit positions via half-open blocks [x_i, x_{i+1}-1] /
  blocks of consecutive position pairs (the output is always apart).

``verify_reduction`` runs the instance transform, searches the transformed
instance for its lexicographically least witness, maps the witness back,
and checks monochromaticity (same colour) on the original instance.  A
window too small to hold any witness yields a report with a null verdict,
not an error.
"""

import hashlib
import json
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

from irl.bits import WORD_BITS, block, is_apart
from irl.colouring import (
    Colouring,
    _unchecked,
    charge_domain,
    colouring_to_json,
    invariance_witness,
    lift_differences,
    lift_translates,
)
from irl.errors import NotInvariantError, PreconditionError
from irl.search import find_afs_mono, find_mono_subset, witness_colour
from irl.sums import _choose, _gaps, adjacent_tuples, differences, gap_increasing, partial_sums


def bit_window(value_window: int) -> int:
    """Largest bit-position window whose realizable block sums fit the value window."""
    if not isinstance(value_window, int) or isinstance(value_window, bool) or value_window < 0:
        raise PreconditionError(f"value window must be an integer >= 0, got {value_window!r}")
    return (value_window + 1).bit_length() - 1


# Forward maps: (instance, target window) -> the coloured part of the target
# domain.  The maps into shift-invariant colourings lift anchored tuples, and
# ZRT_TO_AHT keys the instance's tuples from 0 by their difference vectors.
# Every forward map reads only the instance's entries, never the target domain.

def _translates_of_instance(instance, window):
    return lift_translates((((0, *s), colour) for s, colour in instance.table.items() if s[0] > 0), window)


def _anchored_differences(instance, window):
    return {_gaps(t): colour for t, colour in instance.table.items() if t[0] == 0}


def _consecutive_blocks(positions):
    if positions[0] < 0:
        raise PreconditionError("bit positions must be non-negative")
    return tuple(block(a, b - 1) for a, b in zip(positions, positions[1:]))


def _half_open_blocks(instance, window):
    dim = instance.dim
    if window > WORD_BITS and dim <= window:  # raise the overflow of the domain's lex-least over-wide tuple
        _consecutive_blocks((*range(dim), max(dim, WORD_BITS + 1)))
    table = {}
    for values, colour in instance.table.items():
        # consecutive blocks telescope: 2^t0 + block(t0, t1 - 1) + ... + block(t(i-1), ti - 1) = 2^ti
        ends = tuple(accumulate(values, initial=values[0] & -values[0]))
        if all(e & (e - 1) == 0 for e in ends) and ends[-1] <= 1 << window:
            table[tuple(e.bit_length() - 1 for e in ends)] = colour
    return table


@dataclass(frozen=True)
class Reduction:
    """What sets one reduction kind apart from the others."""

    source_mode: str
    target_mode: str
    shift: int  # target arity minus source arity
    forward: Callable[[Colouring, int], dict]  # (instance, target window) -> target table
    backward: Callable[[tuple], tuple]  # checked witness -> solution
    window: Callable[[int], int] = lambda window: window  # instance window -> target window
    extra: int = 0  # how much longer a witness is than the solution it maps to
    min_len: int = 1  # least solution length
    invariant: bool = False  # the instance must be shift-invariant
    apart: bool = False  # the mapped-back solution must be apart


# The backward maps look their helpers up at call time, so wrappers installed
# on this module's names see the calls.
REDUCTIONS: dict[str, Reduction] = {
    "RT_TO_ZRT": Reduction("sets", "sets", +1, _translates_of_instance,
                           lambda witness: tuple(x - witness[0] for x in witness[1:]), extra=1),
    "ZRT_TO_AHT": Reduction("sets", "vectors", -1, _anchored_differences,
                            lambda witness: partial_sums(witness), invariant=True),
    "AHT_TO_ZRT": Reduction("vectors", "sets", +1,
                            lambda instance, window: lift_differences(instance.table, window),
                            lambda witness: differences(gap_increasing(witness)), min_len=2),
    "APAHT_TO_RT": Reduction("vectors", "sets", +1, _half_open_blocks, _consecutive_blocks,
                             window=bit_window, extra=1, min_len=2, apart=True),
}
KINDS = tuple(REDUCTIONS)


def _reduction(kind) -> Reduction:
    try:
        return REDUCTIONS[kind]
    except (KeyError, TypeError):
        raise PreconditionError(f"kind must be one of {KINDS}, got {kind!r}") from None


def kind_param(kind: str, instance: Colouring) -> int:
    """The arity parameter (the n or d of the kind) implied by the instance."""
    shift = _reduction(kind).shift
    if instance.dim + shift < 1:
        raise PreconditionError(f"{kind} expects tuple arity >= {1 - shift}")
    return min(instance.dim, instance.dim + shift)


def forward_transform(kind: str, instance: Colouring) -> Colouring:
    """Transform an instance of the source problem into one of the target problem."""
    reduction = _reduction(kind)
    if instance.mode != reduction.source_mode:
        raise PreconditionError(
            f"{kind} expects a {reduction.source_mode}-mode instance, got {instance.mode!r}"
        )
    kind_param(kind, instance)  # refuses an arity the shift would take below 1
    if reduction.invariant:
        witness = invariance_witness(instance)
        if witness is not None:
            raise NotInvariantError(f"{kind} requires a shift-invariant instance", witness=witness)
    dim = instance.dim + reduction.shift
    mode = reduction.target_mode
    window = reduction.window(instance.window)
    charge_domain(mode, dim, window)
    return _unchecked(Colouring, dim, window, instance.palette, mode, reduction.forward(instance, window))


def backward_transform(kind: str, solution) -> tuple:
    """Map a solution of the target problem back to one of the source problem."""
    reduction = _reduction(kind)
    entries = tuple(solution)
    if not entries:
        raise PreconditionError("backward_transform requires a nonempty solution")
    if any(a >= b for a, b in zip(entries, entries[1:])):
        raise PreconditionError(f"solution must be strictly increasing, got {entries}")
    if len(entries) < reduction.min_len:
        raise PreconditionError(f"{kind} needs a solution of length >= {reduction.min_len}")
    return reduction.backward(entries)


@dataclass(frozen=True)
class ReductionReport:
    """Record of one forward / search / backward / check round trip.

    ``passed`` is True when a witness was found and the mapped-back object
    is monochromatic on the original instance with the same colour, None
    when the window held no witness, and False only on a genuine failure
    of the reduction (which the theorems rule out).  The digests of the
    instance and the transformed instance are computed on first access.
    """

    kind: str
    param: int
    window: int
    target: int
    witness: tuple | None
    mapped: tuple | None
    passed: bool | None
    colour: int | None
    instance: Colouring = field(repr=False, hash=False)
    transformed: Colouring = field(repr=False, hash=False)

    @cached_property
    def instance_digest(self) -> str:
        return _digest(self.instance)

    @cached_property
    def transformed_digest(self) -> str:
        return _digest(self.transformed)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "params": self.param,
            "window": self.window,
            "target": self.target,
            "witness": None if self.witness is None else list(self.witness),
            "mapped": None if self.mapped is None else list(self.mapped),
            "pass": self.passed,
            "colour": self.colour,
        }


def _digest(instance: Colouring) -> str:
    payload = json.dumps(colouring_to_json(instance), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def _mono_colour(table, tuples):
    """(is_monochromatic, colour) over the given tuples; missing tuples fail."""
    colour = None
    for t in tuples:
        got = table.get(t)
        if got is None:
            return False, None
        if colour is None:
            colour = got
        elif got != colour:
            return False, None
    return True, colour


def verify_reduction(kind: str, instance: Colouring, target: int) -> ReductionReport:
    """Run one full reduction round trip and record the verdict.

    ``target`` is the solution size sought on the original problem; the
    witness searched on the transformed instance is ``extra`` elements
    longer (the backward transform consumes them).
    """
    if not isinstance(target, int) or isinstance(target, bool) or target < 1:
        raise PreconditionError(f"target must be an integer >= 1, got {target!r}")
    param = kind_param(kind, instance)
    reduction = REDUCTIONS[kind]
    transformed = forward_transform(kind, instance)
    length = target + reduction.extra
    if length < reduction.min_len:
        raise PreconditionError(f"{kind} needs target >= {reduction.min_len - reduction.extra}")
    if transformed.mode == "sets":
        witness = find_mono_subset(transformed, length)
    else:
        witness = find_afs_mono(transformed, length)
    mapped = passed = colour = None
    if witness is not None:
        mapped = reduction.backward(witness)  # a search result passes backward_transform's checks
        # tuples the mapped-back object must colour monochromatically
        tuples = adjacent_tuples(mapped, instance.dim) if instance.mode == "vectors" else _choose(mapped, instance.dim)
        passed, colour = _mono_colour(instance.table, tuples)
        seen = witness_colour(transformed, witness)  # None if the check is vacuous
        if passed and colour is not None and seen is not None:
            passed = colour == seen
        if reduction.apart:
            passed = passed and is_apart(mapped)
    return ReductionReport(
        kind=kind,
        param=param,
        window=instance.window,
        target=target,
        witness=witness,
        mapped=mapped,
        passed=passed,
        colour=colour,
        instance=instance,
        transformed=transformed,
    )
