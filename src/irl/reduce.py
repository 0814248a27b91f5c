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
and checks monochromaticity (same colour) on the original instance.  Into
ZRT it searches the forward map's tuples from 0 instead of their lift,
whose least witness starts at 0.  A window too small to hold any witness
yields a report with a null verdict, not an error.
"""

import hashlib
import json
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

from irl.bits import block, is_apart
from irl.budget import candidate_budget
from irl.colouring import Colouring, _lift_translates, _unchecked, colouring_to_json, invariance_witness
from irl.errors import NotInvariantError, PreconditionError, check_entries, check_instance, check_int
from irl.search import _SHAPES, _find_mono_from_zero, find_afs_mono, find_mono_subset, witness_colour
from irl.sums import _anchor, _choose, _gaps, adjacent_tuples, differences, gap_increasing, partial_sums


def bit_window(value_window: int) -> int:
    """Largest bit-position window whose realizable block sums fit the value window."""
    return (check_int(value_window, "value window", 0) + 1).bit_length() - 1


# Forward maps: (instance, target window) -> the table verify_reduction
# searches, read from the instance's entries alone.  A map into a
# shift-invariant principle gives the tuples from 0 that fit the window,
# which forward_transform lifts; ZRT_TO_AHT keys the tuples from 0 by their
# difference vectors; APAHT_TO_RT reads blocks.

def _sets_from_zero(instance, window):
    return {(0, *s): colour for s, colour in instance.table.items() if s[0] > 0}


def _anchored_differences(instance, window):
    return {_gaps(t): colour for t, colour in instance.table.items() if t[0] == 0}


def _half_open_blocks(instance, window):
    limit = 1 << window
    table = {}
    for values, colour in instance.table.items():
        # consecutive blocks telescope: 2^t0 + block(t0, t1 - 1) + ... + block(t(i-1), ti - 1) = 2^ti,
        # so each running end from the lowest bit of the first value must be a power of two
        end = values[0] & -values[0]
        positions = [end.bit_length() - 1]
        for value in values:
            end += value
            if end & (end - 1) or end > limit:
                break
            positions.append(end.bit_length() - 1)
        else:
            table[tuple(positions)] = colour
    return table


@dataclass(frozen=True)
class Reduction:
    """What sets one reduction kind apart from the others; ``_SHAPES`` gives each principle's shape."""

    source: str  # the principle of the instance and of the mapped-back solution
    target: str  # the principle of the transformed instance and of its witness
    shift: int  # target arity minus source arity
    forward: Callable[[Colouring, int], dict]  # (instance, target window) -> the table verify searches
    backward: Callable[[tuple], tuple]  # checked witness -> solution
    window: Callable[[int], int] = lambda window: window  # instance window -> target window
    extra: int = 0  # how much longer a witness is than the solution it maps to
    min_len: int = 1  # least solution length


# The backward maps look their helpers up at call time, so wrappers installed
# on this module's names see the calls.
REDUCTIONS: dict[str, Reduction] = {f"{r.source}_TO_{r.target}": r for r in (
    Reduction("RT", "ZRT", +1, _sets_from_zero, lambda witness: tuple(x - witness[0] for x in witness[1:]), extra=1),
    Reduction("ZRT", "AHT", -1, _anchored_differences, lambda witness: partial_sums(witness)),
    Reduction("AHT", "ZRT", +1,
              lambda instance, window: {_anchor(v): c for v, c in instance.table.items() if sum(v) <= window},
              lambda witness: differences(gap_increasing(witness)), min_len=2),
    Reduction("APAHT", "RT", +1, _half_open_blocks,
              lambda witness: tuple(block(a, b - 1) for a, b in zip(witness, witness[1:])),
              window=bit_window, extra=1, min_len=2),
)}
KINDS = tuple(REDUCTIONS)


def _reduction(kind) -> Reduction:
    try:
        return REDUCTIONS[kind]
    except (KeyError, TypeError):
        raise PreconditionError(f"kind must be one of {KINDS}, got {kind!r}") from None


def _checked(kind: str, instance) -> tuple[Reduction, int]:
    """The kind's record and arity parameter (its n or d), once ``instance`` passes.

    ``forward_transform`` and ``verify_reduction`` share this one pass: the
    kind, the ``Colouring`` type, the source mode, the arity, then
    invariance, in this order.  It charges nothing: a lift is charged where
    it is built.
    """
    reduction = _reduction(kind)
    mode, invariant, _ = _SHAPES[reduction.source]
    check_instance(instance, Colouring, kind, mode)
    if instance.dim + reduction.shift < 1:
        raise PreconditionError(f"{kind} expects tuple arity >= {1 - reduction.shift}")
    if invariant:
        witness = invariance_witness(instance)
        if witness is not None:
            raise NotInvariantError(f"{kind} requires a shift-invariant instance", witness=witness)
    return reduction, min(instance.dim, instance.dim + reduction.shift)


def _target(reduction: Reduction, instance: Colouring) -> Colouring:
    """The forward map's colouring of a checked instance: into ZRT, the tuples from 0 of its lift."""
    window = reduction.window(instance.window)
    return _unchecked(Colouring, instance.dim + reduction.shift, window, instance.palette,
                      _SHAPES[reduction.target][0], reduction.forward(instance, window))


def _lifted(reduction: Reduction, instance: Colouring) -> Colouring:
    """The transformed instance of a checked instance: ``_target``, lifted when the target is ZRT."""
    target = _target(reduction, instance)
    return _lift_translates(target, candidate_budget()) if _SHAPES[reduction.target][1] else target


def forward_transform(kind: str, instance: Colouring) -> Colouring:
    """Transform an instance of the source problem into one of the target problem."""
    return _lifted(_checked(kind, instance)[0], instance)


def backward_transform(kind: str, solution) -> tuple:
    """Map a solution of the target problem back to one of the source problem.

    ``check_entries`` refuses, under the kind's name, a solution shorter than ``min_len``, one with an
    entry below 0 into a sets-mode target (RT, ZRT) or below 1 into AHT, or one not strictly increasing.
    """
    reduction = _reduction(kind)
    least = 0 if _SHAPES[reduction.target][0] == "sets" else 1
    return reduction.backward(check_entries(solution, kind, least, increasing=True, min_len=reduction.min_len))


@dataclass(frozen=True)
class ReductionReport:
    """Record of one forward / search / backward / check round trip.

    ``passed`` is True when a witness was found and the mapped-back object
    is monochromatic on the original instance with the same colour, None
    when the window held no witness, and False otherwise.  A total instance
    never fails (the theorems), but a partial one can leave a tuple of the
    mapped solution uncoloured (``ZRT_TO_AHT`` reads only the tuples from 0).
    The transformed instance, ``forward_transform(kind, instance)``, and
    the digests are computed on first access; into ZRT the first read
    builds the lift and charges it to the budget, as ``forward_transform`` does.
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

    @cached_property
    def transformed(self) -> Colouring:
        return _lifted(REDUCTIONS[self.kind], self.instance)

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
    longer (the backward transform consumes them).  A target whose witness
    would be shorter than a sets-mode target's arity is refused.

    The searched colouring is ``_target``'s.  Into ZRT that is the lift's
    tuples from 0, searched from 0 since the lift's least witness starts
    at 0 (the lemma in ``_find_mono_from_zero``).  Verify builds no lift,
    so it charges none; ``ReductionReport.transformed`` builds and charges
    the lift when it is read.
    """
    check_int(target, "target", 1)
    reduction, param = _checked(kind, instance)
    length = target + reduction.extra
    if length < reduction.min_len:
        raise PreconditionError(f"{kind} needs target >= {reduction.min_len - reduction.extra}")
    dim = instance.dim + reduction.shift
    mode, invariant, _ = _SHAPES[reduction.target]
    if mode == "sets" and length < dim:
        raise PreconditionError(
            f"{kind} needs target >= {dim - reduction.extra} on a dim-{instance.dim} instance, got {target}")
    searched = _target(reduction, instance)
    search = _find_mono_from_zero if invariant else find_mono_subset if mode == "sets" else find_afs_mono
    witness = search(searched, length)
    mapped = passed = colour = None
    if witness is not None:
        mapped = reduction.backward(witness)  # a search result passes backward_transform's checks
        # tuples the mapped-back object must colour monochromatically
        tuples = adjacent_tuples(mapped, instance.dim) if instance.mode == "vectors" else _choose(mapped, instance.dim)
        passed, colour = _mono_colour(instance.table, tuples)
        seen = witness_colour(searched, witness)  # None if the check is vacuous; a witness into ZRT starts at 0
        if passed and colour is not None and seen is not None:
            passed = colour == seen
        if _SHAPES[reduction.source][2]:
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
    )
