"""The four instance/solution transform pairs and a finite-window verifier.

Kinds (instance direction / solution direction):

* ``RT_TO_ZRT``:   n-subset colouring -> shift-invariant (n+1)-subset
  colouring via anchored differences / subtract the minimum element.
* ``ZRT_TO_AHT``:  shift-invariant (d+1)-subset colouring -> d-vector
  colouring of gap tuples / initial partial sums.
* ``AHT_TO_ZRT``:  d-vector colouring -> shift-invariant (d+1)-subset
  colouring via successive differences / differences of the
  gap-increasing subsequence.
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
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

from irl.bits import block, is_apart
from irl.colouring import (
    Colouring,
    _unchecked,
    charge_domain,
    colouring_to_json,
    invariance_witness,
    sets_domain,
    vectors_domain,
)
from irl.errors import NotInvariantError, PreconditionError
from irl.search import find_afs_mono, find_mono_subset
from irl.sums import adjacent_tuples, differences, gap_increasing, partial_sums

KINDS = ("RT_TO_ZRT", "ZRT_TO_AHT", "AHT_TO_ZRT", "APAHT_TO_RT")


def _require_mode(kind, instance, mode):
    if instance.mode != mode:
        raise PreconditionError(f"{kind} expects a {mode}-mode instance, got {instance.mode!r}")


def bit_window(value_window: int) -> int:
    """Largest bit-position window whose realizable block sums fit the value window."""
    return (value_window + 1).bit_length() - 1


def kind_param(kind: str, instance: Colouring) -> int:
    """The arity parameter (the n or d of the kind) implied by the instance."""
    if kind not in KINDS:
        raise PreconditionError(f"kind must be one of {KINDS}, got {kind!r}")
    if kind == "ZRT_TO_AHT":
        if instance.dim < 2:
            raise PreconditionError("ZRT_TO_AHT expects tuple arity >= 2")
        return instance.dim - 1
    return instance.dim


def forward_transform(kind: str, instance: Colouring) -> Colouring:
    """Transform an instance of the source problem into one of the target problem."""
    if kind not in KINDS:
        raise PreconditionError(f"kind must be one of {KINDS}, got {kind!r}")
    table = {}
    if kind == "RT_TO_ZRT":
        _require_mode(kind, instance, "sets")
        n = instance.dim
        charge_domain("sets", n + 1, instance.window)
        for t in sets_domain(n + 1, instance.window):
            colour = instance.table.get(tuple(x - t[0] for x in t[1:]))
            if colour is not None:
                table[t] = colour
        return _unchecked(Colouring, n + 1, instance.window, instance.palette, "sets", table)
    if kind == "ZRT_TO_AHT":
        _require_mode(kind, instance, "sets")
        if instance.dim < 2:
            raise PreconditionError("ZRT_TO_AHT expects tuple arity >= 2")
        witness = invariance_witness(instance)
        if witness is not None:
            raise NotInvariantError(
                "ZRT_TO_AHT requires a shift-invariant instance", witness=witness
            )
        d = instance.dim - 1
        charge_domain("vectors", d, instance.window)
        for v in vectors_domain(d, instance.window):
            anchored = [0]
            for z in v:
                anchored.append(anchored[-1] + z)
            colour = instance.table.get(tuple(anchored))
            if colour is not None:
                table[v] = colour
        return _unchecked(Colouring, d, instance.window, instance.palette, "vectors", table)
    if kind == "AHT_TO_ZRT":
        _require_mode(kind, instance, "vectors")
        d = instance.dim
        charge_domain("sets", d + 1, instance.window)
        for t in sets_domain(d + 1, instance.window):
            colour = instance.table.get(tuple(b - a for a, b in zip(t, t[1:])))
            if colour is not None:
                table[t] = colour
        return _unchecked(Colouring, d + 1, instance.window, instance.palette, "sets", table)
    # APAHT_TO_RT
    _require_mode(kind, instance, "vectors")
    n = instance.dim
    positions = bit_window(instance.window)
    charge_domain("sets", n + 1, positions)
    for t in sets_domain(n + 1, positions):
        blocks = tuple(block(t[i], t[i + 1] - 1) for i in range(n))
        colour = instance.table.get(blocks)
        if colour is not None:
            table[t] = colour
    return _unchecked(Colouring, n + 1, positions, instance.palette, "sets", table)


def backward_transform(kind: str, solution) -> tuple:
    """Map a solution of the target problem back to one of the source problem."""
    if kind not in KINDS:
        raise PreconditionError(f"kind must be one of {KINDS}, got {kind!r}")
    entries = tuple(solution)
    if not entries:
        raise PreconditionError("backward_transform requires a nonempty solution")
    if any(a >= b for a, b in zip(entries, entries[1:])):
        raise PreconditionError(f"solution must be strictly increasing, got {entries}")
    if kind == "RT_TO_ZRT":
        return tuple(x - entries[0] for x in entries[1:])
    if kind == "ZRT_TO_AHT":
        return partial_sums(entries)
    if kind == "AHT_TO_ZRT":
        if len(entries) < 2:
            raise PreconditionError("AHT_TO_ZRT needs a solution of length >= 2")
        return differences(gap_increasing(entries))
    # APAHT_TO_RT: half-open blocks of consecutive bit positions
    if len(entries) < 2:
        raise PreconditionError("APAHT_TO_RT needs a solution of length >= 2")
    if entries[0] < 0:
        raise PreconditionError("bit positions must be non-negative")
    return tuple(block(a, b - 1) for a, b in zip(entries, entries[1:]))


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
    instance: Colouring = field(repr=False)
    transformed: Colouring = field(repr=False)

    def __hash__(self):
        # the colourings hold dicts; equal reports agree on these fields
        return hash((self.kind, self.param, self.window, self.target, self.witness,
                     self.mapped, self.passed, self.colour))

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
    witness searched on the transformed instance is one element longer for
    RT_TO_ZRT and APAHT_TO_RT (the backward transform consumes the extra
    element) and exactly ``target`` long otherwise.
    """
    if not isinstance(target, int) or isinstance(target, bool) or target < 1:
        raise PreconditionError(f"target must be an integer >= 1, got {target!r}")
    param = kind_param(kind, instance)
    transformed = forward_transform(kind, instance)
    if kind == "RT_TO_ZRT" or kind == "APAHT_TO_RT":
        witness = find_mono_subset(transformed, target + 1)
    elif kind == "AHT_TO_ZRT":
        if target < 2:
            raise PreconditionError("AHT_TO_ZRT needs target >= 2")
        witness = find_mono_subset(transformed, target)
    else:
        witness = find_afs_mono(transformed, target, window=transformed.window)

    def report(mapped=None, passed=None, colour=None):
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

    if witness is None:
        return report()
    mapped = backward_transform(kind, witness)

    # colour observed on the transformed side (None if the check is vacuous)
    if kind == "ZRT_TO_AHT":
        witness_tuples = sorted(adjacent_tuples(witness, transformed.dim))
        witness_colour = transformed.table.get(witness_tuples[0]) if witness_tuples else None
    else:
        first = next(combinations(witness, transformed.dim), None)
        witness_colour = transformed.table.get(first) if first else None

    # tuples the mapped-back object must colour monochromatically
    if kind == "RT_TO_ZRT" or kind == "ZRT_TO_AHT":
        tuples = combinations(mapped, instance.dim)
    else:
        tuples = sorted(adjacent_tuples(mapped, instance.dim))
    mono, colour = _mono_colour(instance.table, tuples)
    passed = mono
    if passed and colour is not None and witness_colour is not None:
        passed = colour == witness_colour
    if kind == "APAHT_TO_RT":
        passed = passed and is_apart(mapped)
    return report(mapped=mapped, passed=passed, colour=colour)
