"""Command-line front end.

Subcommands: check-invariance, to-differences, from-differences, reduce,
search, finite-number, oracle-demo.  Output is JSON on stdout (or --out),
CSV for finite-number sweeps on request.  Every failure is reported as a
single-line error object with a stable code and a nonzero exit status;
malformed input files never produce a traceback.

All shipped subcommands are deterministic; --seed is accepted so that run
configurations can carry one, and is reserved for sampled generation.
"""

import argparse
import functools
import io
import json
import sys

from irl.colouring import Colouring, DifferenceColouring, colouring_from_json, colouring_to_json, from_differences
from irl.colouring import invariance_witness, to_differences
from irl.errors import FormatError, IrlError, PreconditionError, check_instance
from irl.oracle import decode, encode_colour, oracle_from_json, pair_colour, synthesize_solution
from irl.reduce import KINDS, backward_transform, forward_transform, verify_reduction
from irl.search import (
    PRINCIPLES,
    FiniteNumberQuery,
    find_afs_mono,
    find_mono_subset,
    finite_number,
    sweep_finite_numbers,
    witness_colour,
)
from irl.sums import adjacent_tuples


# Every object the CLI writes is built by the package and holds no cycle, so
# one encoder serves every call without the circular-reference pass.
_encode = json.JSONEncoder(check_circular=False).encode


def _parse_json(read, what):
    """The JSON that ``read()`` returns, or a format error naming ``what``."""
    try:
        return json.loads(read())
    except (ValueError, RecursionError) as exc:  # not UTF-8, malformed, over 4300 digits, or nested too deeply
        raise FormatError(f"{what} is not valid JSON: {exc}") from None


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return _parse_json(handle.read, path)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None


def _load_colouring(path, cls, command):
    """The colouring or difference table at ``path``, refused in ``command``'s name unless it is a ``cls``."""
    return check_instance(colouring_from_json(_load_json(path)), cls, command)


def _load_sequence(text):
    """A solution sequence, either inline JSON or a path to a JSON file."""
    if text.lstrip().startswith("["):
        data = _parse_json(lambda: text, "inline solution")
    else:
        data = _load_json(text)
    if not isinstance(data, list) or any(not isinstance(x, int) or isinstance(x, bool) for x in data):
        raise FormatError("solution must be a JSON array of integers")
    return tuple(data)


def _check_dim(args, instance):
    if args.dim is not None and args.dim != instance.dim:
        raise PreconditionError(
            f"--dim {args.dim} does not match the instance arity {instance.dim}"
        )


def _cmd_check_invariance(args):
    instance = _load_colouring(args.input, Colouring, args.command)
    witness = invariance_witness(instance)
    if witness is None:
        return _encode({"invariant": True})
    return _encode({"invariant": False, "witness": witness})


def _cmd_to_differences(args):
    instance = _load_colouring(args.input, Colouring, args.command)
    return _encode(colouring_to_json(to_differences(instance)))


def _cmd_from_differences(args):
    table = _load_colouring(args.input, DifferenceColouring, args.command)
    if args.window is None:
        raise PreconditionError("from-differences requires --window")
    return _encode(colouring_to_json(from_differences(table, args.window)))


def _cmd_reduce(args):
    if args.kind not in KINDS:
        raise PreconditionError(f"--kind must be one of {KINDS}, got {args.kind!r}")
    if args.op == "backward":
        if args.solution is None:
            raise PreconditionError("reduce --op backward requires --solution")
        mapped = backward_transform(args.kind, _load_sequence(args.solution))
        return _encode(mapped)
    if args.input is None:
        raise PreconditionError(f"reduce --op {args.op} requires --input")
    instance = _load_colouring(args.input, Colouring, args.command)
    _check_dim(args, instance)
    if args.op == "forward":
        return _encode(colouring_to_json(forward_transform(args.kind, instance)))
    if args.m is None:
        raise PreconditionError("reduce --op verify requires --m")
    report = verify_reduction(args.kind, instance, args.m)
    return _encode(report.to_json_dict())


def _cmd_search(args):
    instance = _load_colouring(args.input, Colouring, args.command)
    _check_dim(args, instance)
    if args.m is None:
        raise PreconditionError("search requires --m")
    if args.window is not None:
        if instance.mode == "sets":
            raise PreconditionError("--window applies to vectors-mode instances only")
        if args.window > instance.window:
            raise PreconditionError(
                f"--window {args.window} exceeds the instance window {instance.window}"
            )
    if instance.mode == "sets":
        witness = find_mono_subset(instance, args.m)
    else:
        witness = find_afs_mono(instance, args.m, window=args.window)
    colour = None if witness is None else witness_colour(instance, witness)
    return _encode({"witness": witness, "colour": colour})


def _cmd_finite_number(args):
    for name in ("principle", "dim", "k", "m", "cap"):
        if getattr(args, name) is None:
            raise PreconditionError(f"finite-number requires --{name}")
    if args.principle not in PRINCIPLES:
        raise PreconditionError(f"--principle must be one of {PRINCIPLES}, got {args.principle!r}")
    query = FiniteNumberQuery(args.principle, args.dim, args.k, args.m, args.cap)
    if args.format == "csv":
        buffer = io.StringIO()
        sweep_finite_numbers([query], buffer)
        return buffer.getvalue().rstrip("\n")
    result = finite_number(query)
    if result.value is not None:
        return _encode({"N": result.value})
    return _encode({"N": None, "counterexample": colouring_to_json(result.counterexample)})


def _cmd_oracle_demo(args):
    oracle = oracle_from_json(_load_json(args.oracle))
    if args.m is None:
        raise PreconditionError("oracle-demo requires --length")
    if args.query is None:
        raise PreconditionError("oracle-demo requires --query")
    witness = synthesize_solution(oracle, args.m)
    # the round trip only decodes honestly if the coding colour really is (1, 1)
    for a, b in adjacent_tuples(witness, 2):
        if pair_colour(oracle, a, b) != encode_colour(1, 1):
            raise PreconditionError(
                f"synthesized sequence is not (1,1)-monochromatic at pair ({a}, {b})"
            )
    decoded = decode(witness, oracle, args.query)
    return _encode({"witness": witness, "decoded": decoded})


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage errors as FormatError instead of exiting."""

    def error(self, message):
        raise FormatError(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(
        prog="irl",
        description="Finite-window colouring, reduction, and witness-search workbench.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-invariance", help="test a sets-mode colouring for shift invariance")
    p.add_argument("--input", required=True)
    p.set_defaults(handler=_cmd_check_invariance)

    p = sub.add_parser("to-differences", help="factor a shift-invariant colouring through differences")
    p.add_argument("--input", required=True)
    p.set_defaults(handler=_cmd_to_differences)

    p = sub.add_parser("from-differences", help="lift a difference table to a sets colouring")
    p.add_argument("--input", required=True)
    p.add_argument("--window", type=int)
    p.set_defaults(handler=_cmd_from_differences)

    p = sub.add_parser("reduce", help="run a reduction transform or a full verification round trip")
    p.add_argument("--kind", required=True)
    p.add_argument("--op", choices=("forward", "backward", "verify"), default="verify")
    p.add_argument("--input")
    p.add_argument("--solution", help="solution sequence: inline JSON array or a path")
    p.add_argument("--dim", type=int)
    p.add_argument("--m", "--length", dest="m", type=int, help="solution size sought on the original problem")
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("search", help="find the least monochromatic witness of an instance")
    p.add_argument("--input", required=True)
    p.add_argument("--dim", type=int)
    p.add_argument("--m", "--length", dest="m", type=int)
    p.add_argument("--window", type=int)
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("finite-number", help="least window size at which every colouring has a witness")
    p.add_argument("--principle")
    p.add_argument("--dim", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--m", "--length", dest="m", type=int)
    p.add_argument("--cap", type=int)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=_cmd_finite_number)

    p = sub.add_parser("oracle-demo", help="synthesize a coding sequence from an oracle and decode a query")
    p.add_argument("--oracle", required=True)
    p.add_argument("--m", "--length", dest="m", type=int)
    p.add_argument("--query", type=int)
    p.set_defaults(handler=_cmd_oracle_demo)

    for p in sub.choices.values():
        p.add_argument("--out", help="write the report to this path instead of stdout")
        p.add_argument("--seed", type=int, default=0,
                       help="seed recorded in the run configuration (current subcommands are deterministic)")
    return parser


def _emit(text, args):
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            raise FormatError(f"cannot write {args.out}: {exc}") from None
    else:
        sys.stdout.write(text + "\n")


# Parsing leaves a parser unchanged, so one per process serves every call.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        text = args.handler(args)
        _emit(text, args)
    except IrlError as exc:
        payload = _encode({"error": {"code": exc.code, "message": str(exc)}})
        sys.stdout.write(payload + "\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
