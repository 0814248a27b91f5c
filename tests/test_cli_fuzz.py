"""Fuzzed CLI calls: every one ends in time with JSON output or a one-line JSON error.

Payloads mix well-formed colourings (small and huge windows, sparse
tables) with malformed ones; flags take small, huge and non-numeric
values.  A small candidate budget keeps each call short.
"""

import io
import json
import signal
import tempfile
import time
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from irl import errors
from irl.cli import main
from irl.reduce import KINDS
from irl.search import PRINCIPLES

TIME_BOUND_S = 5.0
CODES = {cls.code for cls in vars(errors).values()
         if isinstance(cls, type) and issubclass(cls, errors.IrlError)}

small = st.integers(-2, 8)
big = st.sampled_from([100, 10**6, 10**12, 2**64, 10**30])
numbers = st.one_of(small, small, big)
flag_numbers = st.one_of(numbers.map(str), st.sampled_from(["abc", "", "1.5", "--m"]))


@st.composite
def colourings(draw):
    """A well-formed colouring payload of any mode, possibly sparse or over a huge window."""
    mode = draw(st.sampled_from(["sets", "vectors", "differences"]))
    dim = draw(st.one_of(st.integers(1, 3), st.integers(1, 3), big))  # big ones stay empty
    window = draw(st.one_of(st.integers(0, 12), big))
    palette = draw(st.integers(1, 3))
    if mode == "sets":
        keys = st.lists(st.integers(0, window), min_size=dim, max_size=dim, unique=True).map(sorted)
    else:
        top = window // dim if mode == "differences" else window
        keys = st.lists(st.integers(1, max(top, 1)), min_size=dim, max_size=dim)
    entries = []
    if dim <= 3 and window >= (dim - 1 if mode == "sets" else dim):
        entries = draw(st.lists(st.tuples(keys, st.integers(0, palette - 1)), max_size=40,
                                unique_by=lambda e: tuple(e[0])))
    return {"dim": dim, "window": window, "palette": palette, "mode": mode,
            "entries": [[key, colour] for key, colour in entries]}


def _malformed():
    key = st.lists(st.one_of(numbers, st.just(True), st.just([1])), max_size=4)
    entry = st.one_of(st.tuples(key, st.one_of(small, st.just(1.5), st.none())).map(list),
                      st.just("entry"), st.just([]))
    return st.fixed_dictionaries({
        "dim": st.one_of(small, st.just("2")),
        "window": st.one_of(numbers, st.none()),
        "palette": small,
        "mode": st.sampled_from(["sets", "vectors", "differences", "other"]),
        "entries": st.one_of(st.lists(entry, max_size=6), st.just({})),
    })


def _oracles():
    event = st.lists(st.one_of(small, big, st.just("x")), min_size=2, max_size=2)
    return st.one_of(st.fixed_dictionaries({"events": st.lists(event, max_size=6)}),
                     st.just({"events": "none"}), st.just([]))


def _solutions():
    return st.one_of(st.lists(numbers, max_size=5).map(json.dumps), st.sampled_from(["[1,", "[true]"]))


FLAGS = {  # subcommand -> (input flag, {flag: value strategy})
    "check-invariance": ("--input", {}),
    "to-differences": ("--input", {}),
    "from-differences": ("--input", {"--window": flag_numbers}),
    "reduce": ("--input", {
        "--kind": st.sampled_from(KINDS + ("NOPE",)),
        "--op": st.sampled_from(["forward", "backward", "verify", "other"]),
        "--solution": _solutions(),
        "--dim": flag_numbers,
        "--m": flag_numbers,
    }),
    "search": ("--input", {"--m": flag_numbers, "--dim": flag_numbers, "--window": flag_numbers}),
    "finite-number": (None, {
        "--principle": st.sampled_from(PRINCIPLES + ("XRT",)),
        "--dim": flag_numbers,
        "--k": flag_numbers,
        # besides the shared numbers: small witness sizes, and caps up to 10^5
        "--m": st.one_of(flag_numbers, st.integers(1, 4).map(str)),
        "--cap": st.one_of(flag_numbers, st.integers(1, 10**5).map(str)),
        "--format": st.sampled_from(["json", "csv"]),
    }),
    "oracle-demo": ("--oracle", {"--length": flag_numbers, "--query": flag_numbers}),
}


@contextmanager
def time_bound(seconds):
    """Raise TimeoutError in the main thread once ``seconds`` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"call still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_calls_end_in_json_or_a_one_line_error(data, monkeypatch):
    monkeypatch.setenv("IRL_BUDGET", "2000")
    command = data.draw(st.sampled_from(sorted(FLAGS)), label="command")
    input_flag, flags = FLAGS[command]
    argv = [command]
    with tempfile.TemporaryDirectory() as directory:
        if input_flag is not None:
            payloads = _oracles() if input_flag == "--oracle" else st.one_of(colourings(), _malformed())
            path = Path(directory) / "input.json"
            path.write_text(json.dumps(data.draw(payloads, label="payload")))
            argv += [input_flag, str(path)]
        for flag, values in flags.items():
            if data.draw(st.booleans(), label=f"with {flag}"):
                argv += [flag, data.draw(values, label=flag)]
        buffer = io.StringIO()
        start = time.perf_counter()
        with time_bound(TIME_BOUND_S), redirect_stdout(buffer):
            code = main(argv)
        elapsed = time.perf_counter() - start
    out = buffer.getvalue()
    assert elapsed < TIME_BOUND_S, argv
    if code == 0 and "csv" in argv:
        assert out.startswith("principle,dim,k,m,N,witness_or_counterexample"), (argv, out)
        return
    assert out.endswith("\n") and out.count("\n") == 1, (argv, out)
    payload = json.loads(out)
    if code != 0:
        assert code == 1, (argv, out)
        assert payload["error"]["code"] in CODES, (argv, out)
