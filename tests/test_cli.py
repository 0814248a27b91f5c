import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import irl
from irl.cli import main
from irl.colouring import (
    Colouring,
    DifferenceColouring,
    colouring_from_json,
    colouring_to_json,
    from_differences,
    sets_domain,
)


@pytest.fixture
def files(tmp_path):
    def dump(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    parity = from_differences(
        DifferenceColouring(1, 12, 2, {(z,): z % 2 for z in range(1, 13)}), 12)
    out = {
        "parity": dump("parity.json", colouring_to_json(parity)),
        "anchored": dump("anchored.json", colouring_to_json(
            Colouring(2, 8, 2, "sets", {t: t[0] % 2 for t in sets_domain(2, 8)}))),
        "differences": dump("differences.json", colouring_to_json(
            DifferenceColouring(1, 5, 3, {(z,): z % 3 for z in range(1, 6)}))),
        "vectors": dump("vectors.json", colouring_to_json(
            Colouring(1, 4, 2, "vectors", {(x,): x % 2 for x in range(1, 5)}))),
        "oracle": dump("oracle.json", {"events": [[0, 2], [3, 5]]}),
        "broken": dump("broken.json", {"dim": 2}),
        "dir": tmp_path,
    }
    return out


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_check_invariance_true(files, capsys):
    code, out = run(capsys, "check-invariance", "--input", files["parity"])
    assert code == 0
    assert out == '{"invariant": true}\n'


def test_check_invariance_false_carries_witness(files, capsys):
    code, out = run(capsys, "check-invariance", "--input", files["anchored"])
    assert code == 0
    payload = json.loads(out)
    assert payload["invariant"] is False
    (t1, c1), (t2, c2) = payload["witness"]
    assert c1 != c2


def test_to_and_from_differences_round_trip(files, capsys):
    code, out = run(capsys, "to-differences", "--input", files["parity"])
    assert code == 0
    dc = json.loads(out)
    assert dc["mode"] == "differences"
    path = files["dir"] / "dc.json"
    path.write_text(out)
    code, out = run(capsys, "from-differences", "--input", str(path), "--window", "12")
    assert code == 0
    assert colouring_from_json(json.loads(out)) == colouring_from_json(
        json.loads(Path(files["parity"]).read_text()))


def test_reduce_verify(files, capsys):
    code, out = run(capsys, "reduce", "--kind", "ZRT_TO_AHT",
                    "--input", files["parity"], "--m", "3")
    assert code == 0
    report = json.loads(out)
    assert report["witness"] == [2, 4, 6]
    assert report["mapped"] == [2, 6, 12]
    assert report["pass"] is True


def test_reduce_forward_and_backward(files, capsys):
    code, out = run(capsys, "reduce", "--kind", "RT_TO_ZRT", "--op", "backward",
                    "--solution", "[4, 7, 12, 20]")
    assert code == 0
    assert json.loads(out) == [3, 8, 16]
    code, out = run(capsys, "reduce", "--kind", "ZRT_TO_AHT", "--op", "forward",
                    "--input", files["parity"])
    assert code == 0
    assert json.loads(out)["mode"] == "vectors"


def test_search_subcommand(files, capsys):
    code, out = run(capsys, "search", "--input", files["parity"], "--m", "4")
    assert code == 0
    assert json.loads(out) == {"witness": [0, 2, 4, 6], "colour": 0}


def test_search_vectors_mode(files, capsys, tmp_path):
    vec = Colouring(1, 12, 2, "vectors", {(z,): z % 2 for z in range(1, 13)})
    path = tmp_path / "vec.json"
    path.write_text(json.dumps(colouring_to_json(vec)))
    code, out = run(capsys, "search", "--input", str(path), "--m", "3", "--window", "12")
    assert code == 0
    assert json.loads(out) == {"witness": [2, 4, 6], "colour": 0}


def test_finite_number_json_and_csv(files, capsys):
    code, out = run(capsys, "finite-number", "--principle", "RT", "--dim", "1",
                    "--k", "2", "--m", "3", "--cap", "10")
    assert code == 0
    assert out == '{"N": 5}\n'
    code, out = run(capsys, "finite-number", "--principle", "RT", "--dim", "1",
                    "--k", "2", "--m", "3", "--cap", "10", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "principle,dim,k,m,N,witness_or_counterexample"
    assert lines[1].startswith("RT,1,2,3,5,")


def test_oracle_demo(files, capsys):
    code, out = run(capsys, "oracle-demo", "--oracle", files["oracle"],
                    "--length", "3", "--query", "3")
    assert code == 0
    assert out == '{"witness": [96, 384, 1536], "decoded": true}\n'


def test_oracle_demo_refuses_a_sequence_that_is_not_one_one(files, capsys, monkeypatch):
    # the guard before decoding: a synthesized sequence must be (1,1)-monochromatic
    monkeypatch.setattr("irl.cli.synthesize_solution", lambda oracle, m: [1, 2, 4])
    code, out = run(capsys, "oracle-demo", "--oracle", files["oracle"], "--length", "3", "--query", "3")
    assert code == 1 and out.count("\n") == 1
    assert json.loads(out) == {"error": {"code": "precondition",
                                         "message": "synthesized sequence is not (1,1)-monochromatic at pair (2, 4)"}}


def test_byte_identical_reruns(files, capsys):
    _, first = run(capsys, "reduce", "--kind", "ZRT_TO_AHT",
                   "--input", files["parity"], "--m", "3")
    _, second = run(capsys, "reduce", "--kind", "ZRT_TO_AHT",
                    "--input", files["parity"], "--m", "3")
    assert first == second


def test_out_flag_writes_file(files, capsys):
    target = files["dir"] / "report.json"
    code, out = run(capsys, "check-invariance", "--input", files["parity"],
                    "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == '{"invariant": true}\n'


@pytest.mark.parametrize("argv, expected_code", [
    (("check-invariance", "--input", "/nonexistent/x.json"), "format"),
    (("reduce", "--kind", "NOPE", "--op", "backward", "--solution", "[1,2]"), "precondition"),
    (("reduce", "--kind", "AHT_TO_ZRT", "--op", "backward", "--solution", "[5]"), "precondition"),
    (("oracle-demo", "--oracle", "/nonexistent/w.json", "--length", "1", "--query", "0"), "format"),
])
def test_error_paths_have_stable_codes(files, capsys, argv, expected_code):
    code, out = run(capsys, *argv)
    assert code == 1
    payload = json.loads(out)
    assert payload["error"]["code"] == expected_code


@pytest.mark.parametrize("argv, code, message", [
    (("reduce", "--kind", "RT_TO_ZRT", "--op", "backward"), "precondition",
     "reduce --op backward requires --solution"),
    (("reduce", "--kind", "RT_TO_ZRT", "--op", "backward", "--solution", '[1, "a"]'), "format",
     "solution must be a JSON array of integers"),
    (("reduce", "--kind", "RT_TO_ZRT", "--op", "backward", "--solution", "[-1,2]"), "precondition",
     "RT_TO_ZRT requires non-negative integer entries, got -1"),
    (("to-differences", "--input", "{vectors}"), "precondition",
     "to_differences expects a sets-mode instance, got 'vectors'"),
    (("reduce", "--kind", "RT_TO_ZRT", "--op", "forward"), "precondition", "reduce --op forward requires --input"),
    (("reduce", "--kind", "RT_TO_ZRT", "--input", "{parity}"), "precondition", "reduce --op verify requires --m"),
    (("reduce", "--kind", "RT_TO_ZRT", "--op", "forward", "--input", "{differences}"), "precondition",
     "reduce expects a Colouring instance, got DifferenceColouring"),
    (("search", "--input", "{differences}", "--m", "2"), "precondition",
     "search expects a Colouring instance, got DifferenceColouring"),
    (("check-invariance", "--input", "{differences}"), "precondition",
     "check-invariance expects a Colouring instance, got DifferenceColouring"),
    (("from-differences", "--input", "{differences}"), "precondition", "from-differences requires --window"),
    (("finite-number", "--principle", "NOPE", "--dim", "1", "--k", "2", "--m", "3", "--cap", "4"), "precondition",
     "--principle must be one of ('RT', 'ZRT', 'SEPZRT', 'AHT', 'APAHT'), got 'NOPE'"),
    (("oracle-demo", "--oracle", "{oracle}", "--length", "2"), "precondition", "oracle-demo requires --query"),
])
def test_missing_and_malformed_arguments_name_their_check(files, capsys, argv, code, message):
    status, out = run(capsys, *(arg.format(**files) for arg in argv))
    assert status == 1
    assert json.loads(out) == {"error": {"code": code, "message": message}}


def test_solution_read_from_a_file(files, capsys):
    path = files["dir"] / "solution.json"
    path.write_text("[1, 3]")
    assert run(capsys, "reduce", "--kind", "RT_TO_ZRT", "--op", "backward", "--solution", str(path)) == (0, "[2]\n")


def test_out_pointing_at_a_directory_is_a_format_error(files, capsys):
    target = str(files["dir"])
    with pytest.raises(OSError) as info:
        open(target, "w")
    code, out = run(capsys, "check-invariance", "--input", files["parity"], "--out", target)
    assert code == 1
    assert json.loads(out) == {"error": {"code": "format", "message": f"cannot write {target}: {info.value}"}}


def test_argument_errors_are_format_errors(files, capsys):
    code, out = run(capsys, "search", "--input", files["parity"], "--m", "abc")
    assert code == 1
    assert out.count("\n") == 1
    assert json.loads(out)["error"]["code"] == "format"


def test_help_still_exits_cleanly(capsys):
    with pytest.raises(SystemExit) as info:
        main(["search", "--help"])
    assert info.value.code == 0
    assert "usage: irl search" in capsys.readouterr().out


def test_search_window_above_instance_window_is_refused(files, capsys, tmp_path):
    vec = Colouring(1, 12, 2, "vectors", {(z,): z % 2 for z in range(1, 13)})
    path = tmp_path / "vec.json"
    path.write_text(json.dumps(colouring_to_json(vec)))
    code, out = run(capsys, "search", "--input", str(path), "--m", "3",
                    "--window", "99999999999999999999")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "precondition"


def test_search_window_on_sets_instance_is_refused(files, capsys):
    code, out = run(capsys, "search", "--input", files["parity"], "--m", "4", "--window", "12")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "precondition"


def test_integer_literals_above_the_conversion_limit_are_format_errors(files, capsys):
    path = files["dir"] / "long.json"
    path.write_text('{"dim": ' + "1" * 5000 + ', "window": 3, "palette": 2, "mode": "sets", "entries": []}')
    for argv in (("check-invariance", "--input", str(path)),
                 ("reduce", "--kind", "RT_TO_ZRT", "--op", "backward", "--solution", "[" + "1" * 5000 + "]")):
        code, out = run(capsys, *argv)
        assert code == 1 and out.count("\n") == 1
        assert json.loads(out)["error"]["code"] == "format"


def test_malformed_colouring_file(files, capsys):
    code, out = run(capsys, "check-invariance", "--input", files["broken"])
    assert code == 1
    assert json.loads(out)["error"]["code"] == "format"


def test_budget_env_override(files, capsys, monkeypatch):
    monkeypatch.setenv("IRL_BUDGET", "4")
    code, out = run(capsys, "finite-number", "--principle", "RT", "--dim", "1",
                    "--k", "2", "--m", "3", "--cap", "10")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "budget"
    for raw in ("not-a-number", "0"):
        monkeypatch.setenv("IRL_BUDGET", raw)
        code, out = run(capsys, "finite-number", "--principle", "RT", "--dim", "1",
                        "--k", "2", "--m", "3", "--cap", "10")
        assert code == 1
        assert json.loads(out)["error"] == {"code": "format",
                                            "message": f"IRL_BUDGET must be a positive integer, got {raw!r}"}


def test_window_exhausted_error_code(files, capsys):
    code, out = run(capsys, "oracle-demo", "--oracle", files["oracle"],
                    "--length", "1", "--query", "40")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "window-exhausted"


def test_seed_flag_is_accepted(files, capsys):
    code, out = run(capsys, "check-invariance", "--input", files["parity"], "--seed", "7")
    assert code == 0
    assert out == '{"invariant": true}\n'


SRC = str(Path(irl.__file__).resolve().parent.parent)


def fresh(*argv):
    """(exit code, stdout) of ``irl`` run in a new interpreter, with a 10 s ceiling."""
    env = dict(os.environ, PYTHONPATH=SRC, COLUMNS="80")
    done = subprocess.run([sys.executable, "-m", "irl.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=10)
    return done.returncode, done.stdout


@pytest.fixture
def wide(tmp_path):
    """Two-entry inputs whose windows are far too wide to materialize."""
    def dump(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return {
        "differences": dump("wide_differences.json", {
            "dim": 1, "window": 5, "palette": 2, "mode": "differences",
            "entries": [[[1], 0], [[2], 1]]}),
        "sets": dump("wide_sets.json", {
            "dim": 2, "window": 100000, "palette": 2, "mode": "sets",
            "entries": [[[0, 5], 0], [[7, 99999], 1]]}),
        "vectors": dump("wide_vectors.json", {
            "dim": 2, "window": 100000, "palette": 2, "mode": "vectors",
            "entries": [[[1, 2], 0], [[3, 4], 1]]}),
    }


@pytest.mark.parametrize("argv", [
    ("from-differences", "--input", "{differences}", "--window", "100000"),
    ("reduce", "--kind", "RT_TO_ZRT", "--op", "forward", "--input", "{sets}"),
    ("reduce", "--kind", "AHT_TO_ZRT", "--op", "forward", "--input", "{vectors}"),
])
def test_materialization_beyond_the_budget_is_refused(wide, argv):
    code, out = fresh(*(arg.format(**wide) for arg in argv))
    assert code == 1
    assert out.count("\n") == 1
    assert json.loads(out)["error"]["code"] == "budget"


def test_verify_into_zrt_builds_no_lift_and_charges_none(wide):
    # the forward map's lift of the wide sets file is refused, while verify's search follows its two entries
    refusal = ('{"error": {"code": "budget", "message": "materializing 166666666650000 3-tuples '
               'over window 100000 exceeds the budget of 1000000"}}\n')
    assert fresh("reduce", "--kind", "RT_TO_ZRT", "--op", "forward", "--input", wide["sets"]) == (1, refusal)
    assert fresh("reduce", "--kind", "RT_TO_ZRT", "--m", "2", "--input", wide["sets"]) == (0, (
        '{"kind": "RT_TO_ZRT", "params": 2, "window": 100000, "target": 2, "witness": [0, 7, 99999], '
        '"mapped": [7, 99999], "pass": true, "colour": 1}\n'))
    assert fresh("reduce", "--kind", "RT_TO_ZRT", "--m", "3", "--input", wide["sets"]) == (0, (
        '{"kind": "RT_TO_ZRT", "params": 2, "window": 100000, "target": 3, "witness": null, '
        '"mapped": null, "pass": null, "colour": null}\n'))
    # with no charge first, verify's own target check answers
    assert fresh("reduce", "--kind", "AHT_TO_ZRT", "--m", "2", "--input", wide["vectors"]) == (1, (
        '{"error": {"code": "precondition", "message": "AHT_TO_ZRT needs target >= 3 on a dim-2 instance, '
        'got 2"}}\n'))


@pytest.mark.parametrize("kind, payload, expected", [
    ("APAHT_TO_RT",
     {"dim": 3, "window": 2**65 - 1, "palette": 2, "mode": "vectors", "entries": [[[1, 2, 4], 1]]},
     '{"dim": 4, "window": 65, "palette": 2, "mode": "sets", "entries": [[[0, 1, 2, 3], 1]]}\n'),
    ("APAHT_TO_RT",
     {"dim": 4, "window": 2**64 - 1, "palette": 2, "mode": "vectors", "entries": [[[1, 2, 4, 8], 1]]},
     '{"dim": 5, "window": 64, "palette": 2, "mode": "sets", "entries": [[[0, 1, 2, 3, 4], 1]]}\n'),
    ("ZRT_TO_AHT",
     {"dim": 3, "window": 1_000_000, "palette": 2, "mode": "sets", "entries": [[[0, 1, 3], 1], [[5, 6, 8], 1]]},
     '{"dim": 2, "window": 1000000, "palette": 2, "mode": "vectors", "entries": [[[1, 2], 1]]}\n'),
], ids=["apaht-2^65", "apaht-2^64", "zrt-10^6"])
def test_forward_maps_that_lift_nothing_read_only_the_entries(tmp_path, kind, payload, expected):
    # their target domains hold C(66, 4), C(65, 5) and C(10^6, 2) tuples
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(payload))
    assert fresh("reduce", "--kind", kind, "--op", "forward", "--input", str(path)) == (0, expected)


def test_a_witness_past_bit_64_is_refused_by_the_backward_map(tmp_path):
    # the blocks of positions (63, 64), (64, 65) and (63, 65) colour the 3-set {63, 64, 65},
    # whose second block, block(64, 64), does not fit 64 bits
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"dim": 1, "window": 2**65 - 1, "palette": 1, "mode": "vectors",
                                "entries": [[[2**63], 0], [[2**64], 0], [[2**65 - 2**63], 0]]}))
    code, out = fresh("reduce", "--kind", "APAHT_TO_RT", "--input", str(path), "--m", "2")
    assert code == 1
    assert out.count("\n") == 1
    assert json.loads(out)["error"] == {"code": "overflow", "message": "block(64, 64) exceeds the 64-bit limit"}


def test_lifting_an_empty_table_of_long_vectors_builds_nothing(tmp_path):
    # the lift walks the table's entries, not the 100,000 tuples of the window
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"dim": 99_998, "window": 99_999, "palette": 1,
                                "mode": "differences", "entries": []}))
    code, out = fresh("from-differences", "--input", str(path), "--window", "99999")
    assert code == 0
    assert json.loads(out) == {"dim": 99_999, "window": 99_999, "palette": 1, "mode": "sets",
                               "entries": []}


def test_finite_number_charges_each_tuple_of_a_candidate():
    # each candidate 60-subset colours C(60, 2) = 1770 pairs
    code, out = fresh("finite-number", "--principle", "RT", "--dim", "2", "--k", "2",
                      "--m", "60", "--cap", "300")
    assert code == 1
    assert out.count("\n") == 1
    assert json.loads(out)["error"]["code"] == "budget"


def test_finite_number_steps_through_apart_candidates(monkeypatch):
    # each next APAHT element is a multiple of 2^(bit length of the last one),
    # so the refusal comes after about 3 M budget units, not 12 M skipped values
    monkeypatch.setenv("IRL_BUDGET", "3000000")
    code, out = fresh("finite-number", "--principle", "APAHT", "--dim", "1", "--k", "2",
                      "--m", "3", "--cap", "1000000")
    assert code == 1
    assert out.count("\n") == 1
    assert json.loads(out)["error"]["code"] == "budget"


def test_search_on_a_sparse_wide_sets_instance_is_fast(wide):
    code, out = fresh("search", "--input", wide["sets"], "--m", "3")
    assert code == 0
    assert out == '{"witness": null, "colour": null}\n'


def test_cached_parser_prints_what_a_fresh_process_prints(files, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    target = files["dir"] / "cached.json"
    sequence = [
        ("search", "--input", files["parity"], "--m", "abc"),
        ("search", "--input", files["parity"], "--m", "4"),
        ("reduce", "--kind", "ZRT_TO_AHT", "--input", files["parity"], "--m", "3"),
        ("check-invariance", "--input", files["anchored"], "--out", str(target)),
        ("check-invariance", "--input", files["anchored"]),
        ("to-differences", "--input", files["parity"]),
        ("search", "--help"),
        ("finite-number", "--principle", "RT", "--dim", "1", "--k", "2", "--m", "3", "--cap", "10"),
    ]

    def in_process(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # --help
            code = exc.code
        return code, capsys.readouterr().out

    def outcome(runner, argv):
        result = runner(argv)
        written = target.read_text() if target.exists() else None
        target.unlink(missing_ok=True)
        return result, written

    for argv in sequence:
        assert outcome(in_process, argv) == outcome(lambda a: fresh(*a), argv), argv


DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("argv, prefix", [
    (("check-invariance", "--input", "{deep}"), "{deep} is not valid JSON: "),
    (("oracle-demo", "--oracle", "{deep}", "--m", "2", "--query", "0"), "{deep} is not valid JSON: "),
    (("reduce", "--kind", "RT_TO_ZRT", "--op", "backward", "--solution", "{deep}"), "{deep} is not valid JSON: "),
    (("reduce", "--kind", "RT_TO_ZRT", "--op", "backward", "--solution", DEEP), "inline solution is not valid JSON: "),
], ids=["check-invariance", "oracle-demo", "solution-path", "solution-inline"])
def test_json_nested_too_deeply_is_a_format_error(files, capsys, argv, prefix):
    deep = files["dir"] / "deep.json"
    deep.write_text(DEEP)
    code, out = run(capsys, *(arg.replace("{deep}", str(deep)) for arg in argv))
    assert code == 1 and out.count("\n") == 1
    error = json.loads(out)["error"]
    assert error["code"] == "format"
    assert error["message"].startswith(prefix.replace("{deep}", str(deep)))


def test_a_file_that_is_not_utf8_is_a_format_error(files, capsys):
    path = files["dir"] / "latin1.json"
    path.write_bytes(b"[1, \xff]")
    code, out = run(capsys, "check-invariance", "--input", str(path))
    assert code == 1 and out.count("\n") == 1
    error = json.loads(out)["error"]
    assert error["code"] == "format"
    assert error["message"].startswith(f"{path} is not valid JSON: 'utf-8' codec can't decode")
