import json

import pytest

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
        json.loads(open(files["parity"]).read()))


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
    monkeypatch.setenv("IRL_BUDGET", "not-a-number")
    code, out = run(capsys, "finite-number", "--principle", "RT", "--dim", "1",
                    "--k", "2", "--m", "3", "--cap", "10")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "format"


def test_window_exhausted_error_code(files, capsys):
    code, out = run(capsys, "oracle-demo", "--oracle", files["oracle"],
                    "--length", "1", "--query", "40")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "window-exhausted"


def test_seed_flag_is_accepted(files, capsys):
    code, out = run(capsys, "check-invariance", "--input", files["parity"], "--seed", "7")
    assert code == 0
    assert out == '{"invariant": true}\n'
