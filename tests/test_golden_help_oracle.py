"""CLI help and oracle-demo stdout pinned byte for byte.

The pinned file was written once, by an earlier version of the package,
from the cases below; like ``cli_stdout.json`` its pins are only ever
added, never rewritten to make a test pass.  Help is formatted at
``COLUMNS=80``; the pins are the output of Python 3.11's argparse.
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

from irl.cli import main

GOLDEN = Path(__file__).with_name("golden") / "cli_help_oracle_stdout.json"
SUBCOMMANDS = ("check-invariance", "to-differences", "from-differences", "reduce", "search",
               "finite-number", "oracle-demo")
ORACLES = {  # label -> events; settle stages 0, 3, 5 and 9
    "empty": [],
    "s3": [[0, 1], [2, 3]],
    "s5": [[1, 0], [3, 5], [4, 2]],
    "s9": [[0, 9], [5, 4], [7, 0]],
}
LENGTHS = (1, 2, 3)
QUERIES = (0, 1, 3, 6, 11)  # the last entry's lowest bit is settle + 2 * (length - 1)


def cases(directory):
    """[(case id, argv)]: every parser's --help, then oracle-demo over files in ``directory``."""
    out = [("help-irl", ["--help"])]
    out += [(f"help-{name}", [name, "--help"]) for name in SUBCOMMANDS]
    for label, events in ORACLES.items():
        path = Path(directory) / f"{label}.json"
        path.write_text(json.dumps({"events": events}))
        for length in LENGTHS:
            for query in QUERIES:
                out.append((f"oracle-demo-{label}-m{length}-q{query}",
                            ["oracle-demo", "--oracle", str(path), "--length", str(length),
                             "--query", str(query)]))
    return out


def run(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        try:
            code = main(argv)
        except SystemExit as exit:  # --help prints and exits
            code = exit.code
    return code, buffer.getvalue()


def test_golden_help_and_oracle_demo_stdout(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    golden = json.loads(GOLDEN.read_text())
    seen = []
    for name, argv in cases(tmp_path):
        code, text = run(argv)
        assert code == (1 if text.startswith('{"error"') else 0), (name, text)
        assert text == golden[name], name
        seen.append(name)
    assert sorted(seen) == sorted(golden)
    assert any('"code": "window-exhausted"' in text for text in golden.values())
