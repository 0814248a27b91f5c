#!/usr/bin/env python3
"""Run the benchmark on two revisions in alternating pairs and write BENCH_<label>.json.

Usage:
  python scripts/bench_pairs.py BASE CHANGE --label NAME

Each revision is exported with ``git archive`` into a temporary directory,
and the command of its ``BENCHMARK.json`` is run there unchanged with
``--workload W --seed S --seconds T --trace 0``, T being its
``run_seconds``, on every workload it lists.  Each workload gets ten
pairs; pair i of workload w uses seed ``10001 + 100 * w + i`` on both
sides, and the base runs first in even pairs and the change in odd ones.
Both exports must hold the same ``perfbench/`` and ``BENCHMARK.json``.

The file written holds, per workload and end-to-end metric, each side's
median and quartiles, the base's interquartile range, the pairs the change
won (better in the direction ``BENCHMARK.json`` gives, ties counting for
neither side) and three verdicts:

- ``gain``: ten complete pairs, at least nine of them won, and the medians
  apart, in the better direction, by more than the base's interquartile
  range;
- ``within_bound``: the change's median is no worse than the base's by
  more than the metric's ``bound`` (a share of the base median);
- ``unresolved``: the base's interquartile range is wider than that bound,
  so the runs cannot show it held, unless every change run beats every
  base run.

Each workload's summary also holds, under ``kind_medians``, each side's
median over its runs of every op kind's median latency in ms, with no
verdict: it shows which op moved (``subset.separated``, say) and which did
not.  Under ``kind_shares`` it holds, the same way, each side's median of
every op kind's ``share`` of the cycle, which shows a kind's part of the
cycle fall or rise.  Under ``attempted`` it holds each side's median over
its runs of the ``attempted`` op count that the run's last line reports,
also with no verdict: a faster side completes more ops in the same run
length, and the benchmark's RSS grows with them.  Each untraced run keeps,
as ``latency_by_kind_ms``, that part of the record the benchmark writes
under its export's ``perfbench/results/``.

It also holds every run's seed, order, ``correct``, ``failed`` and
metrics, the Python version and CPU count, and under ``src_lines`` each
side's line count of ``src/irl/*.py`` (the total ``wc -l`` prints).

Under ``traced`` it holds three more alternating pairs per workload, run
with ``--trace 1``, and each side's median of every per-layer metric, with
no verdict: a traced run shows which layer moved
(``search.subset.self_s``, say) and whether its counts stayed.
"""

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")
PAIRS = 10
TRACED_PAIRS = 3
SEED = 10001


def quartiles(values):
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(runs, end_to_end):
    """Per-workload summary of paired runs.

    ``runs`` holds dicts with ``workload``, ``pair``, ``side`` ("base" or
    "change") and ``result``, the last stdout line of the benchmark parsed
    as JSON (None when the run produced none).  ``end_to_end`` is the list
    of the same name in ``BENCHMARK.json``.
    """
    out = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        pairs = {}
        for run in runs:
            if run["workload"] == workload:
                pairs.setdefault(run["pair"], {})[run["side"]] = run["result"]
        complete = [p for p in pairs.values() if all(p.get(side) is not None for side in SIDES)]
        metrics = {}
        for spec in end_to_end if complete else ():
            name, sign = spec["name"], 1 if spec["better"] == "higher" else -1
            base = [p["base"]["metrics"][name]["value"] for p in complete]
            change = [p["change"]["metrics"][name]["value"] for p in complete]
            gains = [sign * (c - b) for b, c in zip(base, change)]
            (b1, bm, b3), (c1, cm, c3) = quartiles(base), quartiles(change)
            allowed = spec["bound"] * abs(bm)
            metrics[name] = {
                "unit": spec["unit"],
                "better": spec["better"],
                "base_median": bm,
                "base_quartiles": [b1, b3],
                "base_iqr": b3 - b1,
                "change_median": cm,
                "change_quartiles": [c1, c3],
                "change_over_base": cm / bm - 1 if bm else None,
                "pairs_won": sum(g > 0 for g in gains),
                "pairs_lost": sum(g < 0 for g in gains),
                "gain": (len(complete) >= PAIRS and sum(g > 0 for g in gains) >= 0.9 * len(complete)
                         and sign * (cm - bm) > b3 - b1),
                "within_bound": sign * (cm - bm) >= -allowed,
                "unresolved": b3 - b1 > allowed and not min(sign * c for c in change) > max(sign * b for b in base),
            }
        out[workload] = {
            "pairs": len(complete),
            "all_correct": all(run["result"] is not None and run["result"]["correct"] is True
                               and run["result"]["failed"] == 0
                               for run in runs if run["workload"] == workload),
            "metrics": metrics,
            "kind_medians": by_kind(runs, workload, "median"),
            "kind_shares": by_kind(runs, workload, "share"),
            "attempted": attempted(runs, workload),
        }
    return out


def attempted(runs, workload):
    """Each side's median ``attempted`` op count over the workload's runs that gave a result, or None if none did."""
    counts = {side: [run["result"]["attempted"] for run in runs
                     if run["workload"] == workload and run["side"] == side and run["result"] is not None]
              for side in SIDES}
    return {side: statistics.median(values) if values else None for side, values in counts.items()}


def by_kind(runs, workload, field):
    """Each side's median over the workload's runs of every op kind's ``field``, from the runs that kept them."""
    values = {side: {} for side in SIDES}
    for run in runs:
        if run["workload"] == workload:
            for kind, latency in (run.get("latency_by_kind_ms") or {}).items():
                values[run["side"]].setdefault(kind, []).append(latency[field])
    return {side: {kind: statistics.median(v) for kind, v in sorted(kinds.items())} for side, kinds in values.items()}


def latency_by_kind(copy, workload, seed):
    """``latency_by_kind_ms`` of the untraced record that the benchmark in ``copy`` wrote for this run."""
    record = copy / "perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(record.read_text()).get("latency_by_kind_ms") if record.is_file() else None


def layer_medians(runs):
    """Per workload, each side's median of every per-layer metric, over its traced runs that gave a result."""
    out = {}
    for run in runs:
        if run["result"] is not None:
            values = out.setdefault(run["workload"], {side: {} for side in SIDES})[run["side"]]
            for name, metric in run["result"]["metrics"].items():
                if metric["value"] is not None:
                    values.setdefault(name, []).append(metric["value"])
    return {workload: {side: {name: statistics.median(v) for name, v in values.items()}
                       for side, values in sides.items()}
            for workload, sides in out.items()}


def export(revision, directory):
    archive = subprocess.run(["git", "archive", revision], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(directory)


def benchmark_files(copy):
    paths = [copy / "BENCHMARK.json", *(copy / "perfbench").rglob("*")]
    return {p.relative_to(copy): p.read_bytes() for p in paths if p.is_file()}


def src_lines(copy):
    """The newlines in ``src/irl/*.py`` of ``copy``: the total that ``wc -l src/irl/*.py`` prints."""
    return sum(path.read_bytes().count(b"\n") for path in (copy / "src" / "irl").glob("*.py"))


def run_once(command, copy, workload, seed, seconds, trace=0):
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=copy, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--label", required=True)
    args = parser.parse_args()

    revisions = {side: subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True, capture_output=True,
                                      text=True).stdout.strip()
                 for side, rev in zip(SIDES, (args.base, args.change))}
    with tempfile.TemporaryDirectory() as scratch:
        copies = {side: Path(scratch) / side for side in SIDES}
        for side in SIDES:
            export(revisions[side], copies[side])
        if benchmark_files(copies["base"]) != benchmark_files(copies["change"]):
            sys.exit("the two revisions hold different benchmark files")
        lines = {side: src_lines(copies[side]) for side in SIDES}
        spec = json.loads((copies["base"] / "BENCHMARK.json").read_text())
        workloads = [w["name"] for w in spec["workloads"]]
        command = spec["command"]
        seconds = spec["run_seconds"]
        python = subprocess.run([command[0], "-c", "import platform; print(platform.python_version())"],
                                capture_output=True, text=True).stdout.strip()

        def run_pairs(workload, w, pairs, trace):
            runs = []
            for pair in range(pairs):
                seed = SEED + 100 * w + pair
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for position, side in enumerate(order):
                    result = run_once(command, copies[side], workload, seed, seconds, trace)
                    runs.append({"workload": workload, "pair": pair, "seed": seed, "side": side,
                                 "ran": "first" if position == 0 else "second", "result": result})
                    if not trace and result is not None:
                        runs[-1]["latency_by_kind_ms"] = latency_by_kind(copies[side], workload, seed)
                    status = "no result" if result is None else f"correct {result['correct']}, failed {result['failed']}"
                    print(f"{workload} {'traced ' if trace else ''}pair {pair} {side}: {status}", flush=True)
            return runs

        runs = [run for w, workload in enumerate(workloads) for run in run_pairs(workload, w, PAIRS, 0)]
        traced = [run for w, workload in enumerate(workloads) for run in run_pairs(workload, w, TRACED_PAIRS, 1)]

    def command_line(trace):
        return command + ["--workload", "W", "--seed", "S", "--seconds", str(seconds), "--trace", str(trace)]

    record = {
        "label": args.label,
        "revisions": revisions,
        "command": command_line(0),
        "python": python,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "src_lines": lines,
        "summary": summarize(runs, spec["end_to_end"]),
        "runs": runs,
        "traced": {"command": command_line(1), "medians": layer_medians(traced), "runs": traced},
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
