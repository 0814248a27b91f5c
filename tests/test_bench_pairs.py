"""The paired-run summary of scripts/bench_pairs.py, on canned benchmark result lines."""

import json
import subprocess

import pytest

from by_path import ROOT, load

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def line(ops, rss, correct=True, failed=0, attempted=100):
    """A result line as perfbench/run.py prints it, with two of its metrics."""
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": {
        "ops_per_s": {"value": ops, "unit": "1/s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def runs_of(workload, pairs):
    return [{"workload": workload, "pair": i, "side": side, "result": result}
            for i, (base, change) in enumerate(pairs) for side, result in (("base", base), ("change", change))]


METRICS = [spec for spec in END_TO_END if spec["name"] in ("ops_per_s", "peak_rss_mb")]


def test_summary_reports_medians_quartiles_and_pairs_won():
    summarize = load("scripts/bench_pairs.py").summarize
    pairs = [(line(100 + i, 50.0, attempted=1000 + i), line(150 + i, 50.0 + (i % 3 == 0), attempted=1500 + 10 * i))
             for i in range(10)]
    runs = runs_of("w", pairs)
    for run in runs:  # one op kind: base medians 1.0-1.9 ms, change medians in two clusters, 2 and 3 ms
        median = 1 + run["pair"] / 10 if run["side"] == "base" else 2 + run["pair"] % 2
        run["latency_by_kind_ms"] = {"op": {"samples": 5, "median": median, "max": 4.0, "share": 1.0}}
    out = summarize(runs, METRICS)["w"]
    assert out["pairs"] == 10 and out["all_correct"] is True
    ops = out["metrics"]["ops_per_s"]
    assert ops["better"] == "higher" and ops["unit"] == "1/s"
    assert ops["base_median"] == 104.5 and ops["change_median"] == 154.5
    assert ops["base_quartiles"] == [102.25, 106.75] and ops["base_iqr"] == 4.5
    assert ops["change_over_base"] == pytest.approx(50 / 104.5)
    assert (ops["pairs_won"], ops["pairs_lost"], ops["gain"]) == (10, 0, True)
    rss = out["metrics"]["peak_rss_mb"]  # lower is better: 4 pairs lost, 6 tied
    assert (rss["pairs_won"], rss["pairs_lost"], rss["gain"]) == (0, 4, False)
    assert rss["base_iqr"] == 0 and rss["change_median"] == 50.0
    # each side's median op count, with no verdict: RSS grows with the ops a run completes
    assert out["attempted"] == {"base": 1004.5, "change": 1545}
    # each side's quartiles of the kind's per-run medians: the change's median falls between its clusters
    assert out["kind_medians"] == {"base": {"op": pytest.approx(1.45)}, "change": {"op": 2.5}}
    assert out["kind_quartiles"] == {"base": {"op": pytest.approx([1.225, 1.675])}, "change": {"op": [2, 3]}}


def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_median_beyond_the_base_spread():
    summarize = load("scripts/bench_pairs.py").summarize
    eight = [(line(100, 1), line(120 if i < 8 else 90, 1)) for i in range(10)]
    assert summarize(runs_of("w", eight), METRICS)["w"]["metrics"]["ops_per_s"]["gain"] is False
    # every pair won, but by less than the base's own interquartile range
    narrow = [(line(100 + 10 * i, 1), line(101 + 10 * i, 1)) for i in range(10)]
    ops = summarize(runs_of("w", narrow), METRICS)["w"]["metrics"]["ops_per_s"]
    assert ops["pairs_won"] == 10 and ops["gain"] is False


def test_failed_or_missing_runs_are_reported_and_left_out_of_the_pairs():
    summarize = load("scripts/bench_pairs.py").summarize
    pairs = [(line(100, 1), line(110, 1)), (line(100, 1), None), (line(100, 1), line(110, 1, failed=2))]
    out = summarize(runs_of("w", pairs), METRICS)["w"]
    assert out["pairs"] == 2 and out["all_correct"] is False
    assert out["metrics"]["ops_per_s"]["pairs_won"] == 2
    assert summarize(runs_of("v", [(None, None)]), METRICS) == {
        "v": {"pairs": 0, "all_correct": False, "metrics": {}, "kind_medians": {"base": {}, "change": {}},
              "kind_quartiles": {"base": {}, "change": {}}, "kind_shares": {"base": {}, "change": {}},
              "attempted": {"base": None, "change": None}}}


def test_a_gain_needs_ten_complete_pairs():
    summarize = load("scripts/bench_pairs.py").summarize
    for count, gain in ((1, False), (9, False), (10, True)):
        pairs = [(line(100, 1), line(200, 1))] * count
        assert summarize(runs_of("w", pairs), METRICS)["w"]["metrics"]["ops_per_s"]["gain"] is gain, count
    # ten pairs, one of them missing a side: nine complete pairs are not enough
    pairs = [(line(100, 1), line(200, 1))] * 9 + [(line(100, 1), None)]
    assert summarize(runs_of("w", pairs), METRICS)["w"]["metrics"]["ops_per_s"]["gain"] is False


def test_each_metric_is_checked_against_its_bound_or_reported_unresolved():
    summarize = load("scripts/bench_pairs.py").summarize
    bound = {spec["name"]: spec["bound"] for spec in METRICS}
    assert bound == {"ops_per_s": 0.25, "peak_rss_mb": 0.1}

    def verdict(pairs, name):
        metric = summarize(runs_of("w", pairs), METRICS)["w"]["metrics"][name]
        return metric["within_bound"], metric["unresolved"]

    # peak_rss_mb (lower is better, bound 10%): +9% holds, +11% does not
    assert verdict([(line(1, 100.0), line(1, 109.0))] * 10, "peak_rss_mb") == (True, False)
    assert verdict([(line(1, 100.0), line(1, 111.0))] * 10, "peak_rss_mb") == (False, False)
    # ops_per_s (higher is better, bound 25%): a base spread of 100-300 is wider than
    # 25% of its median 200, so a median 10% lower is unresolved, not within the bound
    wide = [(line(100 + 200 * (i % 2), 1), line(180, 1)) for i in range(10)]
    assert verdict(wide, "ops_per_s") == (True, True)
    # the same spread with every change run above every base run is resolved
    above = [(line(100 + 200 * (i % 2), 1), line(301 + i, 1)) for i in range(10)]
    assert verdict(above, "ops_per_s") == (True, False)


def test_each_workload_summary_gives_each_side_its_per_kind_medians(tmp_path):
    bench_pairs = load("scripts/bench_pairs.py")

    def by_kind(separated, afs, share=0.1):
        return {"subset.separated": {"samples": 40, "median": separated, "max": 2 * separated, "share": share},
                "afs.plain": {"samples": 20, "median": afs, "max": 3 * afs, "share": 0.3}}

    runs = runs_of("search-oracle", [(line(100, 1), line(120, 1))] * 3)
    for i, run in enumerate(runs):
        if run["side"] == "base":
            run["latency_by_kind_ms"] = by_kind(0.6 + i / 10, 2.0, 0.4 - i / 100)
        elif i < 4:  # a run that kept no record counts for no kind, as in older BENCH files
            run["latency_by_kind_ms"] = by_kind(0.08 + i / 100, 2.1, 0.05 * i)
    # another workload's runs count for neither summary of this one
    runs += [dict(run, workload="cli-mix", latency_by_kind_ms=by_kind(9.0, 9.0, 0.9)) for run in runs]
    summary = bench_pairs.summarize(runs, METRICS)["search-oracle"]
    assert summary["kind_medians"] == {"base": {"afs.plain": 2.0, "subset.separated": pytest.approx(0.8)},
                                       "change": {"afs.plain": 2.1, "subset.separated": pytest.approx(0.1)}}
    # each kind's share of the cycle, the median of each side's runs that kept it
    assert summary["kind_shares"] == {"base": {"afs.plain": 0.3, "subset.separated": pytest.approx(0.38)},
                                      "change": {"afs.plain": 0.3, "subset.separated": pytest.approx(0.1)}}
    older = [{key: value for key, value in run.items() if key != "latency_by_kind_ms"} for run in runs]
    for name in ("kind_medians", "kind_shares"):
        assert bench_pairs.summarize(older, METRICS)["search-oracle"][name] == {"base": {}, "change": {}}

    # read from the record that perfbench/run.py writes for the run's workload and seed, untraced
    results = tmp_path / "perfbench" / "results"
    results.mkdir(parents=True)
    (results / "search-oracle-seed7-trace0.json").write_text(json.dumps({"latency_by_kind_ms": by_kind(0.5, 2.0)}))
    (results / "search-oracle-seed7-trace1.json").write_text(json.dumps({"metrics": {}}))
    assert bench_pairs.latency_by_kind(tmp_path, "search-oracle", 7) == by_kind(0.5, 2.0)
    assert bench_pairs.latency_by_kind(tmp_path, "search-oracle", 8) is None


def test_committed_bench_records_are_complete_correct_and_within_their_bounds():
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        record = json.loads(path.read_text())
        assert path.name == f"BENCH_{record['label']}.json"
        runs = record["runs"]
        assert sorted((r["workload"], r["pair"], r["side"]) for r in runs) == sorted(
            (w, pair, side) for w in workloads for pair in range(10) for side in ("base", "change")), path.name
        bad = [(r["workload"], r["pair"], r["side"]) for r in runs
               if r["result"] is None or r["result"]["correct"] is not True or r["result"]["failed"] != 0]
        assert bad == [], path.name
        for w in workloads:
            metrics = record["summary"][w]["metrics"]
            for spec in END_TO_END:
                verdict = metrics[spec["name"]]
                assert (verdict["within_bound"], verdict["unresolved"]) == (True, False), (path.name, w, spec["name"])


def test_src_lines_is_the_total_that_wc_prints(tmp_path):
    src_lines = load("scripts/bench_pairs.py").src_lines
    trees = {"base": {"a.py": "x = 1\ny = 2\n", "b.py": "z = 3\n"},
             "change": {"a.py": "x = 1\n", "b.py": "no newline at the end", "notes.txt": "not counted\n"}}
    for side, files in trees.items():
        package = tmp_path / side / "src" / "irl"
        package.mkdir(parents=True)
        for name, text in files.items():
            (package / name).write_text(text)
        total = subprocess.run(f"wc -l {package}/*.py | tail -1", shell=True, capture_output=True, text=True)
        assert src_lines(tmp_path / side) == int(total.stdout.split()[0]), side
    assert (src_lines(tmp_path / "base"), src_lines(tmp_path / "change")) == (3, 1)


def test_traced_pairs_give_each_side_its_per_layer_medians():
    layer_medians = load("scripts/bench_pairs.py").layer_medians

    def traced(self_s, calls):
        return {"correct": True, "attempted": 10, "failed": 0, "metrics": {
            "search.subset.self_s": {"value": self_s, "unit": "s"},
            "search.subset.calls": {"value": calls, "unit": "count"},
            "search.subset.found_ratio": {"value": None, "unit": "ratio"}}}

    pairs = [(traced(0.08 + i / 100, 216), traced(0.03 + i / 100, 216)) for i in range(3)] + [(None, None)]
    medians = layer_medians(runs_of("search-oracle", pairs) + runs_of("cli-mix", [(traced(0.5, 9), None)]))
    assert medians["search-oracle"] == {
        "base": {"search.subset.self_s": pytest.approx(0.09), "search.subset.calls": 216},
        "change": {"search.subset.self_s": pytest.approx(0.04), "search.subset.calls": 216}}
    assert medians["cli-mix"] == {"base": {"search.subset.self_s": 0.5, "search.subset.calls": 9}, "change": {}}
