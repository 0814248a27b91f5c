"""Benchmark runner: one workload, one seed, one process, one closed-loop client.

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 15 --trace 0

Set-up (import of the package from ``src/``, seeded input generation,
fixture files, prebuilt instances) is repeated ``SETUP_REPEATS`` times and
its median reported as ``setup_s``.  The op sequence of one cycle is then
replayed, each op starting when the previous one has returned, in whole
cycles until ``--seconds`` have passed.  Every op's first output is checked
independently (``checks.py``) after the loop, and every later output must
equal the first.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced cycles and prints the per-layer metrics of the traced
cycles (per cycle), the set-up layers of one traced set-up, and the
tracing overhead.  The last line of stdout is one JSON object; a longer
record goes to ``perfbench/results/``.
"""

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from tracer import Tracer
from workloads import BUILDERS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "perfbench" / "results"
WORK = ROOT / "perfbench" / "work"
MODULES = ("bits", "budget", "errors", "colouring", "sums", "search", "reduce", "oracle", "cli")
SETUP_REPEATS = 5
MIN_RUNS = 3  # runs of each op, so that its median latency can reject one disturbed run
TAIL_BEYOND = 10  # samples required above the reported tail percentile
TAIL_WINDOW_SAMPLES = 3 * (TAIL_BEYOND + 1)  # so the tail is at least the 67th percentile

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


# -- set-up ------------------------------------------------------------------


def import_package():
    """Import ``irl`` from this checkout afresh, so every set-up pays for the import."""
    for name in [n for n in sys.modules if n == "irl" or n.startswith("irl.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("irl")
    if Path(package.__file__).resolve().parent != SRC / "irl":
        raise ImportError(f"irl imported from {package.__file__}, not from {SRC}")
    return {f"irl.{name}": importlib.import_module(f"irl.{name}") for name in MODULES}


def setup(workload, seed, tracer=None):
    """(ops, modules, seconds) of one complete set-up."""
    gc.collect()
    start = perf_counter()
    modules = import_package()
    if tracer is not None:
        tracer.install(modules)
        tracer.op_id = "setup"
    try:
        workdir = WORK / f"{workload}-{seed}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        mods = SimpleNamespace(**{name[4:]: module for name, module in modules.items()})
        ops = BUILDERS[workload](seed, mods, str(workdir))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return ops, modules, perf_counter() - start


# -- machine-speed calibration -----------------------------------------------

REFERENCE_NOMINAL_S = 0.010  # the reference kernel's time on the machine the values are scaled to
CALIBRATE_EVERY_S = 0.5  # op time between two calibration points
CALIBRATE_RUNS = 3  # kernel runs per calibration point; the fastest is kept


def reference():
    """A fixed pure-Python kernel (tuple-keyed dicts, a sort, a recursive
    search); its time tracks the machine's current speed."""
    table = {}
    for i in range(6000):
        key = (i % 97, i % 89, i)
        table[key] = table.get((i % 97, i % 89, i - 1), i & 3) ^ 1
    keys = sorted(table, key=lambda t: (t[1], t[0]))
    colour = {(a, b): (a * a + 3 * b) % 3 for a in range(20) for b in range(a + 1, 20)}

    def grow(prefix, start, c):
        if len(prefix) == 4:
            return 1
        found = 0
        for x in range(start, 20):
            if all(colour[(p, x)] == c for p in prefix):
                found += grow(prefix + (x,), x + 1, c)
        return found

    return sum(table[k] for k in keys[::7]) + sum(grow((), 0, c) for c in range(3))


def reference_s():
    best = None
    for _ in range(CALIBRATE_RUNS):
        start = perf_counter()
        reference()
        elapsed = perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


class Calibrator:
    """Runs the reference kernel between ops and scales op times to its nominal speed.

    A shared machine runs the same code up to tens of percent slower for
    seconds at a time.  The kernel, timed after every ``CALIBRATE_EVERY_S``
    of op time (fastest of ``CALIBRATE_RUNS``), slows down with it; each
    op's time is multiplied by ``REFERENCE_NOMINAL_S`` over the mean of the
    two kernel times bracketing it.
    """

    def __init__(self):
        self.previous = reference_s()
        self.pending = 0  # op times waiting for the next calibration point
        self.since = 0.0
        self.factors = []
        self.samples = [self.previous]

    def add(self, seconds):
        self.pending += 1
        self.since += seconds
        if self.since >= CALIBRATE_EVERY_S:
            self.flush()

    def flush(self):
        if not self.pending:
            return
        current = reference_s()
        self.samples.append(current)
        factor = 2 * REFERENCE_NOMINAL_S / (self.previous + current)
        self.factors.extend([factor] * self.pending)
        self.previous, self.pending, self.since = current, 0, 0.0


# -- the closed loop ---------------------------------------------------------

_UNSET = object()


class Ledger:
    """Per-op outcomes across cycles: first result, runs, failures, latencies."""

    def __init__(self, ops, errors):
        self.ops = ops
        self.errors = errors
        self.first = [_UNSET] * len(ops)
        self.runs = [0] * len(ops)
        self.failed = [0] * len(ops)
        self.reasons = {}
        self.refusals = []
        self.latencies = []

    def fail(self, i, reason):
        self.failed[i] += 1
        self.reasons.setdefault(i, reason)

    def record(self, i, result, error, seconds):
        op = self.ops[i]
        self.runs[i] += 1
        if isinstance(error, self.errors.BudgetExceededError):
            size = op.refused_size(error.count)
            self.refusals.append({"op": op.kind, "size": size, "seconds": seconds,
                                  "note": f"refused at size {size} after {seconds:.3f} s",
                                  "message": str(error)})
        elif error is None and _cli_budget_refusal(result):
            # the CLI reports a refusal as an error payload; the size is in its message
            self.refusals.append({"op": op.kind, "size": None, "seconds": seconds,
                                  "note": f"refused after {seconds:.3f} s",
                                  "message": result[1].strip()})
        if error is not None:
            self.fail(i, f"{type(error).__name__}: {error}")
            return
        if self.first[i] is _UNSET:
            self.first[i] = result
        elif result != self.first[i]:
            self.fail(i, "output differs from the op's first output")

    def check(self):
        for i, op in enumerate(self.ops):
            if self.first[i] is _UNSET:
                continue
            try:
                reason = op.check(self.first[i])
            except Exception:  # a crashing check is a failed op, not a crashed run
                reason = "check raised " + traceback.format_exc(limit=1).strip().splitlines()[-1]
            if reason is not None:
                self.failed[i] = self.runs[i]
                self.reasons.setdefault(i, reason)


def _cli_budget_refusal(result):
    return (isinstance(result, tuple) and len(result) == 2 and result[0] == 1
            and '"code": "budget"' in str(result[1]))


def run_cycle(ops, ledger, tracer, cycle, calibrator=None):
    """Run every op once; return the wall time spent inside ops.

    With a ``calibrator`` the op times are recorded as latencies.
    """
    total = 0.0
    for i, op in enumerate(ops):
        error = result = None
        if tracer is not None:
            tracer.op_id = f"{cycle}.{i}"
        start = perf_counter()
        try:
            result = op.fn() if tracer is None else tracer.call("bench.op", op.fn)
        except Exception as exc:  # recorded as a failed op; the loop goes on
            error = exc
        seconds = perf_counter() - start
        total += seconds
        if calibrator is not None:
            calibrator.add(seconds)
            ledger.latencies.append(seconds)
        ledger.record(i, result, error, seconds)
    return total


# -- metrics -----------------------------------------------------------------


def tail_window_cycles(ops_per_cycle):
    """Whole cycles per tail window: enough for TAIL_WINDOW_SAMPLES latencies."""
    return -(-TAIL_WINDOW_SAMPLES // ops_per_cycle)


def latency_metrics(latencies, ops_per_cycle):
    """(ops_per_s, p50 s, tail s, tail percentile, tail window samples).

    Each op runs once per cycle; its latency is the median of its runs, so
    a burst of machine noise in one cycle does not move it.  Throughput is
    ops per cycle over the summed op latencies.  The tail is read from a
    window of whole cycles holding at least TAIL_WINDOW_SAMPLES latencies,
    each op contributing its latency once per cycle: the highest percentile
    with TAIL_BEYOND samples above it.
    """
    per_op = [statistics.median(latencies[i::ops_per_cycle]) for i in range(ops_per_cycle)]
    cycles = tail_window_cycles(ops_per_cycle)
    window = sorted(per_op * cycles)
    size = len(window)
    return (ops_per_cycle / sum(per_op), statistics.median(per_op),
            window[size - TAIL_BEYOND - 1], 100.0 * (size - TAIL_BEYOND) / size, size)


# spans whose self time, and call count, are reported per layer
SELF_TIMES = ("cli.main", "colouring.from_json", "colouring.to_json", "colouring.construct",
              "colouring.from_differences", "colouring.to_differences", "colouring.invariance",
              "colouring.enumerate", "reduce.verify", "reduce.forward", "reduce.backward",
              "search.subset", "search.afs", "search.finite_number", "sums", "oracle.pair_colour",
              "oracle.decode", "oracle.synthesize", "bits", "bench.op")
CALLS = ("colouring.construct", "reduce.verify", "search.subset", "search.afs", "sums",
         "oracle.pair_colour", "bits")
COUNTS = ("colouring.construct.entries", "colouring.enumerate.yielded", "reduce.forward.entries_out")


def layer_metrics(cycle, setup_trace, overhead, refusals):
    self_s, calls, counts = cycle
    setup_self, setup_calls, setup_counts = setup_trace

    def ratio(a, b):
        return a / b if b else 0.0

    op_time = sum(self_s.values())
    values = {f"{name}.self_s": self_s.get(name, 0.0) for name in SELF_TIMES}
    values.update({f"{name}.calls": calls[name] for name in CALLS})
    values.update({name: counts[name] for name in COUNTS})
    values.update({
        "search.subset.found_ratio": ratio(counts["search.subset.found"], calls["search.subset"]),
        "search.afs.found_ratio": ratio(counts["search.afs.found"], calls["search.afs"]),
        "search.finite_number.colourings_per_query": ratio(
            counts["colouring.enumerate.yielded"], calls["search.finite_number"]),
        # these two layers run only in set-up on search-oracle
        "oracle.lower_bound_colouring.self_s": setup_self.get("oracle.lower_bound_colouring", 0.0),
        "setup.colouring.construct.calls": setup_calls["colouring.construct"],
        "setup.colouring.construct.entries": setup_counts["colouring.construct.entries"],
        "setup.colouring.construct.self_s": setup_self.get("colouring.construct", 0.0),
        "budget.refusals": refusals,
        "trace.attributed_ratio": ratio(op_time - self_s.get("bench.op", 0.0), op_time),
        "trace.overhead_ratio": overhead,
    })
    return values


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def per_cycle_diff(before, after):
    self_b, calls_b, counts_b = before
    self_a, calls_a, counts_a = after
    self_s = {k: v - self_b.get(k, 0.0) for k, v in self_a.items()}
    return self_s, calls_a - calls_b, counts_a - counts_b


def mean_cycle(cycles):
    n = len(cycles)
    names = set().union(*(c[0] for c in cycles))
    self_s = {k: sum(c[0].get(k, 0.0) for c in cycles) / n for k in names}
    return self_s, cycles[0][1], cycles[0][2]


def count_drift(cycles, stored):
    """Reasons the machine-independent counts differ between traced cycles or from ``stored``."""
    def flat(cycle):
        _, calls, counts = cycle
        return {**{f"calls.{k}": v for k, v in calls.items()},
                **{f"counts.{k}": v for k, v in counts.items()}}

    reasons = []
    first = flat(cycles[0])
    for index, cycle in enumerate(cycles[1:], start=1):
        if flat(cycle) != first:
            reasons.append(f"traced cycle {index} counts differ from traced cycle 0")
    if stored is not None and stored != first:
        changed = sorted(k for k in set(stored) | set(first) if stored.get(k) != first.get(k))
        reasons.append(f"counts differ from an earlier run with this seed: {changed[:5]}")
    return reasons, first


def source_fingerprint():
    digest = hashlib.sha256()
    for path in sorted((SRC / "irl").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


# -- main --------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "irl" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'irl'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        return measure(args)
    finally:
        shutil.rmtree(WORK / f"{args.workload}-{args.seed}", ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # absent, or in use by another run
            pass


def measure(args):
    setup_calibrator = Calibrator()
    setup_samples = []
    for _ in range(SETUP_REPEATS):
        ops = None
        ops, modules, seconds = setup(args.workload, args.seed)
        setup_calibrator.add(seconds)
        setup_calibrator.flush()
        setup_samples.append(seconds)
    tracer = Tracer() if args.trace else None
    setup_trace = None
    if tracer is not None:
        ops = None
        before = tracer.snapshot()
        ops, modules, _ = setup(args.workload, args.seed, tracer)
        setup_trace = per_cycle_diff(before, tracer.snapshot())

    ledger = Ledger(ops, modules["irl.errors"])
    untraced_walls, traced_walls, traced_cycles = [], [], []
    traced_refusals = 0
    gc.collect()
    calibrator = None if tracer else Calibrator()
    # an untraced run gives every op at least MIN_RUNS runs and fills a tail
    # window; a traced run compares the counts of at least two traced cycles
    min_cycles = 4 if tracer else max(MIN_RUNS, tail_window_cycles(len(ops)))
    started = perf_counter()
    cycle = 0
    while True:
        untraced_walls.append(run_cycle(ops, ledger, None, cycle, calibrator))
        cycle += 1
        if tracer is not None:
            before = tracer.snapshot()
            refusals_before = len(ledger.refusals)
            tracer.install(modules)
            try:
                traced_walls.append(run_cycle(ops, ledger, tracer, cycle))
            finally:
                tracer.uninstall()
            traced_cycles.append(per_cycle_diff(before, tracer.snapshot()))
            traced_refusals += len(ledger.refusals) - refusals_before
            cycle += 1
        if perf_counter() - started >= args.seconds and cycle >= min_cycles:
            break
    if calibrator is not None:
        calibrator.flush()
    measured_s = perf_counter() - started
    check_started = perf_counter()
    ledger.check()
    check_s = perf_counter() - check_started

    attempted = sum(ledger.runs)
    failed = sum(ledger.failed)
    reasons = [f"{ops[i].kind}: {reason}" for i, reason in sorted(ledger.reasons.items())]
    op_counts = {}
    for op in ops:
        op_counts[op.kind] = op_counts.get(op.kind, 0) + 1
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    RESULTS.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "source_fingerprint": source_fingerprint(),
        "setup_samples_s": setup_samples,
        "setup_factors": setup_calibrator.factors,
        "cycles": {"untraced": len(untraced_walls), "traced": len(traced_walls)},
        "cycle_walls_s": {"untraced": untraced_walls, "traced": traced_walls},
        "ops_per_cycle": len(ops),
        "op_counts_per_cycle": op_counts,
        "measured_s": measured_s,
        "check_s": check_s,
        "attempted": attempted,
        "refusals": ledger.refusals,
        "failures": reasons[:50],
    }

    if tracer is None:
        latencies = [t * f for t, f in zip(ledger.latencies, calibrator.factors)]
        setup_scaled = [t * f for t, f in zip(setup_samples, setup_calibrator.factors)]
        ops_per_s, p50, tail_s, percentile, window = latency_metrics(latencies, len(ops))
        values = {
            "setup_s": statistics.median(setup_scaled),
            "ops_per_s": ops_per_s,
            "op_p50_ms": p50 * 1000.0,
            "op_tail_ms": tail_s * 1000.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        record["tail"] = {"percentile": percentile, "window_samples": window,
                          "samples_beyond": TAIL_BEYOND, "samples": len(latencies)}
        raw = latency_metrics(ledger.latencies, len(ops))
        record["calibration"] = {
            "nominal_s": REFERENCE_NOMINAL_S,
            "reference_median_s": statistics.median(calibrator.samples),
            "reference_runs": len(calibrator.samples),
            "raw": {"setup_s": statistics.median(setup_samples), "ops_per_s": raw[0],
                    "op_p50_ms": raw[1] * 1000.0, "op_tail_ms": raw[2] * 1000.0},
        }
        by_kind = {}
        for i, op in enumerate(ops):
            by_kind.setdefault(op.kind, []).extend(latencies[i::len(ops)])
        record["latency_by_kind_ms"] = {
            kind: {"samples": len(v), "median": statistics.median(v) * 1000.0,
                   "max": max(v) * 1000.0, "share": sum(v) / sum(latencies)}
            for kind, v in sorted(by_kind.items())}
    else:
        counts_path = RESULTS / f"counts-{args.workload}-seed{args.seed}.json"
        stored = None
        if counts_path.is_file():
            saved = json.loads(counts_path.read_text())
            if saved["source_fingerprint"] == record["source_fingerprint"]:
                stored = saved["counts"]
        drift, counts = count_drift(traced_cycles, stored)
        if drift:
            reasons += drift
            failed += sum(ledger.runs)
            record["failures"] = reasons[:50]
        elif stored is None:
            counts_path.write_text(json.dumps(
                {"source_fingerprint": record["source_fingerprint"], "counts": counts},
                sort_keys=True))
        overhead = sum(traced_walls) / sum(untraced_walls[: len(traced_walls)])
        values = layer_metrics(mean_cycle(traced_cycles), setup_trace, overhead,
                               traced_refusals / len(traced_cycles))
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
        record["spans"] = {"kept": len(tracer.spans), "dropped": tracer.dropped,
                           "file": f"{name}-spans.jsonl"}
        with open(RESULTS / f"{name}-spans.jsonl", "w", encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span) + "\n")

    record["failed"] = failed
    record["error_rate"] = failed / attempted
    record["metrics"] = metrics
    (RESULTS / f"{name}.json").write_text(json.dumps(record, indent=1))

    for key, metric in metrics.items():
        print(f"{key} {metric['value']:.6g} {metric['unit']}")
    print(f"ops {attempted} failed {failed} refusals {len(ledger.refusals)} "
          f"cycles {len(untraced_walls)}+{len(traced_walls)}")
    for reason in reasons[:5]:
        print(f"FAIL {reason}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
