"""Measurement loops, statistics and the result record.

Import only after ``benchenv.bootstrap()``: this module imports numpy and
the package under test.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import monotonic, perf_counter

import benchenv
from tracer import POINT_NAMES, SPAN_NAMES, Tracer, traced
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
TAIL_BEYOND = 10          # op_ms_tail has this many samples above it ...
MIN_OPS = TAIL_BEYOND + 1  # ... so every run makes at least this many ops
# setup_s: fresh set-ups spread evenly over the run, reported as the highest
# one with SETUP_BEYOND above it (the 90th percentile of 20).  The host's
# speed switches between levels about 1.6x apart for tens of seconds at a
# time; a median of set-ups taken together lands on whichever level holds
# at that moment, while a high percentile over the whole run reads the slow
# level, which nearly every 30 s window contains.
SETUP_PROBES = 20
SETUP_BEYOND = 2
IMPORT_PROBES = 5         # cli.import_ms: medians of this many interpreters
# In the traced run the top-level spans must cover at least this share of
# each operation's wall time; the rest is glue the spans do not see.
COVERAGE_MIN = 0.8
MAX_REPORTED_PROBLEMS = 5


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, i: int, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < MAX_REPORTED_PROBLEMS:
                self.problems.append({"op": i, "problems": problems})


def attempt(w, fn, i: int, tally: Tally, context=contextlib.nullcontext) -> float:
    """Time fn(i) inside ``context``, then check its output untimed."""
    out, problems = None, []
    with context():
        t0 = perf_counter()
        try:
            out = fn(i)
        except Exception:
            problems = [traceback.format_exc(limit=3)]
        dt = perf_counter() - t0
    if not problems:
        try:
            problems = w.check(i, out)
        except Exception:
            problems = ["check raised: " + traceback.format_exc(limit=3)]
    tally.record(i, problems)
    return dt


def tail(values: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """Highest percentile with ``beyond`` samples above it: (value, percentile)."""
    ordered = sorted(values)
    k = len(ordered) - beyond - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def setup_time(name: str, seed: int, workdir: Path, k: int) -> float:
    """One set-up: fresh interpreter until the inputs are built."""
    t0 = monotonic()
    res = subprocess.run(
        [sys.executable, str(HERE / "probe_setup.py"), name, str(seed),
         str(workdir / f"probe{k}")],
        env=benchenv.child_env(), cwd=benchenv.ROOT, capture_output=True,
        text=True, timeout=120, check=True,
    )
    return float(res.stdout.split()[-1]) - t0


def import_ms() -> float:
    """Import time of cgmargin.cli in a fresh interpreter, bare start-up excluded."""
    bare, full = [], []
    for _ in range(IMPORT_PROBES):
        for code, acc in (("pass", bare), ("import cgmargin.cli", full)):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=benchenv.child_env(),
                           cwd=benchenv.ROOT, check=True, timeout=60)
            acc.append(perf_counter() - t0)
    return 1000.0 * (statistics.median(full) - statistics.median(bare))


def measure(w, seconds: float, setup) -> tuple[dict, dict, Tally]:
    """Untimed-check closed loop for ``seconds`` (and at least MIN_OPS ops).

    ``setup(k)`` times the k-th set-up; SETUP_PROBES of them run between
    operations, evenly spaced over the run, the first before any operation.
    """
    tally = Tally()
    times, setup_s = [], []
    start = monotonic()
    deadline = start + seconds
    while len(times) < MIN_OPS or monotonic() < deadline:
        while (len(setup_s) < SETUP_PROBES and monotonic()
               >= start + seconds * len(setup_s) / SETUP_PROBES):
            setup_s.append(setup(len(setup_s)))
        times.append(attempt(w, w.op, len(times), tally))
    while len(setup_s) < SETUP_PROBES:
        setup_s.append(setup(len(setup_s)))
    ms = [1000.0 * t for t in times]
    tail_ms, tail_pct = tail(ms)
    setup_value, setup_pct = tail(setup_s, SETUP_BEYOND)
    metrics = {
        "setup_s": (setup_value, "s"),
        "op_ms_tail": (tail_ms, "ms"),
        "peak_rss_mb": (w.peak_rss_kb() / 1024.0, "MiB"),
    }
    # Reported, not gated: on a host whose speed switches between two levels
    # for tens of seconds at a time, a run's median lands on either level.
    detail = {
        "op_ms_p50": statistics.median(ms),
        "ops_per_s": len(times) / sum(times),
        "op_samples": len(times),
        "op_ms_tail_percentile": tail_pct,
        "op_ms_tail_samples_beyond": TAIL_BEYOND,
        "timed_loop_s": sum(times),
        "setup_s_percentile": setup_pct,
        "setup_s_samples": setup_s,
    }
    return metrics, detail, tally


def measure_traced(w, spans_path: Path) -> tuple[dict, dict, Tally]:
    """The first TRACE_OPS inputs, each run untraced and then traced."""
    tally = Tally()
    tracer = Tracer()
    k = w.TRACE_OPS
    untraced, traced_times = [], []
    for i in range(k):
        untraced.append(attempt(w, w.op_inprocess, i, tally))
        tracer.op = i
        traced_times.append(
            attempt(w, w.op_inprocess, i, tally, lambda: traced(tracer))
        )
    s = tracer.summary(list(range(k)))
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.self_ms_per_op"] = (1000.0 * s["self_s"][name] / k, "ms")
        metrics[f"{name}.calls_per_op"] = (s["calls"][name] / k, "count")
    for name in POINT_NAMES:
        metrics[f"{name}.points"] = (tracer.points[name] / k, "count")
    coverage = statistics.median(s["top_s"][i] / traced_times[i] for i in range(k))
    p50_untraced = 1000.0 * statistics.median(untraced)
    p50_traced = 1000.0 * statistics.median(traced_times)
    metrics["trace.coverage"] = (coverage, "fraction")
    metrics["trace.overhead_ms"] = (p50_traced - p50_untraced, "ms")
    metrics["cli.import_ms"] = (import_ms(), "ms")
    with open(spans_path, "w") as fh:
        json.dump({"fields": ["op", "name", "start_s", "end_s", "parent"],
                   "spans": tracer.spans}, fh)
    detail = {
        "trace_ops": k,
        "op_ms_p50_untraced": p50_untraced,
        "op_ms_p50_traced": p50_traced,
        "coverage_min": COVERAGE_MIN,
        "spans_file": str(spans_path.relative_to(benchenv.ROOT)),
    }
    if coverage < COVERAGE_MIN:
        detail["coverage_problem"] = (
            f"top-level spans cover {coverage:.3f} of op time, below {COVERAGE_MIN}"
        )
    return metrics, detail, tally


def main(workload: str, seed: int, seconds: float, trace: bool) -> int:
    benchenv.OUT.mkdir(exist_ok=True)
    workdir = benchenv.OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    tag = f"{workload}_seed{seed}_trace{int(trace)}"
    try:
        env = benchenv.environment(seed)
        cls = WORKLOADS[workload]
        if trace:
            w = cls(seed, workdir)
            metrics, detail, tally = measure_traced(
                w, benchenv.OUT / f"spans_{workload}_seed{seed}.json")
        else:
            w = cls(seed, workdir)
            metrics, detail, tally = measure(
                w, seconds, lambda k: setup_time(workload, seed, workdir, k))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = tally.failed == 0 and "coverage_problem" not in detail
    record = {
        "workload": workload,
        "seconds": seconds,
        "trace": int(trace),
        "environment": env,
        **detail,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": tally.failed / tally.attempted,
        "problems": tally.problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(benchenv.OUT / f"result_{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }))
    return 0
