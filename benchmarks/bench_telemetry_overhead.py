"""Cost of sweep observation: the sweep timeline + live progress on vs off.

The one sweep-observer overhead benchmark.  The timeline and the
progress display are pure observers of the sweep pipeline: the
timeline's spans come from stamps the engine takes once per stage (or
from the worker-side stamps every outcome carries home, observed or
not), and the progress display is fed by worker heartbeats on a pump
thread off the submission path.  That design makes three promises this
benchmark checks on the paper's Table 2 grid (five policies x N seeds of
the MPEG workload, DAQ on, cache off):

- the instrumented sweep returns **bitwise-identical** results — the
  same :class:`~repro.measure.parallel.CellResult` list as the plain
  engine;
- the full stack (timeline + progress display drawing on an in-memory
  stream that says it is a terminal) costs within 5 % of the plain
  sweep; and
- the timeline explains the sweep: it attributes time to at least one
  phase, the union of its phase intervals covers at least half of the
  instrumented wall time, and its trace has one lane per pool worker.

Timings are best-of-N over interleaved rounds so one noisy sample cannot
flip the comparison, and the overhead is computed against the paired
floor ``min(baseline, telemetry)``: an instrumented sweep cannot truly
be cheaper than the plain one it wraps, so a negative difference is
measurement noise and the reported overhead is non-negative by
construction.  Besides the usual text report this benchmark writes
``BENCH_telemetry_overhead.json`` at the repo root — the
machine-readable record the acceptance criterion reads.

``REPRO_BENCH_JOBS`` sets the worker count for both engines (default 2).
``REPRO_BENCH_QUICK=1`` shrinks the grid for CI trend checks: the
overhead bar still applies (with timer-noise slack), but the committed
JSON record is left alone (only full-length runs may re-emit it).
"""

import io
import json
import os
import time
from pathlib import Path

from repro.cli import TABLE2_ROWS, workload_spec
from repro.measure.parallel import PolicySpec, SweepCell, SweepEngine
from repro.obs.profile import SweepTimeline
from repro.obs.telemetry import ProgressDisplay
from repro.obs.trace import validate_chrome_trace

from _util import Report, bench_machine, once, stable_best

BENCH_JSON = (
    Path(__file__).resolve().parent.parent / "BENCH_telemetry_overhead.json"
)
QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
DURATION_S = 15.0 if QUICK else 60.0
RUNS_PER_POLICY = 2 if QUICK else 3
ROUNDS = 3 if QUICK else 5
JOBS = max(int(os.environ.get("REPRO_BENCH_JOBS", 2)), 1)
MAX_TELEMETRY_OVERHEAD_PCT = 5.0


class TtyStream(io.StringIO):
    """An in-memory stream that says it is a terminal."""

    def isatty(self) -> bool:
        return True


def grid_cells(machine):
    workload = workload_spec("mpeg", duration_s=DURATION_S)
    return [
        SweepCell(
            workload=workload,
            policy=PolicySpec(name=policy),
            seed=1000 * i,
            machine=machine,
            use_daq=True,
        )
        for _, policy in TABLE2_ROWS
        for i in range(RUNS_PER_POLICY)
    ]


def test_telemetry_overhead(benchmark):
    machine = bench_machine()
    n_cells = len(TABLE2_ROWS) * RUNS_PER_POLICY

    def run():
        results = {}
        traces = {}
        # Both engines keep their pools warm across rounds — the pool is
        # part of the pipeline under test, not part of the telemetry —
        # so each side pays its spin-up once and stable_best keeps warm
        # rounds.  The timeline accumulates spans across rounds (a trace
        # of N identical sweeps), which only strengthens the coverage
        # check: every round's wall time must stay accounted.
        plain_engine = SweepEngine(jobs=JOBS)
        timeline = SweepTimeline()
        # Draw on an in-memory stream that says it is a terminal: the
        # benchmark charges telemetry for the full drawing path, not the
        # cheap piped-output degradation.
        display = ProgressDisplay(stream=TtyStream())
        telemetry_engine = SweepEngine(
            jobs=JOBS, timeline=timeline, observers=[display]
        )

        def measure_round():
            walls = {}
            start = time.perf_counter()
            results["baseline"] = plain_engine.run(grid_cells(machine))
            walls["baseline"] = time.perf_counter() - start
            start = time.perf_counter()
            results["telemetry"] = telemetry_engine.run(grid_cells(machine))
            walls["telemetry"] = time.perf_counter() - start
            return walls

        try:
            best = stable_best(measure_round, rounds=ROUNDS)
        finally:
            plain_engine.close()
            telemetry_engine.close()
        traces["telemetry"] = timeline.chrome_trace()
        return (
            results, traces["telemetry"], best, timeline.phase_seconds(),
            timeline.coverage(telemetry_engine.stats.wall_s) * 100.0,
        )

    results, trace, best, phase_seconds, coverage_pct = once(benchmark, run)

    # Paired floor: telemetry wraps the plain sweep, so it cannot
    # actually be cheaper; when noise makes its best run beat the
    # baseline's, the honest estimate of the overhead is zero.
    floor = min(best["baseline"], best["telemetry"])
    overhead_pct = (best["telemetry"] / floor - 1.0) * 100.0
    bitwise_equal = results["telemetry"] == results["baseline"]
    worker_lanes = trace["otherData"]["workers"]

    report = Report("telemetry_overhead")
    report.add(
        f"machine {machine.name}, table2 grid ({len(TABLE2_ROWS)} policies x "
        f"{RUNS_PER_POLICY} seeds, {DURATION_S:g} s mpeg, DAQ on), "
        f"jobs={JOBS}, cache off, best of {ROUNDS} interleaved rounds"
    )
    report.table(
        ["telemetry", "wall s", "cells/s"],
        [
            ["off (plain engine)", f"{best['baseline']:.3f}",
             f"{n_cells / best['baseline']:.2f}"],
            ["on (timeline + progress, drawn)",
             f"{best['telemetry']:.3f}",
             f"{n_cells / best['telemetry']:.2f}"],
        ],
    )
    report.add(f"telemetry overhead: {overhead_pct:+.1f}% "
               f"(bar: {MAX_TELEMETRY_OVERHEAD_PCT:g}%)")
    report.add(f"results bitwise equal: {bitwise_equal}; "
               f"trace: {len(trace['traceEvents'])} events, "
               f"{worker_lanes} worker lanes; {len(phase_seconds)} phases, "
               f"union covers {coverage_pct:.1f}% of instrumented wall time")
    report.emit()

    if not QUICK:
        BENCH_JSON.write_text(
            json.dumps(
                {
                    "benchmark": "telemetry_overhead",
                    "machine": machine.name,
                    "workload": "mpeg",
                    "duration_s": DURATION_S,
                    "grid": "table2",
                    "cells": n_cells,
                    "runs_per_policy": RUNS_PER_POLICY,
                    "jobs": JOBS,
                    "rounds": ROUNDS,
                    "baseline_wall_s": round(best["baseline"], 4),
                    "telemetry_wall_s": round(best["telemetry"], 4),
                    "telemetry_overhead_pct": round(overhead_pct, 2),
                    "max_telemetry_overhead_pct": MAX_TELEMETRY_OVERHEAD_PCT,
                    "worker_lanes": worker_lanes,
                    "phases_seen": len(phase_seconds),
                    "coverage_pct": round(coverage_pct, 1),
                    "bitwise_equal": bitwise_equal,
                },
                indent=2,
            )
            + "\n"
        )

    # The committed record carries the bar; a regression past it fails
    # here whether the run is full-length or a CI quick check.
    max_overhead = MAX_TELEMETRY_OVERHEAD_PCT
    if BENCH_JSON.exists():
        committed = json.loads(BENCH_JSON.read_text())
        max_overhead = committed.get(
            "max_telemetry_overhead_pct", max_overhead
        )

    # The telemetry layer's promises.
    assert bitwise_equal, "telemetry must be a pure observer (bitwise)"
    validate_chrome_trace(trace)
    assert worker_lanes == JOBS, (
        f"sweep trace must carry one lane per pool worker "
        f"(got {worker_lanes}, expected {JOBS})"
    )
    assert phase_seconds, "an observed sweep must attribute some time"
    # On a pooled sweep the union of intervals covers the wall time
    # during which any stage was active; the tail (pool teardown,
    # interpreter bookkeeping) is unattributed.  The >=95 % acceptance
    # bar lives in tests/obs/test_profile.py; here a loose floor guards
    # against the stamps silently going missing.
    assert coverage_pct >= 50.0, (
        f"phase intervals explain too little of the sweep "
        f"({coverage_pct:.1f}% of wall)"
    )
    # Quick runs shrink the cells to ~15 s simulated, where the 5 % bar
    # sits in timer-noise territory; widen it there.  A real regression
    # (say, a per-step hook on the kernel hot loop) costs far more.
    slack = 5.0 if QUICK else 0.0
    assert overhead_pct <= max_overhead + slack, (
        f"telemetry must stay a cheap observer "
        f"({overhead_pct:+.1f}% > {max_overhead + slack:g}%)"
    )
