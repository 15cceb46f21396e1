"""Cost of phase-level sweep profiling: PhaseProfile on vs off.

The phase profiler is a pure observer of the sweep pipeline: the engine
stamps its own stages around work it already does, while every worker
outcome carries its compute/reduction stamps home whether or not a
profile is attached (the kernel's observer-reduction stamp is one
``perf_counter`` pair behind an armed sink), and the engine drops them
when none is.  Both legs of this benchmark therefore take the
worker-side stamps; what it measures is the engine-side profiling alone
(stamping engine stages, IPC slicing, grouping worker stamps).  That
design makes three promises this benchmark checks on the paper's Table 2
grid (five policies x N seeds of the MPEG workload, DAQ on, cache off):

- the profiled sweep returns **bitwise-identical** results — the same
  :class:`~repro.measure.parallel.CellResult` list as the plain engine;
- profiling costs within 5 % of the plain sweep; and
- the profile actually explains the sweep: the union of recorded
  intervals covers most of the measured wall time.

Timings are best-of-N over interleaved rounds so one noisy sample
cannot flip the comparison, and the overhead is computed against the
paired floor ``min(baseline, profiled)``: an instrumented sweep cannot
truly be cheaper than the plain one it wraps, so a negative difference
is measurement noise and the reported overhead is non-negative by
construction.  Besides the usual text report this benchmark writes
``BENCH_profile_overhead.json`` at the repo root — the machine-readable
record the acceptance criterion reads.

``REPRO_BENCH_JOBS`` sets the worker count for both engines (default 2).
``REPRO_BENCH_QUICK=1`` shrinks the grid for CI trend checks: the
overhead bar still applies (with timer-noise slack), but the committed
JSON record is left alone (only full-length runs may re-emit it).
"""

import json
import os
import time
from pathlib import Path

from repro.cli import TABLE2_ROWS, workload_spec
from repro.measure.parallel import PolicySpec, SweepCell, SweepEngine
from repro.obs.profile import PhaseProfile

from _util import Report, bench_machine, once, stable_best

BENCH_JSON = (
    Path(__file__).resolve().parent.parent / "BENCH_profile_overhead.json"
)
QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
DURATION_S = 15.0 if QUICK else 60.0
RUNS_PER_POLICY = 2 if QUICK else 3
ROUNDS = 3 if QUICK else 5
JOBS = max(int(os.environ.get("REPRO_BENCH_JOBS", 2)), 1)
MAX_PROFILE_OVERHEAD_PCT = 5.0


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


def test_profile_overhead(benchmark):
    machine = bench_machine()
    n_cells = len(TABLE2_ROWS) * RUNS_PER_POLICY

    def run():
        results = {}
        # Both engines keep their pools warm across rounds — the pool is
        # part of the pipeline under test, not part of the profiler —
        # so each side pays its spin-up once and stable_best keeps warm
        # rounds.  The profile accumulates intervals across rounds (a
        # profile of N identical sweeps), which only strengthens the
        # coverage check: every round's wall time must stay accounted.
        profile = PhaseProfile()
        plain_engine = SweepEngine(jobs=JOBS)
        profiled_engine = SweepEngine(jobs=JOBS, profile=profile)

        def measure_round():
            walls = {}
            start = time.perf_counter()
            results["baseline"] = plain_engine.run(grid_cells(machine))
            walls["baseline"] = time.perf_counter() - start
            start = time.perf_counter()
            results["profiled"] = profiled_engine.run(grid_cells(machine))
            walls["profiled"] = time.perf_counter() - start
            return walls

        try:
            best = stable_best(measure_round, rounds=ROUNDS)
        finally:
            plain_engine.close()
            profiled_engine.close()
        profiled_wall = profiled_engine.stats.wall_s
        return results, profile, profiled_wall, best

    results, profile, profiled_wall, best = once(benchmark, run)

    # Paired floor: profiling wraps the plain sweep, so it cannot
    # actually be cheaper; when noise makes its best run beat the
    # baseline's, the honest estimate of the overhead is zero.
    floor = min(best["baseline"], best["profiled"])
    overhead_pct = (best["profiled"] / floor - 1.0) * 100.0
    bitwise_equal = results["profiled"] == results["baseline"]
    phase_seconds = profile.phase_seconds()
    coverage_pct = profile.coverage(profiled_wall) * 100.0

    report = Report("profile_overhead")
    report.add(
        f"machine {machine.name}, table2 grid ({len(TABLE2_ROWS)} policies x "
        f"{RUNS_PER_POLICY} seeds, {DURATION_S:g} s mpeg, DAQ on), "
        f"jobs={JOBS}, cache off, best of {ROUNDS} interleaved rounds"
    )
    report.table(
        ["profiling", "wall s", "cells/s"],
        [
            ["off (plain engine)", f"{best['baseline']:.3f}",
             f"{n_cells / best['baseline']:.2f}"],
            ["on (engine stamps + worker stamps grouped)",
             f"{best['profiled']:.3f}",
             f"{n_cells / best['profiled']:.2f}"],
        ],
    )
    report.add(f"profile overhead: {overhead_pct:+.1f}% "
               f"(bar: {MAX_PROFILE_OVERHEAD_PCT:g}%)")
    report.add(f"results bitwise equal: {bitwise_equal}; "
               f"{len(phase_seconds)} phases, union covers "
               f"{coverage_pct:.1f}% of profiled wall time")
    report.emit()

    if not QUICK:
        BENCH_JSON.write_text(
            json.dumps(
                {
                    "benchmark": "profile_overhead",
                    "machine": machine.name,
                    "workload": "mpeg",
                    "duration_s": DURATION_S,
                    "grid": "table2",
                    "cells": n_cells,
                    "runs_per_policy": RUNS_PER_POLICY,
                    "jobs": JOBS,
                    "rounds": ROUNDS,
                    "baseline_wall_s": round(best["baseline"], 4),
                    "profiled_wall_s": round(best["profiled"], 4),
                    "profile_overhead_pct": round(overhead_pct, 2),
                    "max_profile_overhead_pct": MAX_PROFILE_OVERHEAD_PCT,
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
    max_overhead = MAX_PROFILE_OVERHEAD_PCT
    if BENCH_JSON.exists():
        committed = json.loads(BENCH_JSON.read_text())
        max_overhead = committed.get(
            "max_profile_overhead_pct", max_overhead
        )

    # The profiler's promises.
    assert bitwise_equal, "profiling must be a pure observer (bitwise)"
    assert phase_seconds, "a profiled sweep must attribute some time"
    # On a pooled sweep the union of intervals covers the wall time
    # during which any stage was active; the tail (pool teardown,
    # interpreter bookkeeping) is unattributed.  The >=95 % serial
    # acceptance bar lives in tests/obs/test_profile.py; here a loose
    # floor guards against the stamps silently going missing.
    assert coverage_pct >= 50.0, (
        f"phase intervals explain too little of the sweep "
        f"({coverage_pct:.1f}% of wall)"
    )
    # Quick runs shrink the cells to ~15 s simulated, where the 5 % bar
    # sits in timer-noise territory; widen it there.  A real regression
    # (say, stamping every quantum instead of every cell) costs far
    # more.
    slack = 5.0 if QUICK else 0.0
    assert overhead_pct <= max_overhead + slack, (
        f"phase profiling must stay a cheap observer "
        f"({overhead_pct:+.1f}% > {max_overhead + slack:g}%)"
    )
