"""Cost of the observability layer: the scheduler log on vs off.

``repro trace`` exports a run that kept its scheduler activity log
(``KernelConfig(record_sched_log=True)``): the kernel appends one row
per scheduling decision, and the log's record objects are built only
when the exporter reads them.  That design makes two promises this
benchmark checks on the paper's 60 s MPEG workload under the best
policy:

- disabled observability is free: a run with an explicit default
  ``KernelConfig()`` must cost within 5 % of the plain call form (the
  acceptance bar for the whole layer), and
- enabled observability is cheap enough to leave on: with the scheduler
  log kept, the results stay bitwise identical and the run costs within
  10 % of the plain call form.

Timings are best-of-N over interleaved runs so one noisy sample cannot
flip the comparison (rounds keep adding until the floors stop improving
— see ``stable_best``), and each mode's overhead is computed against the
paired floor ``min(baseline, mode)``: a wrapped call form cannot truly
be cheaper than the plain one it wraps, so a negative difference is
measurement noise and the reported overhead is non-negative by
construction.  Besides the usual text report this benchmark writes
``BENCH_obs_overhead.json`` at the repo root — the machine-readable
record the acceptance criterion reads.

``REPRO_BENCH_QUICK=1`` shrinks the workload for CI trend checks: the
overhead bars still apply, but the committed JSON record is left alone
(only full-length runs may re-emit it).
"""

import json
import os
import time
from pathlib import Path

from repro.core.catalog import resolve_policy
from repro.kernel.config import KernelConfig
from repro.measure.runner import run_workload
from repro.workloads.mpeg import MpegConfig, mpeg_workload

from _util import Report, bench_machine, once, stable_best

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_obs_overhead.json"
QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
DURATION_S = 15.0 if QUICK else 60.0
ROUNDS = 5
MAX_DISABLED_OVERHEAD_PCT = 5.0
MAX_ENABLED_OVERHEAD_PCT = 10.0


def timed_run(machine, mode: str):
    policy = resolve_policy("best", clock_table=machine.clock_table())
    kwargs = {}
    if mode == "disabled":
        kwargs["kernel_config"] = KernelConfig()
    elif mode == "enabled":
        kwargs["kernel_config"] = KernelConfig(record_sched_log=True)
    start = time.perf_counter()
    result = run_workload(
        mpeg_workload(MpegConfig(duration_s=DURATION_S)),
        policy,
        machine_factory=machine,
        use_daq=False,
        **kwargs,
    )
    return result, time.perf_counter() - start


def test_obs_overhead(benchmark):
    machine = bench_machine()
    modes = ("baseline", "disabled", "enabled")

    def run():
        results = {}

        def measure_round():
            walls = {}
            for mode in modes:
                results[mode], walls[mode] = timed_run(machine, mode)
            return walls

        return results, stable_best(measure_round, rounds=ROUNDS)

    results, best = once(benchmark, run)

    def overhead_pct(mode: str) -> float:
        # Paired floor: observability wraps the plain call form, so it
        # cannot actually be cheaper; when noise makes a mode's best run
        # beat the baseline's, the honest estimate of its overhead is
        # zero, not a negative percentage.
        floor = min(best["baseline"], best[mode])
        return (best[mode] / floor - 1.0) * 100.0

    disabled_pct = overhead_pct("disabled")
    enabled_pct = overhead_pct("enabled")

    report = Report("obs_overhead")
    report.add(f"machine {machine.name}, {DURATION_S:g} s mpeg under best, "
               f"best of {ROUNDS} interleaved runs")
    report.table(
        ["observability", "wall s", "vs baseline", "energy J"],
        [
            [mode, f"{best[mode]:.3f}",
             f"{(best[mode] / best['baseline'] - 1.0) * 100.0:+.1f}%",
             f"{results[mode].exact_energy_j:.6f}"]
            for mode in modes
        ],
    )
    report.add(f"disabled overhead: {disabled_pct:+.1f}% "
               f"(bar: {MAX_DISABLED_OVERHEAD_PCT:g}%)")
    report.add(f"enabled (scheduler log) overhead: {enabled_pct:+.1f}% "
               f"(bar: {MAX_ENABLED_OVERHEAD_PCT:g}%)")
    report.emit()

    bitwise_equal = (
        results["disabled"].exact_energy_j == results["baseline"].exact_energy_j
        and results["enabled"].exact_energy_j == results["baseline"].exact_energy_j
    )
    if not QUICK:
        BENCH_JSON.write_text(
            json.dumps(
                {
                    "benchmark": "obs_overhead",
                    "machine": machine.name,
                    "workload": "mpeg",
                    "duration_s": DURATION_S,
                    "policy": "best",
                    "rounds": ROUNDS,
                    "baseline_wall_s": round(best["baseline"], 4),
                    "disabled_wall_s": round(best["disabled"], 4),
                    "enabled_wall_s": round(best["enabled"], 4),
                    "disabled_overhead_pct": round(disabled_pct, 2),
                    "enabled_overhead_pct": round(enabled_pct, 2),
                    "max_disabled_overhead_pct": MAX_DISABLED_OVERHEAD_PCT,
                    "max_enabled_overhead_pct": MAX_ENABLED_OVERHEAD_PCT,
                    "energy_j": results["baseline"].exact_energy_j,
                    "bitwise_equal": bitwise_equal,
                },
                indent=2,
            )
            + "\n"
        )

    # The committed record carries the bars; a regression past either one
    # fails here whether the run is full-length or a CI quick check.
    committed_bars = (MAX_DISABLED_OVERHEAD_PCT, MAX_ENABLED_OVERHEAD_PCT)
    if BENCH_JSON.exists():
        committed = json.loads(BENCH_JSON.read_text())
        committed_bars = (
            committed.get("max_disabled_overhead_pct", committed_bars[0]),
            committed.get("max_enabled_overhead_pct", committed_bars[1]),
        )

    # The observability layer's promises.
    assert bitwise_equal
    for mode in ("disabled", "enabled"):
        assert (results[mode].run.mean_utilization()
                == results["baseline"].run.mean_utilization())
        assert (results[mode].run.clock_changes
                == results["baseline"].run.clock_changes)
    assert results["enabled"].run.sched_log, "the enabled leg keeps its log"
    # Quick runs shrink the walls to ~35 ms, where the 5 % bar is ~2 ms —
    # timer-noise territory; widen both bars there.  A real regression
    # (say, an unconditionally wired hot-loop hook) costs far more.
    slack = 5.0 if QUICK else 0.0
    assert disabled_pct <= committed_bars[0] + slack, (
        f"disabled observability must be free "
        f"({disabled_pct:+.1f}% > {committed_bars[0] + slack:g}%)"
    )
    assert enabled_pct <= committed_bars[1] + slack, (
        f"enabled observability must stay cheap "
        f"({enabled_pct:+.1f}% > {committed_bars[1] + slack:g}%)"
    )
