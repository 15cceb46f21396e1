"""Hot-loop cost of kernel instrumentation: full vs minimal vs fastpath.

The kernel's event loop records every power segment and buffers every
quantum and transition as a row.  Full recording keeps the complete
power timeline and quantum log (what the plots need); minimal recording
reduces them to energy totals and quantum statistics (what an
energy-only sweep cell needs); the fast-path core
(:mod:`repro.kernel.fastpath`) flattens the whole loop — inlined power
sink, preallocated row buffers, cached step/rail state — and
materializes either recording mode at run end.  This
benchmark runs the paper's 60 s MPEG workload under the best policy in
all modes and checks the promises the kernel split makes:

- the numbers are bitwise identical (the sweep cache shares entries
  across recording modes and cores on that basis),
- minimal recording never costs more than full (both modes buffer the
  same rows and differ only in what the run keeps at the end, so the
  saving sits within timer noise), and
- the fast-path core beats the full-recorder reference by at least the
  committed speedup bar (2x).

Timings are best-of-N over interleaved runs so one noisy sample cannot
flip the comparison (rounds keep adding until the floors stop improving
— see ``stable_best``).  Besides the usual text report this benchmark
writes ``BENCH_kernel_hotloop.json`` at the repo root — a small
machine-readable record of the hot-loop cost so successive revisions
leave a perf trajectory.

``REPRO_BENCH_QUICK=1`` shrinks the workload for CI trend checks; the
invariants still hold, but the committed JSON record is left alone
(only full-length runs may re-emit it).
"""

import json
import os
import time
from pathlib import Path

from repro.core.catalog import resolve_policy
from repro.measure.runner import run_workload
from repro.workloads.mpeg import MpegConfig, mpeg_workload

from _util import Report, bench_machine, once, stable_best

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_kernel_hotloop.json"
QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
DURATION_S = 15.0 if QUICK else 60.0
ROUNDS = 5
MIN_FASTPATH_SPEEDUP = 2.0

#: (label, recording mode, execution backend).  Backends are named
#: explicitly so REPRO_FORCE_BACKEND cannot collapse the comparison.
MODES = (
    ("full", "full", "reference"),
    ("minimal", "minimal", "reference"),
    ("fastpath-full", "full", "fastpath"),
    ("fastpath-minimal", "minimal", "fastpath"),
)


def timed_run(machine, recording: str, backend: str):
    policy = resolve_policy("best", clock_table=machine.clock_table())
    start = time.perf_counter()
    result = run_workload(
        mpeg_workload(MpegConfig(duration_s=DURATION_S)),
        policy,
        machine_factory=machine,
        use_daq=False,
        recording=recording,
        backend=backend,
    )
    return result, time.perf_counter() - start


def test_kernel_hotloop(benchmark):
    machine = bench_machine()

    def run():
        results = {}

        def measure_round():
            walls = {}
            for name, recording, backend in MODES:
                results[name], walls[name] = timed_run(
                    machine, recording, backend
                )
            return walls

        return results, stable_best(measure_round, rounds=ROUNDS)

    results, best = once(benchmark, run)
    full = results["full"]
    speedup = best["full"] / best["minimal"]
    fastpath_speedup = best["full"] / best["fastpath-full"]

    report = Report("kernel_hotloop")
    report.add(f"machine {machine.name}, {DURATION_S:g} s mpeg under best, "
               f"best of {ROUNDS} interleaved runs")
    report.table(
        ["backend / recording", "wall s", "vs full", "energy J"],
        [
            [name, f"{best[name]:.3f}",
             f"{best['full'] / best[name]:.2f}x",
             f"{results[name].exact_energy_j:.6f}"]
            for name, _, _ in MODES
        ],
    )
    report.add(f"minimal recording speedup: {speedup:.2f}x")
    report.add(f"fastpath speedup over full recorders: {fastpath_speedup:.2f}x "
               f"(bar: {MIN_FASTPATH_SPEEDUP:g}x)")
    report.emit()

    bitwise_equal = all(
        results[name].exact_energy_j == full.exact_energy_j
        for name, _, _ in MODES
    )
    if not QUICK:
        BENCH_JSON.write_text(
            json.dumps(
                {
                    "benchmark": "kernel_hotloop",
                    "machine": machine.name,
                    "workload": "mpeg",
                    "duration_s": DURATION_S,
                    "policy": "best",
                    "rounds": ROUNDS,
                    "full_wall_s": round(best["full"], 4),
                    "minimal_wall_s": round(best["minimal"], 4),
                    "fastpath_full_wall_s": round(best["fastpath-full"], 4),
                    "fastpath_minimal_wall_s": round(
                        best["fastpath-minimal"], 4
                    ),
                    "speedup": round(speedup, 3),
                    "fastpath_speedup": round(fastpath_speedup, 3),
                    "min_fastpath_speedup": MIN_FASTPATH_SPEEDUP,
                    "energy_j": full.exact_energy_j,
                    "bitwise_equal": bitwise_equal,
                },
                indent=2,
            )
            + "\n"
        )

    # The committed record carries the speedup bar; a regression past it
    # fails here whether the run is full-length or a CI quick check.
    min_fastpath_speedup = MIN_FASTPATH_SPEEDUP
    if BENCH_JSON.exists():
        committed = json.loads(BENCH_JSON.read_text())
        min_fastpath_speedup = committed.get(
            "min_fastpath_speedup", min_fastpath_speedup
        )
        if (committed.get("duration_s") == DURATION_S
                and committed.get("machine") == machine.name):
            # Same configuration as the committed record: the energy must
            # match it to the last bit, or a kernel change altered results.
            assert full.exact_energy_j == committed["energy_j"], (
                f"energy drifted from the committed record "
                f"({full.exact_energy_j!r} != {committed['energy_j']!r})"
            )

    # The kernel split's promises.
    assert bitwise_equal
    for name, _, _ in MODES:
        assert (results[name].run.mean_utilization()
                == full.run.mean_utilization())
    if not QUICK:
        # On the reference kernel the full-vs-minimal gap sits within a
        # few percent once the best-of-N floors converge (both modes
        # buffer the same rows; only the run-end record differs), so
        # this guards against minimal recording *regressing* past full
        # rather than asserting a measurable win inside timer noise.
        assert best["minimal"] <= best["full"] * 1.03, (
            f"minimal recording must not cost more than full "
            f"({best['minimal']:.3f}s vs {best['full']:.3f}s)"
        )
    assert fastpath_speedup >= min_fastpath_speedup, (
        f"fast-path core must beat the full-recorder reference by "
        f">={min_fastpath_speedup:g}x (got {fastpath_speedup:.2f}x)"
    )
