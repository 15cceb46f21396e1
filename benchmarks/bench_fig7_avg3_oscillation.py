"""Figure 7: AVG_3 filtering of a periodic workload keeps oscillating.

The input is the idealized MPEG-at-optimal-speed signal: a rectangle wave
busy for 9 quanta, idle for 1.  The filtered utilization oscillates over a
wide band forever, so any hysteresis thresholds inside that band command
speed changes forever.  The benchmark regenerates the filtered series,
checks it against the closed-form steady-state band, and cross-checks with
a live kernel run of the same wave under an AVG_3 interval policy.
"""

import numpy as np

from repro.analysis.oscillation import oscillation_stats
from repro.analysis.smoothing import (
    avg_n_recursive,
    rectangle_wave,
    steady_state_range,
)
from repro.core.catalog import pering_avg
from repro.core.hysteresis import BEST_POLICY_THRESHOLDS, ThresholdPair
from repro.hw.itsy import ItsyConfig, ItsyMachine
from repro.kernel.config import KernelConfig
from repro.kernel.scheduler import Kernel
from repro.workloads.synthetic import rectangle_wave_body

from _util import RESULTS_DIR, Report, once


def test_fig7_avg3_oscillation(benchmark):
    def run():
        wave = rectangle_wave(9, 1, periods=80)
        filtered = avg_n_recursive(wave, 3)
        stats = oscillation_stats(filtered)

        # Live kernel: the same wave under AVG_3 with tight thresholds.
        policy = pering_avg(3, up="one", down="one",
                            thresholds=ThresholdPair(0.80, 0.95))
        machine = ItsyMachine(ItsyConfig(initial_mhz=132.7))
        kernel = Kernel(machine, policy, KernelConfig(sched_overhead_us=0.0))
        kernel.spawn("wave", rectangle_wave_body(9, 1, 8_000_000.0))
        live = kernel.run(8_000_000.0)
        return wave, filtered, stats, live

    wave, filtered, stats, live = once(benchmark, run)

    w_min, w_max = steady_state_range(9, 1, 3)
    report = Report("fig7_avg3_oscillation")
    report.add("AVG_3 applied to a 9-busy/1-idle rectangle wave")
    report.add(f"steady-state band (closed form): {w_min:.4f} .. {w_max:.4f}")
    report.add(
        f"observed (tail of numeric convolution): {stats.minimum:.4f} .. "
        f"{stats.maximum:.4f}, amplitude {stats.amplitude:.4f}"
    )
    report.add(f"mean crossings per step: {stats.crossings_per_step:.3f}")
    report.add()
    report.add("First 30 filtered samples (the Figure 7 trace):")
    report.add("  " + " ".join(f"{v:.2f}" for v in filtered[:30]))
    report.add()
    report.add(
        "Live kernel cross-check (AVG_3/one-one, thresholds 80/95 on the "
        f"same wave): {live.clock_changes} clock changes over 8 s, "
        f"{len({q.mhz for q in live.quanta})} distinct frequencies visited"
    )
    np.savetxt(RESULTS_DIR / "fig7_filtered_series.csv", filtered, delimiter=",")
    report.emit()

    assert stats.maximum == np.float64(w_max) or abs(stats.maximum - w_max) < 1e-6
    assert abs(stats.minimum - w_min) < 1e-6
    assert stats.amplitude > 0.2  # "a surprisingly wide range"
    assert stats.escapes(BEST_POLICY_THRESHOLDS)
    # The live policy never settles: it keeps changing the clock.
    assert live.clock_changes > 50
