"""Figure 5: why simple busy-cycle averaging makes a poor policy.

Reproduces the worked example: a 4-quantum busy-MHz average drives the
speed choice.  Going idle, the speed collapses within a few quanta;
speeding up from 59 MHz, the policy is stuck -- a fully busy quantum at
59 MHz can only ever contribute 59 MHz to the average, so the average can
never exceed 59 MHz and the clock never rises.

Both the analytical box sequence (as drawn in the figure) and a live
kernel run of the same policy against a step workload are reported.
"""

from repro.core.cycleavg import CycleAverageGovernor
from repro.hw.clocksteps import SA1100_CLOCK_TABLE
from repro.hw.itsy import ItsyConfig, ItsyMachine
from repro.hw.rails import VOLTAGE_HIGH
from repro.kernel.config import KernelConfig
from repro.kernel.governor import TickInfo
from repro.kernel.scheduler import Kernel
from repro.workloads.synthetic import step_body

from _util import Report, once


def drive(gov, quanta):
    """Feed (mhz, busy) quanta to the governor; return per-tick decisions."""
    trace = []
    idx = None
    for mhz, busy in quanta:
        if idx is None:
            idx = SA1100_CLOCK_TABLE.step_for_mhz(mhz).index
        info = TickInfo(
            now_us=0.0,
            utilization=busy,
            busy_us=busy * 10_000.0,
            quantum_us=10_000.0,
            step_index=idx,
            mhz=SA1100_CLOCK_TABLE[idx].mhz,
            volts=VOLTAGE_HIGH,
            max_step_index=10,
        )
        req = gov.on_tick(info)
        if req is not None and req.step_index is not None:
            idx = req.step_index
        trace.append((busy, gov.average_mhz, SA1100_CLOCK_TABLE[idx].mhz))
    return trace


def test_fig5_simple_averaging(benchmark):
    def run():
        going_idle = drive(
            CycleAverageGovernor(window=4),
            [(206.4, 1.0)] * 4 + [(206.4, 0.0)] * 4,
        )
        speeding_up = drive(
            CycleAverageGovernor(window=4),
            [(59.0, 0.0)] * 4 + [(59.0, 1.0)] * 12,
        )

        # Live kernel cross-check: a step workload under the same policy.
        machine = ItsyMachine(ItsyConfig(initial_mhz=59.0))
        kernel = Kernel(
            machine,
            governor=CycleAverageGovernor(window=4),
            config=KernelConfig(sched_overhead_us=0.0),
        )
        kernel.spawn("step", step_body(busy_us=400_000.0, idle_us=100_000.0))
        live = kernel.run(500_000.0)
        return going_idle, speeding_up, live

    going_idle, speeding_up, live = once(benchmark, run)

    report = Report("fig5_simple_averaging")
    report.add("(a) Going to idle: average and chosen speed per quantum")
    report.table(
        ["Quantum busy", "Avg (MHz)", "Speed (MHz)"],
        [(f"{b:.0f}", f"{avg:.2f}", f"{mhz:.1f}") for b, avg, mhz in going_idle],
    )
    report.add()
    report.add("(b) Speeding up from 59 MHz: the average can never exceed 59")
    report.table(
        ["Quantum busy", "Avg (MHz)", "Speed (MHz)"],
        [(f"{b:.0f}", f"{avg:.2f}", f"{mhz:.1f}") for b, avg, mhz in speeding_up],
    )
    report.add()
    report.add(
        "Live kernel run (step workload, boot at 59 MHz): "
        f"final clock {live.quanta[-1].mhz:.1f} MHz, "
        f"{live.clock_changes} clock changes"
    )
    report.emit()

    # Going idle reaches the bottom step quickly.
    assert going_idle[-1][2] == 59.0
    # Speeding up never escapes 59 MHz.
    assert all(mhz == 59.0 for _, __, mhz in speeding_up)
    assert max(avg for _, avg, __ in speeding_up) <= 59.0 + 1e-9
    # The live kernel shows the same pathology: stuck at the bottom.
    assert live.quanta[-1].mhz == 59.0
