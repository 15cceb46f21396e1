"""Ablation: do the hardware transition costs matter? (DESIGN.md #6)

The paper measures ~200 us clock stalls and ~250 us voltage settles and
notes the best policy "causes many voltage and clock changes, which may
incur unnecessary overhead; this will be less of a problem as processors
are better designed to accommodate those changes."  We rerun the best
policy with the stall removed to quantify that overhead -- and with the
scheduler-forcing overhead (6 us/tick) removed as well (DESIGN.md #1).
"""

from repro.core.catalog import best_policy
from repro.hw.cpu import CLOCK_CHANGE_STALL_US
from repro.hw.itsy import ItsyConfig, ItsyMachine
from repro.kernel.config import KernelConfig
from repro.measure.runner import run_workload
from repro.workloads.mpeg import MpegConfig, mpeg_workload

from _util import Report, once

CFG = MpegConfig(duration_s=30.0)


def machine_with_stall(stall_us):
    def factory():
        machine = ItsyMachine(ItsyConfig())
        machine.cpu.clock_change_stall_us = stall_us
        return machine

    return factory


def test_ablation_transition_costs(benchmark):
    def run():
        rows = []
        for stall, overhead in (
            (CLOCK_CHANGE_STALL_US, 6.0),
            (0.0, 6.0),
            (CLOCK_CHANGE_STALL_US, 0.0),
            (0.0, 0.0),
        ):
            res = run_workload(
                mpeg_workload(CFG),
                best_policy,
                machine_factory=machine_with_stall(stall),
                seed=1,
                use_daq=False,
                kernel_config=KernelConfig(sched_overhead_us=overhead),
            )
            rows.append(
                (
                    stall,
                    overhead,
                    res.exact_energy_j,
                    res.run.clock_changes,
                    len(res.misses),
                )
            )
        return rows

    rows = once(benchmark, run)

    report = Report("ablation_transition_costs")
    report.add("Best policy on MPEG 30 s, removing the measured overheads")
    report.table(
        ["Clock stall (us)", "Sched overhead (us)", "Energy (J)", "Changes", "Misses"],
        [(f"{s:.0f}", f"{o:.0f}", f"{e:.3f}", c, m) for s, o, e, c, m in rows],
    )
    base = rows[0][2]
    free = rows[3][2]
    report.add()
    report.add(
        f"Energy shift from removing all overheads: "
        f"{(base - free) / base * 100:+.2f} % (timing perturbations included)"
    )
    report.emit()

    # §5.4's conclusion: the costs are negligible -- well under 2 % -- and
    # removing them perturbs run timing more than it saves energy, so only
    # the magnitude is asserted, not the sign.
    assert abs(base - free) / base < 0.02
    # Raw stall time itself is a tiny fraction of the run.
    stall_fraction = rows[0][3] * CLOCK_CHANGE_STALL_US / (CFG.duration_s * 1e6)
    assert stall_fraction < 0.01
    # No configuration misses deadlines.
    assert all(m == 0 for *_, m in rows)
