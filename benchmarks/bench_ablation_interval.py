"""Ablation: scheduling-interval length (§5.2, DESIGN.md #4).

The paper: averaging over 100 ms windows made MPEG audio and video
unsynchronize and gave the speech synthesizer noticeable delays, "because
it takes longer for the system to realize it is becoming busy"; 10-50 ms
is the workable range (Weiser/Govil's recommendation).  We vary the kernel
quantum -- which is both the accounting window and the policy invocation
period -- under the best policy.
"""

from repro.core.catalog import best_policy
from repro.kernel.config import KernelConfig
from repro.measure.runner import run_workload
from repro.workloads.mpeg import MpegConfig, mpeg_workload

from _util import Report, once

CFG = MpegConfig(duration_s=30.0)
QUANTA_MS = [10.0, 20.0, 50.0, 100.0]


def test_ablation_interval(benchmark):
    def run():
        rows = []
        for q_ms in QUANTA_MS:
            res = run_workload(
                mpeg_workload(CFG),
                best_policy,
                seed=1,
                use_daq=False,
                kernel_config=KernelConfig(quantum_us=q_ms * 1000.0),
            )
            worst = max(
                (e.lateness_us for e in res.run.events if e.deadline_us), default=0.0
            )
            rows.append(
                (q_ms, len(res.misses), worst / 1000.0, res.exact_energy_j)
            )
        return rows

    rows = once(benchmark, run)

    report = Report("ablation_interval")
    report.add("Best policy on MPEG 30 s, varying the scheduling interval")
    report.table(
        ["Interval (ms)", "Misses", "Worst lateness (ms)", "Energy (J)"],
        [(f"{q:.0f}", m, f"{w:.1f}", f"{e:.2f}") for q, m, w, e in rows],
    )
    report.emit()

    by_q = {q: (m, w) for q, m, w, _ in rows}
    # 10 ms is safe.
    assert by_q[10.0][0] == 0
    # 100 ms reacts too slowly: worse lateness than 10 ms, and misses.
    assert by_q[100.0][1] > by_q[10.0][1]
    assert by_q[100.0][0] > 0
