"""Why trace-driven studies got it wrong: record, replay, compare.

The paper's §3 argues that its predecessors' trace-driven simulations
cannot capture the feedback between a policy's clock choices and the
workload's behaviour.  This example makes that argument with the library:

1. record a live MPEG run at full speed;
2. replay the recording as busy *time* (the trace-study assumption) and
   as busy *work* (what the hardware actually must do);
3. evaluate the same policies against both and print the verdict flips.

Usage:
    python examples/methodology_gap.py
"""

from repro.core.catalog import best_policy, constant_speed, pering_avg
from repro.measure.runner import run_workload
from repro.workloads.mpeg import MpegConfig, mpeg_workload
from repro.workloads.replay import ReplayMode, record_from_run, replay_workload


def main():
    print("Recording a live MPEG run at 206.4 MHz ...")
    source = run_workload(
        mpeg_workload(MpegConfig(duration_s=30.0)),
        lambda: constant_speed(206.4),
        seed=7,
        use_daq=False,
    )
    trace = record_from_run(source.run)
    print(
        f"  {len(trace)} quanta recorded, mean utilization "
        f"{source.run.mean_utilization():.3f}\n"
    )

    policies = [
        ("best (PAST peg 98/93)", best_policy),
        ("AVG_3 peg-peg 50/70", lambda: pering_avg(3, up="peg", down="peg")),
        ("AVG_9 one-one 50/70", lambda: pering_avg(9, up="one", down="one")),
    ]

    print(f"{'policy':24s} {'mode':6s} {'energy J':>9s} {'misses':>7s} {'verdict'}")
    for name, factory in policies:
        verdicts = {}
        for mode in (ReplayMode.TIME, ReplayMode.WORK):
            res = run_workload(
                replay_workload(trace, mode), factory, seed=0, use_daq=False
            )
            verdict = "acceptable" if not res.missed else "MISSES DEADLINES"
            verdicts[mode] = verdict
            print(
                f"{name:24s} {mode.value:6s} {res.exact_energy_j:9.2f} "
                f"{len(res.misses):7d} {verdict}"
            )
        if verdicts[ReplayMode.TIME] != verdicts[ReplayMode.WORK]:
            print(f"{'':24s} ^^ the trace-driven verdict flips under load!")
        print()

    print(
        "A policy that a trace-driven study would publish as safe can fail"
        "\ncatastrophically once the feedback loop is real -- the paper's"
        "\ncase for empirical evaluation."
    )


if __name__ == "__main__":
    main()
