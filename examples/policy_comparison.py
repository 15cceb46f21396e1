"""Compare interval policies across all four paper workloads.

Reproduces the experience of the paper's §5: for each workload (MPEG, Web,
Chess, TalkingEditor) and each policy (constant speeds, PAST/AVG_N with
different speed setters, the best policy), report energy, deadline misses
and clock behaviour.  The output makes the paper's conclusion visible:
policies that save real energy miss deadlines somewhere, and the one
policy that never misses saves little on MPEG (though more on the
idle-heavy interactive workloads).

Usage:
    python examples/policy_comparison.py [--quick]
"""

import argparse

from repro.core.catalog import best_policy, constant_speed, pering_avg
from repro.measure.runner import run_workload
from repro.workloads.chess import ChessConfig, chess_workload
from repro.workloads.editor import editor_workload
from repro.workloads.mpeg import MpegConfig, mpeg_workload
from repro.workloads.web import WebConfig, web_workload

POLICIES = [
    ("const 206.4", lambda: constant_speed(206.4)),
    ("const 132.7", lambda: constant_speed(132.7)),
    ("AVG_3 one-one 50/70", lambda: pering_avg(3, up="one", down="one")),
    ("AVG_9 peg-peg 50/70", lambda: pering_avg(9, up="peg", down="peg")),
    ("best (PAST peg 98/93)", best_policy),
    ("best + voltage scaling", lambda: best_policy(True)),
]


def workloads(quick: bool):
    if quick:
        return [
            mpeg_workload(MpegConfig(duration_s=20.0)),
            web_workload(WebConfig(duration_s=60.0)),
            chess_workload(ChessConfig(duration_s=60.0)),
            editor_workload(),
        ]
    return [mpeg_workload(), web_workload(), chess_workload(), editor_workload()]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="shorten traces for a fast run"
    )
    args = parser.parse_args()

    header = f"{'policy':24s} {'energy J':>9s} {'vs 206.4':>9s} {'misses':>7s} {'clk chg':>8s}"
    for workload in workloads(args.quick):
        print(f"\n=== {workload.name} ({workload.duration_s:.0f} s) ===")
        print(header)
        base = None
        for name, factory in POLICIES:
            result = run_workload(workload, factory, seed=0, use_daq=False)
            if base is None:
                base = result.exact_energy_j
            saving = 100 * (1 - result.exact_energy_j / base)
            print(
                f"{name:24s} {result.exact_energy_j:9.2f} {saving:+8.2f}% "
                f"{len(result.misses):7d} {result.run.clock_changes:8d}"
            )
    print(
        "\nNote how every row with large savings has misses somewhere, and"
        "\nthe miss-free best policy saves little on MPEG -- the paper's"
        "\ncentral negative result."
    )


if __name__ == "__main__":
    main()
