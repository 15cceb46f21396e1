"""Quickstart: measure one workload under one clock-scaling policy.

Runs the paper's MPEG workload (60 s of 15 fps video + audio on the
simulated Itsy) three ways -- constant full speed, constant 132.7 MHz (the
slowest feasible step), and the paper's best heuristic policy -- and
prints the energy, deadline and clock-behaviour comparison.

Usage:
    python examples/quickstart.py
"""

from repro.core.catalog import best_policy, constant_speed
from repro.measure.runner import run_workload
from repro.workloads.mpeg import mpeg_workload


def describe(name, result):
    run = result.run
    print(f"{name}")
    print(f"  energy (DAQ):        {result.energy_j:7.2f} J")
    print(f"  mean power:          {result.mean_power_w:7.3f} W")
    print(f"  mean utilization:    {run.mean_utilization():7.3f}")
    print(f"  clock changes:       {run.clock_changes:7d}")
    print(f"  deadline misses:     {len(result.misses):7d}")
    frequencies = sorted({q.mhz for q in run.quanta})
    print(f"  frequencies used:    {', '.join(f'{f:.1f}' for f in frequencies)} MHz")
    print()


def main():
    workload = mpeg_workload()
    print(f"Workload: {workload.name}, {workload.duration_s:.0f} s\n")

    configurations = [
        ("Constant 206.4 MHz / 1.5 V", lambda: constant_speed(206.4)),
        ("Constant 132.7 MHz / 1.5 V", lambda: constant_speed(132.7)),
        ("Best policy (PAST, peg-peg, 98/93)", best_policy),
    ]
    results = []
    for name, factory in configurations:
        result = run_workload(workload, factory, seed=0)
        describe(name, result)
        results.append((name, result))

    base = results[0][1].energy_j
    print("Savings relative to constant full speed:")
    for name, result in results[1:]:
        print(f"  {name:38s} {100 * (1 - result.energy_j / base):+6.2f} %")


if __name__ == "__main__":
    main()
