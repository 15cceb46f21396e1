"""Reproduction of *Policies for Dynamic Clock Scheduling* (OSDI 2000).

Grunwald, Levis, Morrey, Neufeld and Farkas evaluated interval-based
dynamic clock/voltage scaling policies on the Itsy pocket computer.  This
package rebuilds the complete experimental system in simulation:

- :mod:`repro.hw` -- the Itsy / StrongARM SA-1100 machine model (11 clock
  steps, Table 3 memory timings, calibrated power model, voltage rails);
- :mod:`repro.kernel` -- the modified Linux 2.0.30 kernel: 10 ms quanta,
  per-quantum utilization accounting, pluggable clock-scaling module;
- :mod:`repro.core` -- the policies: PAST / AVG_N predictors, one /
  double / peg speed setters, hysteresis thresholds, voltage scaling;
- :mod:`repro.workloads` -- MPEG, Web, Chess and TalkingEditor rebuilt as
  scripted processes, plus synthetic analysis signals;
- :mod:`repro.measure` -- the DAQ measurement model and the repeated-run
  experiment harness with 95 % confidence intervals;
- :mod:`repro.battery` -- rate-capacity and pulsed-discharge battery
  models (§2.1);
- :mod:`repro.analysis` -- the signal-processing stability analysis of
  AVG_N (§5.3): exponential smoothing as convolution, Fourier transform,
  oscillation metrics;
- :mod:`repro.traces` -- trace records and persistence.

Quick start::

    from repro.core.catalog import best_policy
    from repro.measure.runner import run_workload
    from repro.workloads.mpeg import mpeg_workload

    result = run_workload(mpeg_workload(), best_policy)
    print(result.energy_j, result.missed)
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
