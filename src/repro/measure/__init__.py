"""Measurement methodology (§4.1).

The paper measures whole-system power with a data-acquisition system: the
Itsy's supply current is sensed across a 0.02 ohm precision resistor,
sampled 5000 times per second as 16-bit values, and triggered by a GPIO pin
the workload toggles when it starts.  Energy is the rectangle sum
``E = sum(p_i * 0.0002)``.

- :mod:`repro.measure.daq` -- the sampling/quantization/trigger model;
- :mod:`repro.measure.energy` -- the paper's energy and average-power
  estimators;
- :mod:`repro.measure.stats` -- 95 % confidence intervals over repeated
  runs;
- :mod:`repro.measure.runner` -- one measured run (the harness every
  sweep cell executes);
- :mod:`repro.measure.parallel` -- the sweep engine (in-process or over a
  process pool), its content-addressed result cache, and the repeated-run
  and ideal-constant experiments built on it.
"""
