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

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "compare": ("Comparison", "welch_compare"),
        "daq": ("DaqCapture", "DaqConfig", "DaqSystem"),
        "energy": ("energy_from_samples", "mean_power_from_samples"),
        "parallel": (
            "CellResult",
            "PolicySpec",
            "ResultCache",
            "SweepCell",
            "SweepEngine",
            "SweepSpec",
            "WorkloadSpec",
            "cache_key",
            "repeat_workload",
            "run_sweep",
        ),
        "profile": ("PowerProfile", "burst_profile", "profile_timeline"),
        "runner": ("ExperimentResult", "run_workload"),
        "stats": ("ConfidenceInterval", "confidence_interval"),
    },
)
