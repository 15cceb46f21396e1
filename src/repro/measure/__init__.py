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
- :mod:`repro.measure.runner` -- the repeated-run experiment harness;
- :mod:`repro.measure.parallel` -- the process-pool sweep engine and its
  content-addressed result cache.
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
            "run_sweep",
        ),
        "profile": ("PowerProfile", "burst_profile", "profile_timeline"),
        "runner": ("ExperimentResult", "repeat_workload", "run_workload"),
        "stats": ("ConfidenceInterval", "confidence_interval"),
    },
)
