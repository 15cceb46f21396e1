"""Signal-processing analysis of interval policies (paper §5.3, §5.1).

The paper's mathematical argument that AVG_N cannot stabilize:

- a processor workload over time is a 0/1 signal (busy/idle);
- AVG_N filters that signal with a decaying-exponential weighting function
  (:mod:`repro.analysis.smoothing` gives the recursive and convolution
  forms and proves them equal);
- the Fourier transform of the decaying exponential,
  ``|X(w)| = 1 / sqrt(w^2 + a^2)``, attenuates but never eliminates high
  frequencies (:mod:`repro.analysis.fourier`, Figure 6);
- hence a periodic workload (the 9-busy/1-idle rectangle wave idealizing
  MPEG at its optimal speed) keeps the weighted utilization oscillating
  over a wide band (:mod:`repro.analysis.oscillation`, Figure 7), crossing
  any reasonable hysteresis thresholds forever.

:mod:`repro.analysis.utilization` holds the utilization-series helpers for
Figures 3 and 4 (per-quantum series and moving averages).
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "energymodel": (
            "energy_delay_curve",
            "energy_for_work",
            "race_vs_crawl",
        ),
        "fourier": ("decaying_exponential", "fourier_magnitude"),
        "latency": ("latency_stats", "sync_drift_series"),
        "oscillation": ("OscillationStats", "oscillation_stats"),
        "smoothing": (
            "avg_n_convolve",
            "avg_n_recursive",
            "avg_n_weights",
            "rectangle_wave",
        ),
        "utilization": ("moving_average", "utilization_series"),
    },
)
