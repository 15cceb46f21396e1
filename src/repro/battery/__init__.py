"""Battery models (paper §2.1).

Two non-ideal battery properties drive the paper's argument that running
slower can beat racing-to-idle even without voltage scaling:

1. **Rate-capacity effect**: "the amount of energy a battery can deliver
   (i.e., its capacity) is reduced with increased power consumption"
   (:mod:`repro.battery.model`).  The Itsy anecdote: two AAA alkalines
   last ~2 h with the system idle at a 206 MHz clock but ~18 h at 59 MHz --
   a 9x lifetime gain for a 3.5x clock reduction.
2. **Recovery / pulsed discharge** (Chiasserini & Rao): interspersing
   short high-power demands with long low-power periods lets the battery
   recover capacity (:mod:`repro.battery.pulsed`); the paper judges this
   less important for pocket computers than peak-demand minimization.

:mod:`repro.battery.lifetime` adds Martin's metric: choose the clock
frequency that maximizes *computations per battery lifetime*.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "lifetime": ("computations_per_lifetime", "lifetime_hours"),
        "model": ("AAA_ALKALINE_PAIR", "Battery", "RateCapacityCurve"),
        "pulsed": ("PulsedDischargeModel",),
    },
)
