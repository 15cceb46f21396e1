"""A hypothetical StrongARM SA-2 machine (the paper's introduction).

The paper motivates voltage scheduling with the then-upcoming SA-2:
"estimated to dissipate 500mW at 600MHz, but only 40mW when running at
150MHz -- a 12-fold energy reduction for a 4-fold performance reduction."
This module builds that machine inside the same framework, demonstrating
that nothing in the library is specific to the Itsy:

- a clock table from 150 to 600 MHz;
- a voltage schedule where the core voltage falls with frequency (true
  voltage scaling, not the Itsy's single below-spec setting);
- power constants calibrated to the two quoted operating points.

With ``P = c * V^2 * f``, the quoted 12.5x power ratio over a 4x frequency
ratio implies a voltage ratio of ``sqrt(12.5 / 4) ~= 1.77``; we take 1.8 V
at 600 MHz falling linearly to ~1.02 V at 150 MHz, and solve ``c`` from
the 500 mW point.

The SA-2 machine powers only a processor (the paper's example assumes "an
idle computer consumes no energy"), so the whole-system terms are zero and
nap power is negligible.
"""

from __future__ import annotations

from typing import Optional

from repro.hw.clocksteps import SA2_CLOCK_TABLE, SA2_FREQUENCIES_MHZ, ClockStep
from repro.hw.cpu import CpuModel
from repro.hw.machine import Machine
from repro.hw.memory import MemoryTimings
from repro.hw.power import CoreState, PowerModel, PowerParameters
from repro.hw.rails import ScheduledRail

#: Voltage endpoints of the scaling schedule.
SA2_VOLTS_MAX = 1.8
SA2_VOLTS_MIN = SA2_VOLTS_MAX / 1.7678  # ~1.018 V: sqrt(12.5/4) ratio

#: Dynamic-power coefficient solving 500 mW = c * 1.8^2 * 600 (W/MHz/V^2).
SA2_CORE_W_PER_MHZ_V2 = 0.500 / (SA2_VOLTS_MAX**2 * 600.0)


def sa2_volts_for_step(step: ClockStep) -> float:
    """The SA-2 voltage schedule: linear in frequency between endpoints."""
    span = SA2_FREQUENCIES_MHZ[-1] - SA2_FREQUENCIES_MHZ[0]
    frac = (step.mhz - SA2_FREQUENCIES_MHZ[0]) / span
    return SA2_VOLTS_MIN + frac * (SA2_VOLTS_MAX - SA2_VOLTS_MIN)


def sa2_power_model() -> PowerModel:
    """Processor-only power model with the SA-2 dynamic coefficient."""
    return PowerModel(
        PowerParameters(
            fixed_w=0.0,
            system_w_per_mhz=0.0,
            core_w_per_mhz_v2=SA2_CORE_W_PER_MHZ_V2,
            pad_w_per_mhz_v2=0.0,
            nap_w_per_mhz_v2=0.0,
        )
    )


def sa2_power_w(step: ClockStep, state: CoreState = CoreState.ACTIVE) -> float:
    """Power at a step under the SA-2 voltage schedule."""
    return sa2_power_model().total_w(step, sa2_volts_for_step(step), state)


def sa2_energy_for_instructions(
    instructions: float, step: ClockStep
) -> "tuple[float, float]":
    """(seconds, joules) to run ``instructions`` at one instruction/cycle.

    The paper's worked example: 600 million instructions take 1 s and
    500 mJ at 600 MHz, 4 s and ~160 mJ at 150 MHz.
    """
    seconds = instructions / (step.mhz * 1e6)
    watts = sa2_power_w(step)
    return seconds, watts * seconds


#: An idealized flat memory table (the intro example is compute-bound).
SA2_MEMORY_TIMINGS = MemoryTimings(
    cycles_per_mem_ref=(10,) * len(SA2_CLOCK_TABLE),
    cycles_per_cache_ref=(40,) * len(SA2_CLOCK_TABLE),
)


class Sa2Machine(Machine):
    """The hypothetical SA-2 as a whole machine the kernel can drive.

    Unlike the Itsy's two-setting rail, the SA-2 rail follows a per-step
    voltage schedule: when a governor requests a frequency without naming a
    voltage, :meth:`auto_volts_for` returns the scheduled voltage so the
    kernel tracks the schedule in both directions (raising before a
    frequency increase, dropping after a decrease).
    """

    def __init__(self) -> None:
        schedule = tuple(sa2_volts_for_step(s) for s in SA2_CLOCK_TABLE)
        cpu = CpuModel(
            clock_table=SA2_CLOCK_TABLE,
            timings=SA2_MEMORY_TIMINGS,
            rail=ScheduledRail(volts_by_index=schedule),
            step=SA2_CLOCK_TABLE.max_step,
        )
        super().__init__(cpu, sa2_power_model())
        self._schedule = schedule

    def auto_volts_for(self, step: ClockStep) -> Optional[float]:
        volts = self._schedule[step.index]
        if abs(volts - self.volts) < 1e-12:
            return None
        return volts
