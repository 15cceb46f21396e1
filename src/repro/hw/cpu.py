"""The SA-1100 CPU execution model.

The CPU model tracks the current clock step and core rail voltage, converts
:class:`~repro.hw.work.Work` into wall-clock time through the memory timing
model, and charges the transition costs measured in section 5.4 of the
paper:

- changing the clock frequency stalls the processor for about **200 us**,
  independent of the starting or target speed (11,800 clock periods at
  59 MHz, ~41,280 at 206.4 MHz);
- voltage transitions settle per :mod:`repro.hw.rails` (250 us down,
  instantaneous up).

The model enforces the ordering constraint that a real governor must obey:
to raise the frequency above the low-voltage bound the voltage must be
raised *first*; to lower the voltage the frequency must already be at or
below the bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.hw.clocksteps import SA1100_CLOCK_TABLE, ClockStep, ClockTable
from repro.hw.memory import SA1100_MEMORY_TIMINGS, MemoryTimings
from repro.hw.rails import CoreRail, VoltageError
from repro.hw.work import Work

#: Measured cost of a clock-frequency change (paper §5.4): ~200 us during
#: which the processor cannot execute instructions.
CLOCK_CHANGE_STALL_US = 200.0


@dataclass
class TransitionCounters:
    """Counts and cumulative costs of hardware transitions."""

    clock_changes: int = 0
    clock_stall_us: float = 0.0
    voltage_changes: int = 0
    voltage_settle_us: float = 0.0


@dataclass
class CpuModel:
    """State and arithmetic of the SA-1100 core.

    Attributes:
        clock_table: the discrete clock steps available.
        timings: the frequency-dependent memory cost table.
        rail: the core voltage rail.
        step: the current clock step.
        clock_change_stall_us: stall charged on every frequency change.
    """

    clock_table: ClockTable = field(default_factory=lambda: SA1100_CLOCK_TABLE)
    timings: MemoryTimings = field(default_factory=lambda: SA1100_MEMORY_TIMINGS)
    rail: CoreRail = field(default_factory=CoreRail)
    step: ClockStep = field(default=None)  # type: ignore[assignment]
    clock_change_stall_us: float = CLOCK_CHANGE_STALL_US
    counters: TransitionCounters = field(default_factory=TransitionCounters)

    def __post_init__(self) -> None:
        if self.step is None:
            self.step = self.clock_table.max_step
        if self.timings.num_steps != len(self.clock_table):
            raise ValueError("memory timing table does not cover the clock table")

    # -- queries -----------------------------------------------------------------

    @property
    def mhz(self) -> float:
        """Current clock frequency in MHz."""
        return self.step.mhz

    @property
    def volts(self) -> float:
        """Current core rail voltage."""
        return self.rail.volts

    def duration_us(self, work: Work) -> float:
        """Wall-clock time ``work`` takes at the current step."""
        return work.duration_us(self.step, self.timings)

    def split_work(self, work: Work, elapsed_us: float) -> Tuple[Work, Work]:
        """Split ``work`` into (done, remaining) after ``elapsed_us``."""
        return work.split_at_us(elapsed_us, self.step, self.timings)

    # -- transitions ----------------------------------------------------------------

    def set_step_index(self, index: int) -> float:
        """Switch to clock step ``index``; return the stall in microseconds.

        The index is clamped into the table range (speed setters may compute
        out-of-range indices; pegging at the extremes is the defined
        behaviour).  No stall is charged when the step is unchanged.

        Raises:
            VoltageError: if the target frequency is unsafe at the present
                core voltage (the governor must raise the voltage first).
        """
        index = self.clock_table.clamp_index(index)
        new_step = self.clock_table[index]
        if new_step.index == self.step.index:
            return 0.0
        if not self.rail.allows(self.rail.volts, new_step):
            raise VoltageError(
                f"cannot run {new_step.mhz:.1f} MHz at {self.rail.volts} V; "
                "raise the core voltage first"
            )
        self.step = new_step
        self.counters.clock_changes += 1
        self.counters.clock_stall_us += self.clock_change_stall_us
        return self.clock_change_stall_us

    def set_voltage(self, volts: float) -> float:
        """Change the core voltage; return the settle time in microseconds.

        Raises:
            VoltageError: for unsupported voltages or unsafe combinations
                with the current clock step.
        """
        if volts == self.rail.volts:
            return 0.0
        settle = self.rail.set_voltage(volts, self.step)
        self.counters.voltage_changes += 1
        self.counters.voltage_settle_us += settle
        return settle

    def stall_cycles_lost(self) -> float:
        """Clock periods lost to the most recent frequency change.

        The paper quotes 11,800 periods at 59 MHz up to ~41,280 at
        206.4 MHz; this is simply ``stall * f`` at the (new) frequency.
        """
        return self.clock_change_stall_us * self.step.mhz
