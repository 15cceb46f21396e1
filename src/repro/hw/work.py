"""The unit of application demand: a mix of core cycles and memory traffic.

A :class:`Work` value describes a fixed amount of computation the way the
SA-1100 sees it: some number of core (non-memory) cycles, some number of
individual-word memory references, and some number of cache-line fills.

The wall-clock duration of a piece of work depends on the clock step,
because the memory components cost more *cycles* at higher frequencies
(Table 3, :mod:`repro.hw.memory`).  This is exactly the mechanism behind the
paper's Figure 9: the same work runs at a sub-linear speedup as frequency
rises, with a plateau between 162.2 and 176.9 MHz.

Work is divisible: when a scheduling quantum expires mid-computation the
kernel consumes the fraction of the work that fit in the elapsed time and
carries the remainder to the next time the process runs, possibly at a
different clock step.  Fractions preserve the component mix.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.clocksteps import ClockStep
from repro.hw.memory import MemoryTimings


@dataclass(frozen=True)
class Work:
    """An amount of computation, divisible and frequency-sensitive.

    Attributes:
        cpu_cycles: core cycles that scale perfectly with frequency.
        mem_refs: individual-word memory references.
        cache_refs: cache-line fills.
    """

    cpu_cycles: float = 0.0
    mem_refs: float = 0.0
    cache_refs: float = 0.0

    def __post_init__(self) -> None:
        if self.cpu_cycles < 0 or self.mem_refs < 0 or self.cache_refs < 0:
            raise ValueError("work components must be non-negative")

    # -- algebra -----------------------------------------------------------------

    def __add__(self, other: "Work") -> "Work":
        return Work(
            cpu_cycles=self.cpu_cycles + other.cpu_cycles,
            mem_refs=self.mem_refs + other.mem_refs,
            cache_refs=self.cache_refs + other.cache_refs,
        )

    def scaled(self, factor: float) -> "Work":
        """Return this work multiplied by ``factor`` (component-wise)."""
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        # The product of non-negatives needs no re-check: fill the frozen
        # value's dict directly, as WorkProfile.work does (hot path).
        w = Work.__new__(Work)
        w.__dict__.update(
            cpu_cycles=self.cpu_cycles * factor,
            mem_refs=self.mem_refs * factor,
            cache_refs=self.cache_refs * factor,
        )
        return w

    @property
    def is_empty(self) -> bool:
        """True when no work remains (within floating-point tolerance)."""
        return (self.cpu_cycles + self.mem_refs + self.cache_refs) < 1e-9

    # -- timing ------------------------------------------------------------------

    def total_cycles(self, step: ClockStep, timings: MemoryTimings) -> float:
        """Total core cycles this work occupies at clock step ``step``."""
        return (
            self.cpu_cycles
            + self.mem_refs * timings.mem_cycles(step)
            + self.cache_refs * timings.cache_cycles(step)
        )

    def duration_us(self, step: ClockStep, timings: MemoryTimings) -> float:
        """Wall-clock microseconds this work takes at clock step ``step``."""
        return self.total_cycles(step, timings) / step.mhz

    def split_at_us(
        self, elapsed_us: float, step: ClockStep, timings: MemoryTimings
    ) -> "tuple[Work, Work]":
        """Split into (done, remaining) after executing for ``elapsed_us``.

        The split is proportional: execution is modelled as a homogeneous
        blend of the three components, so running 40 % of the wall-clock
        duration completes 40 % of each component.

        Args:
            elapsed_us: time the work actually ran at ``step``.
            step: the clock step it ran at.
            timings: the memory timing model.

        Returns:
            ``(done, remaining)`` with ``done + remaining == self``
            component-wise.  If ``elapsed_us`` covers the full duration the
            remainder is empty.
        """
        if elapsed_us < 0:
            raise ValueError("elapsed time must be non-negative")
        total = self.duration_us(step, timings)
        # Treat sub-nanosecond tails as complete: they are far below one
        # clock cycle and would otherwise accumulate as floating-point
        # residue that can never be scheduled.
        if total <= 0 or elapsed_us >= total - 1e-3:
            return self, Work()
        frac = elapsed_us / total
        done = self.scaled(frac)
        remaining = Work(
            cpu_cycles=self.cpu_cycles - done.cpu_cycles,
            mem_refs=self.mem_refs - done.mem_refs,
            cache_refs=self.cache_refs - done.cache_refs,
        )
        return done, remaining
