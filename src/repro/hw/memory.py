"""Frequency-dependent memory timings (Table 3 of the paper).

The Itsy's EDO DRAM has a fixed wall-clock access latency, so the number of
*core cycles* spent per access grows with the clock frequency.  Table 3 of
the paper reports the measured cycle counts for reading an individual word
and for filling a full cache line at each of the 11 clock steps:

    freq (MHz)   59.0 73.7 88.5 103.2 118.0 132.7 147.5 162.2 176.9 191.7 206.4
    cycles/mem     11   11   11    11    13    14    14    15    18    19    20
    cycles/cache   39   39   39    39    41    42    49    50    60    61    69

Two consequences the paper highlights:

1. processor *throughput* does not scale linearly with frequency for
   memory-bound code, and
2. there is a distinct jump between 162.2 MHz and 176.9 MHz (mem 15 -> 18,
   cache 50 -> 60) that produces the utilization plateau of Figure 9.

This module captures the table and exposes the cycle-cost arithmetic the CPU
model uses to convert application work into wall-clock time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.hw.clocksteps import SA1100_FREQUENCIES_MHZ, ClockStep

#: Table 3: cycles per individual-word memory reference, slowest step first.
SA1100_CYCLES_PER_MEM_REF: Tuple[int, ...] = (11, 11, 11, 11, 13, 14, 14, 15, 18, 19, 20)

#: Table 3: cycles per full cache-line reference, slowest step first.
SA1100_CYCLES_PER_CACHE_REF: Tuple[int, ...] = (39, 39, 39, 39, 41, 42, 49, 50, 60, 61, 69)


@dataclass(frozen=True)
class MemoryTimings:
    """Cycle cost of memory operations at each clock step.

    Attributes:
        cycles_per_mem_ref: core cycles to read one individual word, indexed
            by clock-step index.
        cycles_per_cache_ref: core cycles to read one full cache line,
            indexed by clock-step index.
    """

    cycles_per_mem_ref: Tuple[int, ...]
    cycles_per_cache_ref: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.cycles_per_mem_ref) != len(self.cycles_per_cache_ref):
            raise ValueError("memory timing tables must have equal length")
        if not self.cycles_per_mem_ref:
            raise ValueError("memory timing tables must be non-empty")
        if any(c <= 0 for c in self.cycles_per_mem_ref):
            raise ValueError("cycles per memory reference must be positive")
        if any(c <= 0 for c in self.cycles_per_cache_ref):
            raise ValueError("cycles per cache reference must be positive")
        for mem, cache in zip(self.cycles_per_mem_ref, self.cycles_per_cache_ref):
            if cache < mem:
                raise ValueError(
                    "a cache-line fill cannot be cheaper than a single word"
                )

    @property
    def num_steps(self) -> int:
        """Number of clock steps covered by the table."""
        return len(self.cycles_per_mem_ref)

    def mem_cycles(self, step: ClockStep) -> int:
        """Core cycles per individual-word memory reference at ``step``."""
        return self.cycles_per_mem_ref[step.index]

    def cache_cycles(self, step: ClockStep) -> int:
        """Core cycles per cache-line reference at ``step``."""
        return self.cycles_per_cache_ref[step.index]

    def mem_latency_us(self, step: ClockStep) -> float:
        """Wall-clock latency of one individual-word reference, microseconds."""
        return self.mem_cycles(step) / step.mhz

    def as_table(self, frequencies_mhz: Sequence[float] = SA1100_FREQUENCIES_MHZ) -> Dict[float, Tuple[int, int]]:
        """Render the timings as ``{freq_mhz: (mem_cycles, cache_cycles)}``.

        This is the exact content of Table 3 and is what the Table 3
        benchmark prints.
        """
        if len(frequencies_mhz) != self.num_steps:
            raise ValueError("frequency list does not match table length")
        return {
            f: (self.cycles_per_mem_ref[i], self.cycles_per_cache_ref[i])
            for i, f in enumerate(frequencies_mhz)
        }


#: The measured SA-1100 / EDO DRAM timings of Table 3.
SA1100_MEMORY_TIMINGS = MemoryTimings(
    cycles_per_mem_ref=SA1100_CYCLES_PER_MEM_REF,
    cycles_per_cache_ref=SA1100_CYCLES_PER_CACHE_REF,
)

