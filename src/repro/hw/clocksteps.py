"""The discrete clock steps of the StrongARM SA-1100.

The SA-1100 used in the Itsy supports 11 distinct core clock rates ("clock
steps"), listed in Table 3 of the paper, from 59.0 MHz to 206.4 MHz in
nominally equal increments of ~14.7 MHz.  Clock-scaling policies never pick
an arbitrary frequency: they pick one of these steps, addressed by index
(0 = slowest .. 10 = fastest).

The *speed setting* algorithms of the paper (``one``, ``double``, ``peg``,
see :mod:`repro.core.speed`) are pure index arithmetic over this table.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

#: The 11 SA-1100 clock frequencies of Table 3, in MHz, slowest first.
SA1100_FREQUENCIES_MHZ: Tuple[float, ...] = (
    59.0,
    73.7,
    88.5,
    103.2,
    118.0,
    132.7,
    147.5,
    162.2,
    176.9,
    191.7,
    206.4,
)


@dataclass(frozen=True)
class ClockStep:
    """One discrete clock setting.

    Attributes:
        index: position in the clock table, 0 = slowest.
        mhz: core clock frequency in MHz.
    """

    index: int
    mhz: float

    @property
    def hz(self) -> float:
        """Core clock frequency in Hz."""
        return self.mhz * 1e6

    def cycles_in_us(self, duration_us: float) -> float:
        """Number of core clock cycles elapsing in ``duration_us``.

        One microsecond at ``f`` MHz is exactly ``f`` cycles, so this is
        simply ``duration_us * mhz``.
        """
        return duration_us * self.mhz

    def us_for_cycles(self, cycles: float) -> float:
        """Wall-clock microseconds needed to run ``cycles`` core cycles."""
        return cycles / self.mhz

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.mhz:.1f}MHz(step {self.index})"


class ClockTable:
    """An ordered table of :class:`ClockStep` values.

    The table is immutable after construction.  It provides the index
    arithmetic used by speed setters and lookups used by policies and the
    measurement harness.
    """

    def __init__(self, frequencies_mhz: Sequence[float]):
        if not frequencies_mhz:
            raise ValueError("clock table needs at least one frequency")
        freqs = list(frequencies_mhz)
        if any(f <= 0 for f in freqs):
            raise ValueError("clock frequencies must be positive")
        if sorted(freqs) != freqs:
            raise ValueError("clock frequencies must be sorted ascending")
        if len(set(freqs)) != len(freqs):
            raise ValueError("clock frequencies must be distinct")
        self._steps: List[ClockStep] = [
            ClockStep(index=i, mhz=f) for i, f in enumerate(freqs)
        ]
        self._freqs = freqs
        self._max_index = len(self._steps) - 1

    # -- basic container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._steps)

    def __iter__(self) -> Iterator[ClockStep]:
        return iter(self._steps)

    def __getitem__(self, index: int) -> ClockStep:
        return self._steps[index]

    # -- lookups -----------------------------------------------------------------

    @property
    def min_step(self) -> ClockStep:
        """The slowest clock step."""
        return self._steps[0]

    @property
    def max_step(self) -> ClockStep:
        """The fastest clock step."""
        return self._steps[-1]

    @property
    def max_index(self) -> int:
        """Index of the fastest clock step."""
        return self._max_index

    def clamp_index(self, index: int) -> int:
        """Clamp ``index`` into the valid step range."""
        if index < 0:
            return 0
        max_index = self._max_index
        return max_index if index > max_index else index

    def step_for_mhz(self, mhz: float) -> ClockStep:
        """Return the step whose frequency equals ``mhz`` (within 0.05 MHz).

        Raises:
            KeyError: if no step matches.
        """
        for step in self._steps:
            if abs(step.mhz - mhz) < 0.05:
                return step
        raise KeyError(f"no clock step at {mhz} MHz")

    def lowest_step_at_least(self, mhz: float) -> ClockStep:
        """Return the slowest step with frequency >= ``mhz``.

        This is the "minimum speed that still meets the demand" lookup used
        by the simple busy-instruction averaging policy of Figure 5.  If the
        demand exceeds the fastest step, the fastest step is returned.
        """
        i = bisect.bisect_left(self._freqs, mhz - 1e-9)
        return self._steps[min(i, self.max_index)]

    def frequencies_mhz(self) -> Tuple[float, ...]:
        """All frequencies in ascending order, in MHz."""
        return tuple(self._freqs)


#: The clock table of the SA-1100 as used in the Itsy (Table 3).
SA1100_CLOCK_TABLE = ClockTable(SA1100_FREQUENCIES_MHZ)

#: Eleven clock steps of the hypothetical SA-2 (:mod:`repro.hw.sa2`),
#: 150 to 600 MHz in 45 MHz increments.
SA2_FREQUENCIES_MHZ: Tuple[float, ...] = tuple(150.0 + 45.0 * i for i in range(11))

SA2_CLOCK_TABLE = ClockTable(SA2_FREQUENCIES_MHZ)
