"""Trace record types.

These mirror the instrumentation the paper added to the Itsy:

- the *process scheduler activity log* (kernel module, §4.3): process id,
  time with microsecond resolution, current clock rate;
- the per-quantum CPU-utilization accounting read by the clock-scaling
  module on every clock interrupt;
- the clock/voltage change history of the governor;
- application-level events (frame displayed, speech chunk played, input
  event handled) used to check the paper's "no visible behaviour change"
  criterion;
- the continuous power signal that the DAQ samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class SchedDecision:
    """One entry of the scheduler activity log (paper §4.3)."""

    time_us: float
    pid: int
    name: str
    mhz: float


@dataclass(frozen=True)
class QuantumRecord:
    """Utilization accounting for one 10 ms scheduling quantum.

    Attributes:
        end_us: time of the clock interrupt closing the quantum.
        busy_us: non-idle execution time within the quantum (includes
            spinning and the forced-scheduler overhead).
        quantum_us: nominal quantum length.
        step_index: clock-step index in effect during the quantum.
        mhz: clock frequency during the quantum.
        volts: core voltage during the quantum.
    """

    end_us: float
    busy_us: float
    quantum_us: float
    step_index: int
    mhz: float
    volts: float

    @property
    def utilization(self) -> float:
        """Busy fraction of the quantum, clamped to [0, 1]."""
        if self.quantum_us <= 0:
            return 0.0
        # max(0.0, min(1.0, u)) as comparisons, ties and NaN alike: the
        # diagnosis reads every quantum's utilization.
        u = self.busy_us / self.quantum_us
        u = u if u < 1.0 else 1.0
        return u if u > 0.0 else 0.0

    @property
    def start_us(self) -> float:
        """Start time of the quantum."""
        return self.end_us - self.quantum_us


@dataclass(frozen=True)
class FreqChange:
    """A clock-frequency change applied by the governor."""

    time_us: float
    from_mhz: float
    to_mhz: float
    stall_us: float


@dataclass(frozen=True)
class VoltChange:
    """A core-voltage change applied by the governor."""

    time_us: float
    from_volts: float
    to_volts: float
    settle_us: float


@dataclass(frozen=True)
class AppEvent:
    """An application-level event with deadline bookkeeping.

    Attributes:
        time_us: when the event actually completed.
        pid: process that produced it.
        kind: event name, e.g. ``"frame"``, ``"audio_chunk"``,
            ``"speech_chunk"``, ``"ui_response"``.
        deadline_us: when it should have completed (None if no deadline).
        payload: free-form tag (e.g. frame number).
    """

    time_us: float
    pid: int
    kind: str
    deadline_us: Optional[float] = None
    payload: Optional[float] = None

    @property
    def lateness_us(self) -> float:
        """How late the event was (0 if on time or no deadline)."""
        if self.deadline_us is None:
            return 0.0
        return max(0.0, self.time_us - self.deadline_us)

    @property
    def on_time(self) -> bool:
        """True if the event met its deadline (or had none)."""
        return self.lateness_us <= 0.0


class PowerTimeline:
    """The continuous power signal produced by the simulated machine.

    Stored as contiguous segments ``(start_us, end_us, watts)``.  Adjacent
    segments with equal power are merged, so typical 60 s runs stay small.
    The DAQ model (:mod:`repro.measure.daq`) samples this signal; the exact
    energy integral is also available directly for validation.
    """

    def __init__(self) -> None:
        self._segments: List[Tuple[float, float, float]] = []

    def record(self, start_us: float, end_us: float, watts: float) -> None:
        """Append a segment.  Zero-length segments are ignored.

        Raises:
            ValueError: if the segment overlaps or precedes recorded time,
                or has negative power.
        """
        if end_us <= start_us + 1e-9:
            return
        if watts < 0:
            raise ValueError("power cannot be negative")
        if self._segments:
            last_start, last_end, last_w = self._segments[-1]
            if start_us < last_end - 1e-6:
                raise ValueError(
                    f"segment at {start_us} overlaps previous ending {last_end}"
                )
            if abs(last_end - start_us) < 1e-6 and abs(last_w - watts) < 1e-12:
                self._segments[-1] = (last_start, end_us, last_w)
                return
        self._segments.append((start_us, end_us, watts))

    def __len__(self) -> int:
        return len(self._segments)

    def __iter__(self) -> Iterator[Tuple[float, float, float]]:
        return iter(self._segments)

    @property
    def start_us(self) -> float:
        """Start of recorded time (0.0 if empty)."""
        return self._segments[0][0] if self._segments else 0.0

    @property
    def end_us(self) -> float:
        """End of recorded time (0.0 if empty)."""
        return self._segments[-1][1] if self._segments else 0.0

    def power_at(self, t_us: float) -> float:
        """Instantaneous power at time ``t_us``.

        Returns 0.0 outside the recorded range.  Gap-free recording is the
        normal case; queries inside an (unexpected) gap return the next
        segment's power only if ``t_us`` falls inside a segment.
        """
        lo, hi = 0, len(self._segments) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            start, end, watts = self._segments[mid]
            if t_us < start:
                hi = mid - 1
            elif t_us >= end:
                lo = mid + 1
            else:
                return watts
        return 0.0

    def sample(self, times_us: "np.ndarray") -> "np.ndarray":
        """Vectorized :meth:`power_at` for an ascending array of times.

        Times outside the recorded range (or in gaps) sample as 0.0.
        """
        import numpy as np

        if not self._segments:
            return np.zeros(len(times_us))
        starts = np.array([s for s, _, _ in self._segments])
        ends = np.array([e for _, e, _ in self._segments])
        watts = np.array([w for _, _, w in self._segments])
        n = len(times_us)
        m = len(starts)
        if (
            n > m
            and np.all(starts[1:] >= starts[:-1])
            and np.all(times_us[1:] >= times_us[:-1])
        ):
            # Slice-fill: with both arrays ascending, bisect each segment
            # boundary into the time grid once (O(m log n)) instead of
            # bisecting every sample into the segment list (O(n log m)).
            # A sample still takes segment j exactly when j is the last
            # segment with start <= t and t < end_j, so the filled values
            # are identical to the per-sample lookup below.
            first = np.searchsorted(times_us, starts, side="left")
            cut = np.searchsorted(times_us, ends, side="left")
            nxt = np.empty_like(first)
            nxt[:-1] = first[1:]
            nxt[-1] = n
            hi = np.minimum(np.maximum(cut, first), nxt)
            vals = np.zeros(2 * m + 1)
            vals[1::2] = watts
            counts = np.empty(2 * m + 1, dtype=np.intp)
            counts[0] = first[0]
            counts[1::2] = hi - first
            counts[2::2] = nxt - hi
            return np.repeat(vals, counts)
        idx = np.searchsorted(starts, times_us, side="right") - 1
        idx_clipped = np.clip(idx, 0, len(starts) - 1)
        inside = (idx >= 0) & (times_us < ends[idx_clipped])
        return np.where(inside, watts[idx_clipped], 0.0)

    def energy_joules(
        self, start_us: Optional[float] = None, end_us: Optional[float] = None
    ) -> float:
        """Exact integral of power over [start_us, end_us], in joules."""
        if start_us is None:
            start_us = self.start_us
        if end_us is None:
            end_us = self.end_us
        total = 0.0
        segments = self._segments
        if segments and start_us <= segments[0][0] and end_us >= segments[-1][1]:
            # Whole-timeline integral (the common case): segments ascend,
            # so no clamping is needed -- the max/min below would return
            # the segment bounds unchanged.
            for seg_start, seg_end, watts in segments:
                total += watts * (seg_end - seg_start) * 1e-6
            return total
        for seg_start, seg_end, watts in segments:
            a = max(seg_start, start_us)
            b = min(seg_end, end_us)
            if b > a:
                total += watts * (b - a) * 1e-6
        return total

    def mean_power_w(
        self, start_us: Optional[float] = None, end_us: Optional[float] = None
    ) -> float:
        """Average power over the window, in watts."""
        if start_us is None:
            start_us = self.start_us
        if end_us is None:
            end_us = self.end_us
        duration_s = (end_us - start_us) * 1e-6
        if duration_s <= 0:
            return 0.0
        return self.energy_joules(start_us, end_us) / duration_s
