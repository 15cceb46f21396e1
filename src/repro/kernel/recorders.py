"""The kernel's recording modes and the aggregates they keep.

Both kernels buffer what they observe as plain row lists — per-quantum
utilization accounting as ``(end_us, busy_us, utilization, step_index,
mhz, volts)`` rows, the microsecond scheduler activity log (paper §4.3)
as ``(time_us, pid, name, mhz)`` rows, and the frequency/voltage change
records — and build the :class:`~repro.kernel.scheduler.KernelRun` for
their recording mode at run end:

- ``"full"`` keeps the complete record: the power timeline, the quantum
  log (the quantum rows themselves; ``run.quanta`` is a view of them),
  the transition history, and (when configured) the scheduler log;
- ``"minimal"`` keeps just enough for an energy-only sweep cell: the
  run's :class:`EnergyTotals`.

Both modes attach the run's :class:`QuantumStats`, so every summary of
a run reads the same aggregates whichever mode recorded it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List

if TYPE_CHECKING:
    from repro.traces.schema import QuantumRecord

#: Recording-mode names understood by the measurement layer.
RECORDING_FULL = "full"
RECORDING_MINIMAL = "minimal"


def check_recording(mode: str) -> str:
    """Return ``mode`` if it names a recording mode.

    Raises:
        ValueError: for unknown mode names.
    """
    if mode not in (RECORDING_FULL, RECORDING_MINIMAL):
        raise ValueError(
            f"unknown recording mode {mode!r}; "
            f"expected {RECORDING_FULL!r} or {RECORDING_MINIMAL!r}"
        )
    return mode


@dataclass(frozen=True)
class EnergyTotals:
    """Energy of a run without its timeline (minimal-recording mode)."""

    energy_j: float
    start_us: float
    end_us: float

    def mean_power_w(self) -> float:
        """Average power over the recorded window, in watts."""
        duration_s = (self.end_us - self.start_us) * 1e-6
        if duration_s <= 0:
            return 0.0
        return self.energy_j / duration_s


@dataclass(frozen=True)
class QuantumStats:
    """Per-quantum aggregates (kept in both recording modes)."""

    count: int
    utilization_sum: float
    quanta_by_step: Dict[int, int] = field(default_factory=dict)
    mhz_by_step: Dict[int, float] = field(default_factory=dict)
    final_step_index: int = 0
    final_mhz: float = 0.0

    def mean_utilization(self) -> float:
        """Average per-quantum utilization."""
        if not self.count:
            return 0.0
        return self.utilization_sum / self.count


def quantum_records(rows: List[tuple], quantum_us: float) -> List[QuantumRecord]:
    """The quantum log that quantum rows stand for."""
    from repro.traces.schema import QuantumRecord

    # QuantumRecord is frozen and checks nothing: fill each record's dict
    # directly (a 20 s run's log is 2000 of them).
    new = QuantumRecord.__new__
    records = []
    for (t, b, _u, si, m, v) in rows:
        r = new(QuantumRecord)
        r.__dict__.update(
            end_us=t, busy_us=b, quantum_us=quantum_us, step_index=si, mhz=m, volts=v
        )
        records.append(r)
    return records


def stats_from_rows(rows: List[tuple]) -> QuantumStats:
    """Aggregate quantum rows.

    The utilization sum adds per-quantum values left to right, as the
    fast path accumulates them inline, so both kernels' means are
    bitwise equal.
    """
    usum = 0.0
    by_step: Dict[int, int] = {}
    mhz_by_step: Dict[int, float] = {}
    for (_t, _b, u, si, m, _v) in rows:
        usum += u
        by_step[si] = by_step.get(si, 0) + 1
        mhz_by_step[si] = m
    last = rows[-1] if rows else None
    return QuantumStats(
        count=len(rows),
        utilization_sum=usum,
        quanta_by_step=by_step,
        mhz_by_step=mhz_by_step,
        final_step_index=last[3] if last else 0,
        final_mhz=last[4] if last else 0.0,
    )
