"""The kernel's observation streams and the recorder protocol over them.

Both kernels buffer what they observe as plain row lists — per-quantum
utilization accounting, the microsecond scheduler activity log (paper
§4.3), and the frequency/voltage change records — and build the
:class:`~repro.kernel.scheduler.KernelRun` for their recording mode at
run end:

- ``"full"`` keeps the complete record: the power timeline, the quantum
  log, the transition history, and (when configured) the scheduler log;
- ``"minimal"`` keeps just enough for an energy-only sweep cell: the
  run's :class:`EnergyTotals` and :class:`QuantumStats`, **bitwise
  equal** to what full recording reports.

Extra observers subclass :class:`RunRecorder`: each is handed one frozen
:class:`RunStreams` through :meth:`RunRecorder.contribute` once the run
is built, so runs without observers pay nothing for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List

from repro.traces.schema import FreqChange, QuantumRecord, VoltChange

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.scheduler import KernelRun

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
class RunStreams:
    """One run's buffered observation streams, each in event order.

    The lists are the kernel's own buffers, shared rather than copied:
    treat them as read-only.  Power is not a stream; a recorder that
    wants it reads the finished run's ``timeline`` (full recording).

    Attributes:
        quantum_us: the (constant) quantum length.
        quanta: ``(end_us, busy_us, utilization, step_index, mhz, volts)``
            rows, one per closed quantum.
        sched: ``(time_us, pid, name, mhz)`` scheduling decisions (pid 0
            is the idle process), recorded whenever a recorder is
            attached, whatever ``KernelConfig.record_sched_log`` says.
        freq_changes / volt_changes: the DVFS transition history.
    """

    quantum_us: float
    quanta: List[tuple]
    sched: List[tuple]
    freq_changes: List[FreqChange]
    volt_changes: List[VoltChange]


class RunRecorder:
    """Base observer of a kernel run.

    Attach instances as ``extra_recorders`` on any execution backend
    (:mod:`repro.kernel.backend`).  Both kernels call :meth:`contribute`
    once per recorder, in attachment order, after the run is built; the
    streams are identical on every backend, so a recorder's product is
    bitwise identical on every backend too.
    """

    def contribute(self, run: "KernelRun", streams: RunStreams) -> None:
        """Reduce ``streams`` and deposit the product into ``run``."""


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
    """Per-quantum aggregates (minimal-recording mode)."""

    count: int
    utilization_sum: float
    quanta_by_step: Dict[int, int] = field(default_factory=dict)
    mhz_by_step: Dict[int, float] = field(default_factory=dict)
    final_step_index: int = 0
    final_mhz: float = 0.0
    final_volts: float = 0.0

    def mean_utilization(self) -> float:
        """Average utilization, bitwise equal to the full-log mean."""
        if not self.count:
            return 0.0
        return self.utilization_sum / self.count


def quantum_records(rows: List[tuple], quantum_us: float) -> List[QuantumRecord]:
    """The quantum log that quantum rows (see :class:`RunStreams`) stand for."""
    return [
        QuantumRecord(
            end_us=t,
            busy_us=b,
            quantum_us=quantum_us,
            step_index=si,
            mhz=m,
            volts=v,
        )
        for (t, b, _u, si, m, v) in rows
    ]


def stats_from_rows(rows: List[tuple]) -> QuantumStats:
    """Aggregate quantum rows (see :class:`RunStreams`).

    The utilization sum adds per-quantum values left to right, the same
    order as :meth:`~repro.kernel.scheduler.KernelRun.mean_utilization`
    over the full log, so the mean is bitwise equal between modes.
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
        final_volts=last[5] if last else 0.0,
    )
