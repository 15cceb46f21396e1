"""Trace-driven replay workloads: the methodology the paper criticizes.

All prior work (Weiser, Govil, Pering) evaluated policies against
*recorded traces*.  The paper argues this misses the feedback a real
implementation faces -- so this module makes the comparison runnable by
replaying a recorded run's per-quantum activity in two modes:

- ``TIME`` replay: each quantum's recorded busy time is busy-*waited*
  verbatim.  The load pattern is identical at every clock step, exactly
  like a trace that records "the CPU was busy 80 % of this interval":
  slowing the clock costs nothing visible, so policies look better than
  they are.
- ``WORK`` replay: each quantum's busy time is converted into the *work*
  the original machine completed in it (cycles at the recorded clock
  step); the replayed process must actually finish that work before the
  next quantum's arrives, with a deadline per recorded quantum.  Slowing
  the clock now stretches execution and spills work -- the feedback a
  live system has.

The gap between the two modes under the same policy quantifies how much
trace-driven evaluation overstates a policy (see
``benchmarks/bench_trace_replay.py``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Generator, List, Sequence

from repro.hw.work import Work
from repro.kernel.process import Action, Compute, ProcessContext, SleepUntil, SpinUntil
from repro.kernel.scheduler import Kernel, KernelRun
from repro.workloads.base import Workload


class ReplayMode(enum.Enum):
    """How recorded activity is reinterpreted during replay."""

    TIME = "time"
    WORK = "work"


@dataclass(frozen=True)
class RecordedQuantum:
    """One quantum of recorded activity.

    Attributes:
        busy_us: recorded non-idle time.
        mhz: the clock frequency the recording ran at.
        quantum_us: quantum length of the recording.
    """

    busy_us: float
    mhz: float
    quantum_us: float

    @property
    def work_cycles(self) -> float:
        """Cycles the original machine spent in this quantum."""
        return self.busy_us * self.mhz


def record_from_run(run: KernelRun) -> List[RecordedQuantum]:
    """Extract a replayable trace from a kernel run."""
    return [
        RecordedQuantum(busy_us=q.busy_us, mhz=q.mhz, quantum_us=q.quantum_us)
        for q in run.quanta
    ]


def replay_body(
    trace: Sequence[RecordedQuantum], mode: ReplayMode, name: str = "replay"
):
    """A process body replaying a recorded trace in the given mode.

    TIME mode busy-waits each quantum's recorded busy time inside its
    original quantum window (idle-filling the rest).  WORK mode issues the
    recorded cycles as :class:`~repro.hw.work.Work` with the end of the
    recorded quantum as the deadline; unfinished work delays subsequent
    quanta, as on a real machine.  Both emit a ``replay_quantum`` event
    per recorded quantum with that deadline.  ``name`` labels the trace in
    error messages.

    Raises:
        ValueError: for an empty trace or a non-positive quantum length,
            naming the trace and the offending quantum.
    """
    if not trace:
        raise ValueError(
            f"empty replay trace {name!r}: nothing to replay (0 quanta)"
        )
    for i, rec in enumerate(trace):
        if rec.quantum_us <= 0:
            raise ValueError(
                f"replay trace {name!r}: quantum {i} of {len(trace)} has "
                f"non-positive length {rec.quantum_us!r} us"
            )

    # precomputed window ends relative to the start time
    offsets = []
    total = 0.0
    for rec in trace:
        total += rec.quantum_us
        offsets.append(total)

    def body(ctx: ProcessContext) -> Generator[Action, None, None]:
        start = ctx.now_us
        for i, rec in enumerate(trace):
            window_end = start + offsets[i]
            if mode is ReplayMode.TIME:
                if ctx.now_us < window_end - rec.quantum_us:
                    yield SleepUntil(window_end - rec.quantum_us)
                if rec.busy_us > 0:
                    yield SpinUntil(min(ctx.now_us + rec.busy_us, window_end))
                ctx.emit("replay_quantum", deadline_us=window_end, payload=float(i))
                if ctx.now_us < window_end:
                    yield SleepUntil(window_end)
            else:
                if rec.busy_us > 0:
                    yield Compute(Work(cpu_cycles=rec.work_cycles))
                ctx.emit("replay_quantum", deadline_us=window_end, payload=float(i))
                if ctx.now_us < window_end:
                    yield SleepUntil(window_end)

    return body


def replay_workload(
    trace: Sequence[RecordedQuantum],
    mode: ReplayMode,
    name: str = "replay",
    tolerance_us: float = 10_000.0,
) -> Workload:
    """A workload descriptor replaying ``trace`` in ``mode``.

    The tolerance default (one quantum) forgives the tick-granularity
    wake-ups that both modes share.
    """
    duration_s = sum(q.quantum_us for q in trace) / 1e6

    def setup(kernel: Kernel, seed: int) -> None:
        del seed  # replay is deterministic by construction
        kernel.spawn(name, replay_body(trace, mode, name=name))

    return Workload(
        name=f"{name}-{mode.value}",
        duration_s=duration_s,
        tolerance_us=tolerance_us,
        setup=setup,
    )

