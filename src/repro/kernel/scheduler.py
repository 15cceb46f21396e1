"""The kernel simulator: Linux-2.0-style scheduling on the Itsy.

Faithful to the paper's modified kernel (§4.3):

- 100 Hz clock interrupt; the scheduler is forced to run every 10 ms
  quantum (the paper sets the per-process counter to 1 each schedule),
  which costs about 6 us per interval (~0.06 % overhead) -- charged here as
  ``sched_overhead_us``;
- the idle process is pid 0 and naps (pipeline stalled) until the next
  clock interrupt;
- non-idle execution time is accumulated per quantum, examined by the
  clock-scaling module on every clock interrupt, then cleared;
- sleep wake-ups have timer-tick (10 ms) granularity, as Linux 2.0 timers
  do, while spinning processes poll the 3.6 MHz timer and stop at
  microsecond precision;
- clock changes stall the CPU ~200 us; voltage drops sag over ~250 us
  (during which the rail, and hence power, is still at the old voltage);
  voltage rises are instantaneous and are applied *before* a frequency
  increase, drops *after* a decrease.

The simulation is event-free in structure: time advances process-slice by
process-slice inside each quantum, then tick bookkeeping runs.  All times
are float microseconds; quanta are exact multiples of ``quantum_us``.

The class is a lean scheduling core: voltage/frequency sequencing lives in
:class:`~repro.kernel.dvfs.DvfsEngine`, and instrumentation is a set of
row buffers (:mod:`~repro.kernel.recorders`) reduced once at run end into
the full or the minimal (energy-only) :class:`KernelRun`, the one record
a run hands its caller.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Deque, Dict, List, Optional, Tuple

from repro.hw.machine import Machine
from repro.hw.power import CoreState
from repro.kernel.config import KernelConfig
from repro.kernel.dvfs import DvfsEngine
from repro.kernel.governor import Governor, TickInfo
from repro.kernel.process import (
    Compute,
    Exit,
    Process,
    ProcessBody,
    ProcessState,
    Sleep,
    SleepUntil,
    SpinUntil,
    Yield,
)
from repro.kernel.recorders import (
    RECORDING_FULL,
    EnergyTotals,
    QuantumStats,
    check_recording,
    stats_from_rows,
)
from repro.traces.schema import (
    AppEvent,
    FreqChange,
    PowerTimeline,
    QuantumRecord,
    SchedDecision,
    VoltChange,
)

_EPS = 1e-6

#: Safety bound on zero-duration process actions at a single instant.
_MAX_ZERO_PROGRESS_ACTIONS = 10_000


@dataclass
class KernelRun:
    """Everything recorded during one simulated run.

    Which fields are populated depends on the recording mode the kernel
    ran with: under full recording ``quantum_rows``, ``timeline`` and
    ``freq_changes``/``volt_changes`` hold the complete record; under
    minimal recording those stay empty and ``energy`` is set instead.
    Both kernels set ``quantum_stats`` in either mode, and keep
    ``sched_rows`` in either mode when ``KernelConfig.record_sched_log``
    is set.
    """

    duration_us: float
    #: the length of every quantum in the log (``KernelConfig.quantum_us``).
    quantum_us: float
    #: the quantum log as ``(end_us, busy_us, utilization, step_index,
    #: mhz, volts)`` rows, one per quantum; see :attr:`quanta`.
    quantum_rows: List[tuple] = field(default_factory=list)
    timeline: PowerTimeline = field(default_factory=PowerTimeline)
    freq_changes: List[FreqChange] = field(default_factory=list)
    volt_changes: List[VoltChange] = field(default_factory=list)
    #: the scheduler activity log as ``(time_us, pid, name, mhz)`` rows
    #: (pid 0 is the idle process); see :attr:`sched_log`.
    sched_rows: List[tuple] = field(default_factory=list)
    events: List[AppEvent] = field(default_factory=list)
    #: non-idle execution time per pid (pid 0 never appears; spinning and
    #: computing both count, matching the kernel's busy accounting).
    busy_us_by_pid: Dict[int, float] = field(default_factory=dict)
    process_names: Dict[int, str] = field(default_factory=dict)
    clock_changes: int = 0
    clock_stall_us: float = 0.0
    voltage_changes: int = 0
    voltage_settle_us: float = 0.0
    quantum_stats: Optional[QuantumStats] = None
    energy: Optional[EnergyTotals] = None

    # -- derived views -------------------------------------------------------------

    @cached_property
    def quanta(self) -> List[QuantumRecord]:
        """The quantum log as records, built from :attr:`quantum_rows` on
        first read."""
        from repro.kernel.recorders import quantum_records

        return quantum_records(self.quantum_rows, self.quantum_us)

    @property
    def sched_log(self) -> List[SchedDecision]:
        """The scheduler activity log (paper §4.3), built from
        :attr:`sched_rows` on each read."""
        return [SchedDecision(*row) for row in self.sched_rows]

    def busy_share_by_name(self) -> Dict[str, float]:
        """Fraction of total busy time consumed per process name.

        The offline analogue of the paper's process-log analysis: which
        application the cycles actually went to.
        """
        if not self.busy_us_by_pid:
            return {}
        total = sum(self.busy_us_by_pid.values())
        if total <= 0:
            return {name: 0.0 for name in self.process_names.values()}
        out: Dict[str, float] = {}
        for pid, busy in self.busy_us_by_pid.items():
            name = self.process_names.get(pid, f"pid{pid}")
            out[name] = out.get(name, 0.0) + busy / total
        return out

    def utilizations(self) -> List[float]:
        """Per-quantum utilization series (Figure 3's raw data)."""
        return [row[2] for row in self.quantum_rows]

    def mhz_series(self) -> List[float]:
        """Per-quantum clock frequency series (Figure 8's raw data)."""
        return [row[4] for row in self.quantum_rows]

    def mean_utilization(self) -> float:
        """Average utilization over the run."""
        return self.quantum_stats.mean_utilization()

    def energy_joules(self) -> float:
        """Exact energy of the run (the DAQ estimator lives in measure/)."""
        if len(self.timeline) == 0 and self.energy is not None:
            return self.energy.energy_j
        return self.timeline.energy_joules()

    def mean_power_w(self) -> float:
        """Average power of the run."""
        if len(self.timeline) == 0 and self.energy is not None:
            return self.energy.mean_power_w()
        return self.timeline.mean_power_w()

    def stall_windows(self) -> List[Tuple[float, float]]:
        """``(start_us, end_us)`` spans the CPU stalled for clock switches.

        The DVFS engine stamps a :class:`FreqChange` *after* the stall it
        charged, so each window ends at the change time.
        """
        return [
            (c.time_us - c.stall_us, c.time_us)
            for c in self.freq_changes
            if c.stall_us > 0
        ]

    def sag_windows(self) -> List[Tuple[float, float, float, float]]:
        """``(start_us, end_us, from_volts, to_volts)`` spans the rail
        sagged after voltage drops.

        Execution continues during a sag, but power is still drawn at the
        old (higher) voltage — exactly the window the paper's DAQ sees.
        """
        return [
            (c.time_us, c.time_us + c.settle_us, c.from_volts, c.to_volts)
            for c in self.volt_changes
            if c.to_volts < c.from_volts and c.settle_us > 0
        ]

    def events_of_kind(self, kind: str) -> List[AppEvent]:
        """All application events with the given kind."""
        return [e for e in self.events if e.kind == kind]

    def deadline_misses(self, tolerance_us: float = 0.0) -> List[AppEvent]:
        """Events later than their deadline by more than ``tolerance_us``.

        The paper considers an event on time "if delaying its completion did
        not adversely affect the user", so callers pass a per-workload
        perceptibility tolerance rather than zero.
        """
        if tolerance_us < 0.0:
            # lateness_us is clamped at zero, so a negative tolerance
            # matches every deadlined event.
            return [e for e in self.events if e.deadline_us is not None]
        return [
            e
            for e in self.events
            # e.lateness_us > tolerance_us, without the property call and
            # max(): for non-negative tolerances the clamp cannot matter.
            if e.deadline_us is not None
            and e.time_us - e.deadline_us > tolerance_us
        ]


class Kernel:
    """One simulated boot of the machine's kernel.  Use once: spawn, run.

    ``recording`` picks the record the run keeps (``"full"`` or
    ``"minimal"``, see :mod:`~repro.kernel.recorders`).
    """

    IDLE_PID = 0

    def __init__(
        self,
        machine: Machine,
        governor: Optional[Governor] = None,
        config: Optional[KernelConfig] = None,
        recording: str = RECORDING_FULL,
    ):
        self.machine = machine
        self.governor = governor
        self.config = config if config is not None else KernelConfig()
        self.recording = check_recording(recording)
        self.dvfs = DvfsEngine(machine)
        self._procs: Dict[int, Process] = {}
        self._runq: Deque[Process] = deque()
        self._sleepers: List[Process] = []
        self._next_pid = 1
        self._ran = False

        # run-time state
        self._now = 0.0
        self._busy_us = 0.0  # non-idle time in the current quantum
        self._busy_by_pid: Dict[int, float] = {}
        # clock step/voltage in effect for the current quantum (changes
        # happen only in tick processing, so they are constant within one)
        self._quantum_step = machine.step
        self._quantum_volts = machine.volts

        # Observation buffers (see repro.kernel.recorders for the row
        # layouts).  The scheduler log is kept only when configured.
        self._timeline = PowerTimeline()
        self._power_sink = self._timeline.record  # FastKernel: its emit closure
        self._quantum_rows: List[tuple] = []
        self._sched_rows: Optional[List[tuple]] = (
            [] if self.config.record_sched_log else None
        )
        self._freq_changes: List[FreqChange] = []
        self._volt_changes: List[VoltChange] = []

    # -- setup ----------------------------------------------------------------------

    def spawn(self, name: str, body: ProcessBody) -> Process:
        """Create a process; it becomes runnable at time zero.

        Raises:
            RuntimeError: if called after :meth:`run`.
        """
        if self._ran:
            raise RuntimeError("cannot spawn after the kernel has run")
        proc = Process(self._next_pid, name, body)
        self._next_pid += 1
        self._procs[proc.pid] = proc
        self._runq.append(proc)
        return proc

    # -- host interface for the DVFS engine -------------------------------------------

    @property
    def now_us(self) -> float:
        """Current simulation time."""
        return self._now

    def stall(self, duration_us: float) -> None:
        """The processor cannot execute for ``duration_us`` (clock switch);
        the time is charged as busy and drawn at nap power, plus the
        machine's reconfiguration power if it models one."""
        self._record_power(
            CoreState.NAP,
            self._now,
            self._now + duration_us,
            extra_w=self.machine.reconf_extra_w,
        )
        self._busy_us += duration_us
        self._now += duration_us

    def emit_freq_change(self, change: FreqChange) -> None:
        """Log a frequency-change record."""
        self._freq_changes.append(change)

    def emit_volt_change(self, change: VoltChange) -> None:
        """Log a voltage-change record."""
        self._volt_changes.append(change)

    # -- shared run lifecycle (both execution backends) -------------------------------

    def _begin_run(self, duration_us: float) -> float:
        """Open the run: single-use guard, validation, governor reset, and
        quantum rounding.  Returns the run's end, a whole number of quanta.

        Both execution backends enter their loops through here, so the
        run-lifecycle semantics (one run per kernel, positive durations,
        a whole number of quanta, a freshly-reset governor) are defined
        exactly once.
        """
        if self._ran:
            raise RuntimeError("kernel instances are single-use")
        self._ran = True
        if duration_us <= 0:
            raise ValueError("duration must be positive")
        if self.governor is not None:
            self.governor.reset()
        q = self.config.quantum_us
        n_quanta = int(duration_us // q)
        if n_quanta * q < duration_us - _EPS:
            n_quanta += 1
        return n_quanta * q

    def _materialize_run(
        self, end_us: float, rows: List[tuple], stats: QuantumStats, timeline: PowerTimeline
    ) -> KernelRun:
        """Build the run record both backends hand their caller: the event
        stream, per-pid busy accounting, process names, the CPU's
        transition counters, the configured scheduler log and the quantum
        ``stats``; under full recording also the quantum log (``rows``),
        the power ``timeline`` and the transition history, under minimal
        recording the timeline's energy totals instead.
        """
        counters = self.machine.cpu.counters
        run = KernelRun(
            duration_us=end_us,
            quantum_us=self.config.quantum_us,
            events=[e for p in self._procs.values() for e in p.context.events],
            busy_us_by_pid=dict(self._busy_by_pid),
            process_names={p.pid: p.name for p in self._procs.values()},
            clock_changes=counters.clock_changes,
            clock_stall_us=counters.clock_stall_us,
            voltage_changes=counters.voltage_changes,
            voltage_settle_us=counters.voltage_settle_us,
            sched_rows=self._sched_rows or [],
            quantum_stats=stats,
        )
        if self.recording == RECORDING_FULL:
            run.quantum_rows = rows
            run.timeline = timeline
            run.freq_changes = self._freq_changes
            run.volt_changes = self._volt_changes
        else:
            run.energy = EnergyTotals(
                energy_j=timeline.energy_joules(),
                start_us=timeline.start_us,
                end_us=timeline.end_us,
            )
        return run

    # -- main loop --------------------------------------------------------------------

    def run(self, duration_us: float) -> KernelRun:
        """Simulate ``duration_us`` of wall-clock time and return the record.

        The duration is rounded up to a whole number of quanta so that every
        quantum has a closing clock interrupt.

        Raises:
            RuntimeError: if the kernel has already run.
        """
        end_us = self._begin_run(duration_us)
        q = self.config.quantum_us

        sched = self._sched_rows
        next_tick = q
        stuck = 0
        last_now = -1.0
        while self._now < end_us - _EPS:
            if self._now <= last_now + _EPS:
                stuck += 1
                if stuck > _MAX_ZERO_PROGRESS_ACTIONS:
                    raise RuntimeError(
                        f"simulation makes no progress at t={self._now:.1f} us"
                    )
            else:
                stuck = 0
                last_now = self._now
            proc = self._pick_next()
            if proc is None:
                # idle: pid 0 naps until the next clock interrupt.
                if sched is not None:
                    sched.append(
                        (self._now, self.IDLE_PID, "idle", self.machine.step.mhz)
                    )
                self._record_power(CoreState.NAP, self._now, next_tick)
                self._now = next_tick
            else:
                if sched is not None:
                    sched.append(
                        (self._now, proc.pid, proc.name, self.machine.step.mhz)
                    )
                self._run_process(proc, next_tick)
            if self._now >= next_tick - _EPS:
                self._service_tick(next_tick, final=next_tick >= end_us - _EPS)
                next_tick += q

        rows = self._quantum_rows
        return self._materialize_run(end_us, rows, stats_from_rows(rows), self._timeline)

    # -- scheduling ---------------------------------------------------------------------

    def _pick_next(self) -> Optional[Process]:
        """Pop the next runnable process, or None for the idle process."""
        while self._runq:
            proc = self._runq.popleft()
            if proc.state is ProcessState.RUNNABLE:
                return proc
        return None

    def _run_process(self, proc: Process, limit_us: float) -> None:
        """Run ``proc`` until it blocks/exits/yields or the quantum ends."""
        zero_progress = 0
        while self._now < limit_us - _EPS:
            if proc.pending_work is not None:
                self._execute_work(proc, limit_us)
                zero_progress = 0
                continue
            if proc.spin_until_us is not None:
                if proc.spin_until_us <= self._now + _EPS:
                    proc.spin_until_us = None
                    continue
                self._execute_spin(proc, limit_us)
                zero_progress = 0
                continue

            # Exact classes: an action subclass, like any object, is none.
            action = proc.advance(self._now)
            kind = action.__class__
            if action is None or kind is Exit:
                proc.state = ProcessState.EXITED
                return
            if kind is Compute:
                if not action.work.is_empty:
                    proc.pending_work = action.work
                else:
                    zero_progress += 1
            elif kind is SpinUntil:
                proc.spin_until_us = action.until_us
                if action.until_us <= self._now + _EPS:
                    zero_progress += 1
            elif kind is Sleep:
                if action.duration_us <= _EPS:
                    self._do_yield(proc)
                    return
                self._block(proc, self._now + action.duration_us)
                return
            elif kind is SleepUntil:
                self._block(proc, max(action.wake_us, self._now))
                return
            elif kind is Yield:
                self._do_yield(proc)
                return
            else:
                raise TypeError(f"unknown process action {action!r}")

            if zero_progress > _MAX_ZERO_PROGRESS_ACTIONS:
                raise RuntimeError(
                    f"process {proc.name} (pid {proc.pid}) makes no progress "
                    f"at t={self._now:.1f} us"
                )
        # Quantum expired with the process still runnable: preempt it to the
        # back of the run queue (round robin).
        self._runq.append(proc)

    def _do_yield(self, proc: Process) -> None:
        self._runq.append(proc)

    def _block(self, proc: Process, wake_us: float) -> None:
        """Put ``proc`` to sleep; wake-ups happen on timer-tick boundaries."""
        q = self.config.quantum_us
        ticks = int(wake_us // q)
        tick_wake = ticks * q
        if tick_wake < wake_us - _EPS:
            tick_wake += q
        # A wake time that lands exactly on "now" still waits for the next
        # interrupt: the timer has already fired for this jiffy.
        if tick_wake <= self._now + _EPS:
            tick_wake += q
        proc.state = ProcessState.SLEEPING
        proc.wake_us = tick_wake
        self._sleepers.append(proc)

    def _execute_work(self, proc: Process, limit_us: float) -> None:
        """Run the pending Compute until done or the quantum ends."""
        work = proc.pending_work
        assert work is not None
        duration = self.machine.cpu.duration_us(work)
        if duration <= 1e-3:
            # Below one nanosecond: complete instantly.  Such tails arise
            # from floating-point residue when work is split at quantum
            # boundaries and are far below a single clock cycle.
            proc.pending_work = None
            return
        slice_end = min(self._now + duration, limit_us)
        elapsed = slice_end - self._now
        if elapsed <= 0:
            proc.pending_work = None if work.is_empty else work
            return
        self._record_power(CoreState.ACTIVE, self._now, slice_end)
        self._busy_us += elapsed
        self._busy_by_pid[proc.pid] = self._busy_by_pid.get(proc.pid, 0.0) + elapsed
        _, remaining = self.machine.cpu.split_work(work, elapsed)
        proc.pending_work = None if remaining.is_empty else remaining
        self._now = slice_end

    def _execute_spin(self, proc: Process, limit_us: float) -> None:
        """Busy-wait until the spin target or the quantum ends."""
        assert proc.spin_until_us is not None
        target = min(proc.spin_until_us, limit_us)
        if target > self._now:
            self._record_power(CoreState.ACTIVE, self._now, target)
            self._busy_us += target - self._now
            self._busy_by_pid[proc.pid] = (
                self._busy_by_pid.get(proc.pid, 0.0) + target - self._now
            )
            self._now = target
        if proc.spin_until_us <= self._now + _EPS:
            proc.spin_until_us = None

    # -- tick processing --------------------------------------------------------------

    def _service_tick(self, tick_us: float, final: bool = False) -> None:
        """Clock-interrupt bookkeeping at a quantum boundary.

        The terminal tick (``final``) only closes the last quantum: no
        scheduler overhead is charged and no governor action is applied,
        since nothing runs afterwards.
        """
        self._now = tick_us

        # 1. close the quantum that just ended.
        record = QuantumRecord(
            end_us=tick_us,
            busy_us=min(self._busy_us, self.config.quantum_us),
            quantum_us=self.config.quantum_us,
            step_index=self._quantum_step.index,
            mhz=self._quantum_step.mhz,
            volts=self._quantum_volts,
        )
        utilization = record.utilization
        self._quantum_rows.append((
            tick_us, record.busy_us, utilization,
            record.step_index, record.mhz, record.volts,
        ))
        self._busy_us = 0.0
        if final:
            return

        # 2. wake expired sleepers (deterministic order: wake time, pid).
        due = [p for p in self._sleepers if p.wake_us is not None and p.wake_us <= tick_us + _EPS]
        if due:
            due.sort(key=lambda p: (p.wake_us, p.pid))
            for p in due:
                p.state = ProcessState.RUNNABLE
                p.wake_us = None
                self._runq.append(p)
            self._sleepers = [p for p in self._sleepers if p.state is ProcessState.SLEEPING]

        # 3. charge the cost of forcing the scheduler every tick.
        overhead = self.config.sched_overhead_us
        if overhead > 0:
            self._record_power(CoreState.ACTIVE, self._now, self._now + overhead)
            self._busy_us += overhead
            self._now += overhead

        # 4. invoke the clock-scaling module.
        if self.governor is not None:
            info = TickInfo(
                now_us=tick_us,
                utilization=utilization,
                busy_us=record.busy_us,
                quantum_us=record.quantum_us,
                step_index=record.step_index,
                mhz=record.mhz,
                volts=record.volts,
                max_step_index=self.machine.clock_table.max_index,
            )
            request = self.governor.on_tick(info)
            if request is not None and not request.is_noop:
                self.dvfs.apply(request, self)

        self._quantum_step = self.machine.step
        self._quantum_volts = self.machine.volts

    # -- power recording -----------------------------------------------------------------

    def _record_power(
        self,
        state: CoreState,
        start_us: float,
        end_us: float,
        extra_w: float = 0.0,
    ) -> None:
        """Record machine power over [start, end] into the run's power
        sink, honouring the DVFS engine's rail-sag window.  ``extra_w``
        adds a flat power term on top of the model (reconfiguration cost
        during stalls).  Both backends record every transition cost
        here."""
        if end_us <= start_us + _EPS:
            return
        record = self._power_sink
        dvfs = self.dvfs
        if start_us < dvfs.sag_until_us - _EPS:
            split = min(end_us, dvfs.sag_until_us)
            watts = self._watts(state, dvfs.sag_volts)
            if extra_w:
                watts = watts + extra_w
            record(start_us, split, watts)
            if end_us <= split + _EPS:
                return
            start_us = split
        watts = self._watts(state, self.machine.cpu.volts)
        if extra_w:
            watts = watts + extra_w
        record(start_us, end_us, watts)

    def _watts(self, state: CoreState, volts: float) -> float:
        """Whole-system watts at the present step, ``volts`` and ``state``.
        Not memoized: the fast path reads it ~200 times per adaptive 20 s
        cell, and every fast-vs-reference bar times the reference's reads."""
        machine = self.machine
        return machine.power.total_w(machine.cpu.step, volts, state)
