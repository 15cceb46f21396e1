"""Fast-path simulation core: the reference kernel's hot loop, flattened.

:class:`FastKernel` is a drop-in replacement for
:class:`~repro.kernel.scheduler.Kernel` that produces **bitwise-identical**
results while eliminating the reference loop's per-quantum overheads:

- power segments land in one flat local closure (``emit``), the one
  place that applies the timeline's segment-merge arithmetic, so a power
  segment costs a function call and a few float compares instead of a
  :class:`~repro.traces.schema.PowerTimeline` method call;
- per-quantum state is appended as plain tuples to the list the run
  keeps as its quantum log, and the quantum aggregates are accumulated
  inline;
- process slices run against cached generator/step state (``next(gen)``,
  local memory-timing cycle counts, precomputed active/nap watts) instead
  of attribute lookups through ``Process`` / ``CpuModel`` /
  ``DvfsEngine`` indirection — the caches are refreshed at the only place
  the step or rail can change, a governor-driven ``DvfsEngine.apply``;
- idle quanta take a slice-coalescing fast path: one nap segment per
  quantum with no process dispatch, and the pending-segment merge
  coalesces runs of idle (or single-process) quanta into a single
  timeline segment, exactly as the reference timeline would.

Only the hot loop is copied: the idle, work and spin slices, the tick
close, the wake scan, the governor call and the cache refresh after a
DVFS apply.  Every float add, multiply, comparison and tolerance in it is
transcribed from the reference kernel (`scheduler.py`), the quantum
aggregates (`recorders.py`), the timeline (`traces/schema.py`) and the
work model (`hw/work.py`), in the same order and associativity.

Everything else comes from :class:`~repro.kernel.scheduler.Kernel`: the
run lifecycle, the action-dispatch rule (exact classes, the same
``TypeError`` for anything else), the run record (``_materialize_run``)
and the one power-recording path (``_record_power``), which writes into
``emit`` and reads watts through ``Kernel._watts`` as the reference
does.  Rare paths (rail-sag power splits, DVFS stalls) thus fall back to
the reference implementations so the tricky sequencing logic is never
duplicated.  The reference kernel remains the oracle;
``tests/kernel/test_fastpath.py`` drives every catalog policy × workload
× machine through both cores and asserts bitwise equality.
"""

from __future__ import annotations

import gc
from typing import List

from repro.hw.power import CoreState
from repro.kernel.governor import TickInfo
from repro.kernel.process import (
    Compute,
    Exit,
    ProcessState,
    Sleep,
    SleepUntil,
    SpinUntil,
    Yield,
)
from repro.kernel.recorders import QuantumStats
from repro.kernel.scheduler import (
    _EPS,
    _MAX_ZERO_PROGRESS_ACTIONS,
    Kernel,
    KernelRun,
)
from repro.traces.schema import PowerTimeline


class FastKernel(Kernel):
    """The fast-path core.  Same contract as :class:`Kernel`, one run only."""

    def run(self, duration_us: float) -> KernelRun:
        # The hot loop allocates ~10^5 short-lived tuples per simulated
        # minute, none of which form reference cycles, so the cyclic
        # collector contributes only pauses here.  Pause it for the
        # duration of the run (plain reference counting still frees
        # everything) and restore it on the way out, even on error.
        was_enabled = gc.isenabled()
        if was_enabled:
            gc.disable()
        try:
            return self._run_impl(duration_us)
        finally:
            if was_enabled:
                gc.enable()

    def _run_impl(self, duration_us: float) -> KernelRun:  # noqa: C901
        end_us = self._begin_run(duration_us)
        governor = self.governor
        config = self.config
        q = config.quantum_us

        machine = self.machine
        cpu = machine.cpu
        timings = cpu.timings
        dvfs = self.dvfs
        max_step_index = machine.clock_table.max_index
        overhead = config.sched_overhead_us
        idle_pid = self.IDLE_PID

        ACTIVE = CoreState.ACTIVE
        NAP = CoreState.NAP
        RUNNABLE = ProcessState.RUNNABLE
        SLEEPING = ProcessState.SLEEPING
        EXITED = ProcessState.EXITED

        # Flat power sink: PowerTimeline.record collapsed into one closure
        # over a merged segment list.  Same zero-length skip and
        # adjacent-equal-power merge tolerances.
        segs: List[tuple] = []
        segs_append = segs.append
        # The pending segment, held in closure cells emit shares.
        p_on = False
        p_start = p_end = p_w = 0.0

        def emit(start: float, end: float, watts: float) -> None:
            nonlocal p_on, p_start, p_end, p_w
            if end <= start + 1e-9:
                return
            if p_on:
                # abs(a - b) < tol, spelled as a chained comparison so the
                # hot path makes no builtin calls; same truth value.
                gap = p_end - start
                dw = p_w - watts
                if -1e-6 < gap < 1e-6 and -1e-12 < dw < 1e-12:
                    p_end = end
                    return
                segs_append((p_start, p_end, p_w))
            else:
                p_on = True
            p_start = start
            p_end = end
            p_w = watts

        self._power_sink = emit
        record_power = self._record_power  # cold path (sag window active)

        # Quantum log: (end, busy, util, step_index, mhz, volts) rows
        rows: List[tuple] = []
        rows_append = rows.append
        # Scheduler decisions: buffered only when configured.
        sched_rows = self._sched_rows
        sched_append = sched_rows.append if sched_rows is not None else None

        runq = self._runq
        runq_popleft = runq.popleft
        runq_append = runq.append
        sleepers = self._sleepers
        sleepers_append = sleepers.append
        busy_by_pid = self._busy_by_pid
        bbp_get = busy_by_pid.get

        # Pending Compute state lives as raw component tuples on the process
        # so slices never construct intermediate Work objects.
        for p in self._procs.values():
            p._fp_work = None  # type: ignore[attr-defined]

        # Cached step/rail state; only a governor-driven dvfs.apply can
        # invalidate these, and that happens in exactly one place below.
        step = cpu.step
        mhz = step.mhz
        mem_c = timings.mem_cycles(step)
        cache_c = timings.cache_cycles(step)
        active_w = machine.power_w(ACTIVE)
        nap_w = machine.power_w(NAP)
        sag_until = dvfs.sag_until_us
        # step index and voltage in effect for the current quantum
        q_step_index = step.index
        q_volts = cpu.volts

        # Memory timings and power draws are pure functions of the
        # (step, rail voltage) pair; interval policies bounce between a
        # couple of states thousands of times per run, so cache the
        # lookups per pair instead of recomputing them on every apply.
        state_cache: dict = {}
        state_cache[(step.index, q_volts)] = (mem_c, cache_c, active_w, nap_w)

        inf = float("inf")
        next_wake = inf  # earliest sleeper wake time (skip scans otherwise)
        tickinfo_new = TickInfo.__new__
        gov_live = governor is not None
        gov_inert_after_none = gov_live and governor.inert_after_none

        # Quantum aggregates (stats_from_rows arithmetic): the
        # utilization sum adds in arrival order; per-step counts are
        # tracked run-length style since the step only changes at a
        # governor-driven dvfs.apply.
        usum = 0.0
        by_step: dict = {}
        mhz_by_step: dict = {q_step_index: mhz}
        cur_si = q_step_index
        cur_cnt = 0

        now = self._now
        busy = self._busy_us
        next_tick = q
        stuck = 0
        last_now = -1.0

        stop = end_us - _EPS
        while now < stop:
            if now <= last_now + _EPS:
                stuck += 1
                if stuck > _MAX_ZERO_PROGRESS_ACTIONS:
                    raise RuntimeError(
                        f"simulation makes no progress at t={now:.1f} us"
                    )
            else:
                stuck = 0
                last_now = now

            proc = None
            while runq:
                cand = runq_popleft()
                if cand.state is RUNNABLE:
                    proc = cand
                    break

            if proc is None:
                # idle fast path: one nap segment, no process dispatch.
                if sched_append is not None:
                    sched_append((now, idle_pid, "idle", mhz))
                if next_tick > now + _EPS:
                    if now < sag_until - _EPS:
                        record_power(NAP, now, next_tick)
                    else:
                        emit(now, next_tick, nap_w)
                now = next_tick
            else:
                if sched_append is not None:
                    sched_append((now, proc.pid, proc.name, mhz))
                # -- inlined _run_process(proc, next_tick) --------------------
                limit = next_tick
                zero_progress = 0
                pid = proc.pid
                ctx = proc.context
                gen = proc._gen
                while now < limit - _EPS:
                    work = proc._fp_work  # type: ignore[attr-defined]
                    if work is not None:
                        wc, wm, wca = work
                        duration = (wc + wm * mem_c + wca * cache_c) / mhz
                        if duration <= 1e-3:
                            # sub-nanosecond tail: complete instantly
                            proc._fp_work = None
                            zero_progress = 0
                            continue
                        slice_end = now + duration
                        if slice_end > limit:
                            slice_end = limit
                        elapsed = slice_end - now
                        if slice_end > now + _EPS:
                            if now < sag_until - _EPS:
                                record_power(ACTIVE, now, slice_end)
                            else:
                                emit(now, slice_end, active_w)
                        busy += elapsed
                        busy_by_pid[pid] = bbp_get(pid, 0.0) + elapsed
                        if elapsed >= duration - 1e-3:
                            proc._fp_work = None
                        else:
                            # Work.split_at_us, component-wise
                            frac = elapsed / duration
                            rc = wc - wc * frac
                            rm = wm - wm * frac
                            rca = wca - wca * frac
                            if (rc + rm + rca) < 1e-9:
                                proc._fp_work = None
                            else:
                                proc._fp_work = (rc, rm, rca)
                        now = slice_end
                        zero_progress = 0
                        continue
                    su = proc.spin_until_us
                    if su is not None:
                        if su <= now + _EPS:
                            proc.spin_until_us = None
                            continue
                        target = su if su < limit else limit
                        if target > now:
                            if target > now + _EPS:
                                if now < sag_until - _EPS:
                                    record_power(ACTIVE, now, target)
                                else:
                                    emit(now, target, active_w)
                            busy += target - now
                            busy_by_pid[pid] = bbp_get(pid, 0.0) + target - now
                            now = target
                        if su <= now + _EPS:
                            proc.spin_until_us = None
                        zero_progress = 0
                        continue

                    ctx.now_us = now
                    try:
                        action = next(gen)
                    except StopIteration:
                        action = None
                    if action is None:
                        proc.state = EXITED
                        break
                    acls = action.__class__
                    if acls is Compute:
                        aw = action.work
                        wc = aw.cpu_cycles
                        wm = aw.mem_refs
                        wca = aw.cache_refs
                        if (wc + wm + wca) < 1e-9:
                            zero_progress += 1
                        else:
                            proc._fp_work = (wc, wm, wca)
                    elif acls is SpinUntil:
                        until = action.until_us
                        proc.spin_until_us = until
                        if until <= now + _EPS:
                            zero_progress += 1
                    elif acls is Sleep or acls is SleepUntil:
                        # Kernel._block: round the wake time up to a tick.
                        if acls is SleepUntil:
                            wake = action.wake_us
                            if now > wake:  # max(wake_us, now)
                                wake = now
                        elif action.duration_us <= _EPS:
                            runq_append(proc)
                            break
                        else:
                            wake = now + action.duration_us
                        ticks = int(wake // q)
                        tick_wake = ticks * q
                        if tick_wake < wake - _EPS:
                            tick_wake += q
                        if tick_wake <= now + _EPS:
                            tick_wake += q
                        proc.state = SLEEPING
                        proc.wake_us = tick_wake
                        sleepers_append(proc)
                        if tick_wake < next_wake:
                            next_wake = tick_wake
                        break
                    elif acls is Yield:
                        runq_append(proc)
                        break
                    elif acls is Exit:
                        proc.state = EXITED
                        break
                    else:
                        raise TypeError(f"unknown process action {action!r}")

                    if zero_progress > _MAX_ZERO_PROGRESS_ACTIONS:
                        raise RuntimeError(
                            f"process {proc.name} (pid {proc.pid}) makes no "
                            f"progress at t={now:.1f} us"
                        )
                else:
                    # quantum expired with the process runnable: round robin
                    runq_append(proc)

            if now >= next_tick - _EPS:
                # -- inlined _service_tick(next_tick, ...) --------------------
                tick = next_tick
                now = tick
                busy_c = busy if busy < q else q
                util = busy_c / q
                if util > 1.0:
                    util = 1.0
                elif util < 0.0:
                    util = 0.0
                rows_append((tick, busy_c, util, q_step_index, mhz, q_volts))
                busy = 0.0
                usum += util
                if q_step_index == cur_si:
                    cur_cnt += 1
                else:
                    by_step[cur_si] = by_step.get(cur_si, 0) + cur_cnt
                    cur_si = q_step_index
                    mhz_by_step[cur_si] = mhz
                    cur_cnt = 1
                if next_tick >= stop:  # final tick: just close it
                    next_tick += q
                    continue

                if sleepers and next_wake <= tick + _EPS:
                    due = [
                        p
                        for p in sleepers
                        if p.wake_us is not None and p.wake_us <= tick + _EPS
                    ]
                    if due:
                        if len(due) > 1:
                            due.sort(key=_wake_key)
                        for p in due:
                            p.state = RUNNABLE
                            p.wake_us = None
                            runq_append(p)
                        # in-place so sleepers_append stays valid
                        sleepers[:] = [p for p in sleepers if p.state is SLEEPING]
                    next_wake = inf
                    for p in sleepers:
                        if p.wake_us is not None and p.wake_us < next_wake:
                            next_wake = p.wake_us

                if overhead > 0:
                    oend = now + overhead
                    if oend > now + _EPS:
                        if now < sag_until - _EPS:
                            record_power(ACTIVE, now, oend)
                        else:
                            emit(now, oend, active_w)
                    busy += overhead
                    now = oend

                if gov_live:
                    # Build the frozen TickInfo through __dict__ to skip
                    # eight object.__setattr__ calls per tick; the result
                    # is indistinguishable from normal construction.
                    info = tickinfo_new(TickInfo)
                    info.__dict__.update(
                        now_us=tick,
                        utilization=util,
                        busy_us=busy_c,
                        quantum_us=q,
                        step_index=q_step_index,
                        mhz=mhz,
                        volts=q_volts,
                        max_step_index=max_step_index,
                    )
                    request = governor.on_tick(info)
                    if request is None:
                        # Inert governors answer None forever once they
                        # have settled; stop consulting them.  (The
                        # reference kernel keeps calling -- and keeps
                        # getting None -- so the runs stay identical.)
                        if gov_inert_after_none:
                            gov_live = False
                    elif not request.is_noop:
                        # flush hot state: apply() stalls/emits through the
                        # host interface, then refresh every cache the step
                        # or rail change can invalidate.
                        self._now = now
                        self._busy_us = busy
                        dvfs.apply(request, self)
                        now = self._now
                        busy = self._busy_us
                        step = cpu.step
                        mhz = step.mhz
                        key = (step.index, cpu.volts)
                        cached = state_cache.get(key)
                        if cached is None:
                            cached = (
                                timings.mem_cycles(step),
                                timings.cache_cycles(step),
                                machine.power_w(ACTIVE),
                                machine.power_w(NAP),
                            )
                            state_cache[key] = cached
                        mem_c, cache_c, active_w, nap_w = cached
                        sag_until = dvfs.sag_until_us
                        q_step_index, q_volts = key

                next_tick += q

        self._now = now
        self._busy_us = busy
        if p_on:
            segs_append((p_start, p_end, p_w))
            p_on = False

        if cur_cnt:
            by_step[cur_si] = by_step.get(cur_si, 0) + cur_cnt
        last = rows[-1] if rows else None
        stats = QuantumStats(
            count=len(rows),
            utilization_sum=usum,
            quanta_by_step=by_step,
            mhz_by_step=mhz_by_step if rows else {},
            final_step_index=last[3] if last else 0,
            final_mhz=last[4] if last else 0.0,
        )
        timeline = PowerTimeline()
        timeline._segments = segs
        return self._materialize_run(end_us, rows, stats, timeline)


def _wake_key(p) -> tuple:
    return (p.wake_us, p.pid)
