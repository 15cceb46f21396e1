"""Kernel event tracing: the software analogue of the paper's DAQ capture.

The paper's key evidence is time-domain: the DAQ's 5 kHz power samples and
the kernel's scheduler activity log, lined up on one time axis, are what
make AVG_N's oscillation (Fig. 7) and PAST's fast settling visible.
:func:`chrome_trace` reproduces that instrument from a finished
:class:`~repro.kernel.scheduler.KernelRun` — one recorded in full that
kept its scheduler log (``KernelConfig(record_sched_log=True)``) — and
exports it as Chrome trace-event JSON, so any run opens in Perfetto or
``chrome://tracing`` with:

- counter tracks for clock frequency, core voltage, and power;
- one slice track per process showing exactly when it ran;
- a DVFS track with the ~200 us clock-change stalls and rail-sag windows;
- instant markers for every deadline miss.

The exporter only reads the run, so tracing cannot change a run's
numbers.  It emits the subset of the Trace Event Format that Perfetto
renders: metadata (``M``), complete (``X``), counter (``C``) and instant
(``i``) events.  :func:`validate_chrome_trace` structurally checks a
payload against that subset; the CI trace smoke job and the schema tests
both go through it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Tuple, Union

from repro.obs.runlog import output_file
from repro.traces.schema import AppEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.scheduler import KernelRun

#: The synthetic "process" ids the exported trace groups its tracks under.
#: (Trace-event pids are display containers, not simulated pids.)
TRACE_PID_MACHINE = 1
TRACE_PID_PROCESSES = 2

#: Event phases the exporter emits (and the validator accepts).
_PHASES = {"M", "X", "C", "i", "I"}


def chrome_trace(run: "KernelRun", tolerance_us: float = 0.0) -> dict:
    """A kernel run as a Chrome trace-event JSON payload.

    Args:
        run: a finished full-recording run that kept its scheduler log.
        tolerance_us: per-workload perceptibility tolerance; events
            later than their deadline by more than this become
            ``deadline miss`` instants.

    Returns:
        A dict with ``traceEvents`` (ts/dur in microseconds, the
        format's native unit) ready for ``json.dump`` and Perfetto.

    Raises:
        ValueError: if the run has no quantum log (minimal recording) or
            no scheduler log (``KernelConfig.record_sched_log`` unset).
    """
    if not run.quanta:
        raise ValueError("trace export needs a full-recording run")
    decisions = run.sched_log
    if not decisions:
        raise ValueError(
            "trace export needs the scheduler log: run with "
            "KernelConfig(record_sched_log=True)"
        )
    events: List[dict] = [
        _meta(TRACE_PID_MACHINE, None, "process_name", "machine"),
        _meta(TRACE_PID_MACHINE, 1, "thread_name", "frequency (MHz)"),
        _meta(TRACE_PID_MACHINE, 2, "thread_name", "voltage (V)"),
        _meta(TRACE_PID_MACHINE, 3, "thread_name", "power (W)"),
        _meta(TRACE_PID_MACHINE, 4, "thread_name", "dvfs"),
        _meta(TRACE_PID_PROCESSES, None, "process_name", "processes"),
    ]

    # Counter tracks.  One sample per quantum gives Perfetto a stepped
    # line at the same 10 ms granularity the governor observes; the
    # power track follows the merged segment boundaries (the exact
    # signal the DAQ samples).
    for q in run.quanta:
        events.append(_counter("frequency (MHz)", q.start_us, {"mhz": q.mhz}))
        events.append(_counter("voltage (V)", q.start_us, {"volts": q.volts}))
    for start_us, _end_us, watts in run.timeline:
        events.append(_counter("power (W)", start_us, {"watts": watts}))

    # Per-process execution slices from the scheduler activity log:
    # each decision runs until the next one (or the end of the run).
    end_us = run.duration_us
    seen_tids = {}
    for i, d in enumerate(decisions):
        nxt = decisions[i + 1].time_us if i + 1 < len(decisions) else end_us
        dur = max(0.0, nxt - d.time_us)
        if d.pid not in seen_tids:
            seen_tids[d.pid] = True
            label = run.process_names.get(d.pid, d.name)
            events.append(
                _meta(TRACE_PID_PROCESSES, d.pid, "thread_name",
                      f"{label} (pid {d.pid})")
            )
        events.append({
            "name": d.name,
            "ph": "X",
            "ts": d.time_us,
            "dur": dur,
            "pid": TRACE_PID_PROCESSES,
            "tid": d.pid,
            "args": {"mhz": d.mhz},
        })

    # The DVFS track: transition instants plus their cost windows.
    for c in run.freq_changes:
        events.append({
            "name": f"clock {c.from_mhz:.1f}->{c.to_mhz:.1f} MHz",
            "ph": "i", "s": "g",
            "ts": c.time_us,
            "pid": TRACE_PID_MACHINE, "tid": 4,
            "args": {"from_mhz": c.from_mhz, "to_mhz": c.to_mhz,
                     "stall_us": c.stall_us},
        })
    for c in run.volt_changes:
        events.append({
            "name": f"rail {c.from_volts:.2f}->{c.to_volts:.2f} V",
            "ph": "i", "s": "g",
            "ts": c.time_us,
            "pid": TRACE_PID_MACHINE, "tid": 4,
            "args": {"from_volts": c.from_volts, "to_volts": c.to_volts,
                     "settle_us": c.settle_us},
        })
    for start_us, stop_us in run.stall_windows():
        events.append({
            "name": "clock-change stall",
            "ph": "X",
            "ts": start_us,
            "dur": stop_us - start_us,
            "pid": TRACE_PID_MACHINE, "tid": 4,
            "args": {},
        })
    for start_us, stop_us, _from_volts, _to_volts in run.sag_windows():
        events.append({
            "name": "rail sag",
            "ph": "X",
            "ts": start_us,
            "dur": stop_us - start_us,
            "pid": TRACE_PID_MACHINE, "tid": 4,
            "args": {},
        })

    # Deadline misses as global instants, one per offending event.
    for miss in run.deadline_misses(tolerance_us=tolerance_us):
        events.append(_miss_event(miss))

    events.sort(key=_sort_key)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs.trace",
            "quanta": len(run.quanta),
            "power_segments": len(run.timeline),
            "sched_decisions": len(decisions),
            "freq_changes": len(run.freq_changes),
            "volt_changes": len(run.volt_changes),
        },
    }


def _meta(pid: int, tid: Optional[int], name: str, value: str) -> dict:
    event = {"name": name, "ph": "M", "pid": pid, "args": {"name": value}}
    if tid is not None:
        event["tid"] = tid
    return event


def _counter(name: str, ts_us: float, args: dict) -> dict:
    return {"name": name, "ph": "C", "ts": ts_us, "pid": TRACE_PID_MACHINE,
            "args": args}


def _miss_event(miss: AppEvent) -> dict:
    return {
        "name": f"deadline miss: {miss.kind}",
        "ph": "i", "s": "g",
        "ts": miss.time_us,
        "pid": TRACE_PID_PROCESSES, "tid": miss.pid,
        "args": {"lateness_us": miss.lateness_us, "kind": miss.kind},
    }


def _sort_key(event: dict) -> Tuple[int, float]:
    # Metadata first, then chronological; stable for equal timestamps.
    return (0 if event["ph"] == "M" else 1, event.get("ts", 0.0))


def write_chrome_trace(payload: dict, path: Union[str, Path]) -> Path:
    """Validate ``payload`` and write it to ``path`` as JSON.

    Raises:
        ValueError: if the payload fails :func:`validate_chrome_trace`.
    """
    validate_chrome_trace(payload)
    out = output_file(path)
    out.write_text(json.dumps(payload) + "\n")
    return out


def validate_chrome_trace(payload: object) -> None:
    """Structurally validate a Chrome trace-event JSON payload.

    Checks the contract Perfetto / ``chrome://tracing`` rely on for the
    event kinds this exporter emits: a ``traceEvents`` list whose entries
    carry a name, a known phase, a pid, finite non-negative timestamps,
    and non-negative durations on complete events.

    Raises:
        ValueError: describing the first violation found.
    """
    if not isinstance(payload, dict):
        raise ValueError("trace payload must be a JSON object")
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace payload needs a 'traceEvents' list")
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where} is not an object")
        if not isinstance(event.get("name"), str) or not event["name"]:
            raise ValueError(f"{where} needs a non-empty 'name'")
        phase = event.get("ph")
        if phase not in _PHASES:
            raise ValueError(f"{where} has unknown phase {phase!r}")
        if not isinstance(event.get("pid"), int):
            raise ValueError(f"{where} needs an integer 'pid'")
        if phase != "M":
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or ts != ts or ts < 0:
                raise ValueError(f"{where} needs a finite 'ts' >= 0")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur != dur or dur < 0:
                raise ValueError(f"{where} needs a finite 'dur' >= 0")
        if phase == "C":
            args = event.get("args")
            if not isinstance(args, dict) or not args:
                raise ValueError(f"{where} counter needs non-empty 'args'")
            for key, value in args.items():
                if not isinstance(value, (int, float)):
                    raise ValueError(
                        f"{where} counter arg {key!r} is not numeric"
                    )
