"""The sweep timeline and the sweep-observer protocol.

The fleet ledger records *that* a sweep took 12 s; the timeline records
*where* — pool spin-up, worker start, chunk submission, kernel compute,
observer reduction, result IPC, cache I/O, diagnosis — the attribution
discipline the paper applies to joules, applied to the sweep pipeline
itself.  The :class:`~repro.measure.parallel.SweepEngine` stamps each
stage once into a :class:`SweepTimeline`, as ``(name, t_start, t_end)``
on the system-wide ``perf_counter`` timebase, from two sources:

- **engine-side stages** the engine stamps around its own work
  (spin-up, submission, cache get/put, result IPC, and the trace-only
  ``baseline dedup`` and ``merge results``), and
- **worker-side stamps** every executed cell returns with its result:
  the kernel-compute interval, the diagnosis interval, the
  observer-reduction interval (the cell's result reduction,
  :meth:`~repro.measure.parallel.CellResult.from_experiment`), and,
  once per pool worker, the worker's start-up (the engine stamps its own
  simulator import as worker start too, once: before its first
  in-process cell, or before a ``fork`` pool whose workers inherit it).

The timeline has two readings of the same spans:

- the per-phase reduction (:meth:`SweepTimeline.phase_seconds`) that
  ``--phases`` prints and every fleet record stores: the summed lengths
  of the spans of each stage :data:`PHASE_ORDER` names.  No phase span
  nests inside another on its lane — the engine stamps its stages one
  after another and a cell's stamps follow each other — so the sums
  count no second twice.  :meth:`SweepTimeline.coverage` reports the
  fraction of sweep wall time the phase intervals explain — the
  acceptance bar is >= 95 % on a serial sweep and on a cold pooled one
  under every start method;
- the Chrome trace (:meth:`SweepTimeline.chrome_trace`) that
  ``--sweep-trace`` writes: an engine lane, one lane per pool worker
  with each cell's span around its stamps, cache-hit instants, and the
  trace-only spans.

The engine's per-cell observers — the run-log, the diagnosis log and
the live progress display — implement :class:`SweepObserver`.
"""

from __future__ import annotations

import contextlib
import os
from time import perf_counter
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.measure.parallel import CellOutcome, CellResult, SweepCell

#: Engine-side phases.
PHASE_SPINUP = "pool spin-up"
PHASE_SUBMIT = "chunk submission"
PHASE_IPC = "result IPC"
PHASE_CACHE = "cache I/O"

#: Worker-side phases.  A pool worker's start-up — from the engine's
#: ``perf_counter()`` at pool creation to the end of the simulator import
#: in the pool initializer, so interpreter start and unpickling count
#: under ``forkserver`` and ``spawn`` — rides home with its first cell
#: outcome.  The engine stamps its own import of the simulator as worker
#: start too, at most once: before its first in-process cell, or just
#: before a ``fork`` pool starts, whose workers inherit that import.
PHASE_WORKER_START = "worker start"
PHASE_COMPUTE = "kernel compute"
#: The cell's result reduction (``CellResult.from_experiment``); the name
#: stays so fleet records keep comparing by phase.
PHASE_REDUCE = "observer reduction"
PHASE_DIAGNOSE = "diagnosis"

#: The phases, in canonical display order (slowest-changing pipeline
#: stage first).  Any other span is trace-only.
PHASE_ORDER = (
    PHASE_SPINUP,
    PHASE_WORKER_START,
    PHASE_SUBMIT,
    PHASE_COMPUTE,
    PHASE_REDUCE,
    PHASE_DIAGNOSE,
    PHASE_IPC,
    PHASE_CACHE,
)

#: The synthetic trace-event process id the sweep's lanes group under.
TRACE_PID_SWEEP = 1

#: Lane of the engine (parent-process) track.
LANE_ENGINE = 0

Interval = Tuple[str, float, float]


class Span(NamedTuple):
    """One stamped interval on a timeline lane (a Chrome ``X`` event)."""

    name: str
    t_start: float
    t_end: float
    lane: int = LANE_ENGINE
    args: Tuple[Tuple[str, object], ...] = ()


class SweepTimeline:
    """Every stage of a sweep, stamped once, as one flat span list.

    The engine adds one span per engine-side stage and, per executed
    cell, that cell's worker-side stamps under a trace-only span named
    after the cell.  Only the engine's own thread records into a
    timeline.
    """

    def __init__(self) -> None:
        self._spans: List[Span] = []
        self._instants: List[Tuple[str, float, Tuple[Tuple[str, object], ...]]] = []
        self._lanes: Dict[int, str] = {LANE_ENGINE: "engine"}
        self._pid = os.getpid()

    # -- recording --------------------------------------------------------------

    @contextlib.contextmanager
    def stage(self, name: str, **args: object) -> Iterator[None]:
        """Stamp the enclosed engine-side work as one span."""
        t_start = perf_counter()
        try:
            yield
        finally:
            self.add_stage(name, t_start, perf_counter(), **args)

    def add_stage(
        self, name: str, t_start: float, t_end: float, **args: object
    ) -> None:
        """Record one engine-side span."""
        self._spans.append(
            Span(name, t_start, t_end, LANE_ENGINE, tuple(sorted(args.items())))
        )

    def add_cell(
        self,
        label: str,
        stamps: Sequence[Interval],
        pid: int,
        ordinal: int,
        **args: object,
    ) -> None:
        """Record one executed cell's worker-side stamps.

        A cell the engine ran in-process goes on the engine lane; a pool
        worker's goes on lane ``ordinal + 1``, named after the worker's
        run-log ordinal and pid.  The trace-only span ``label`` runs from
        the cell's kernel compute to its last stamp (a worker's start-up
        precedes it).
        """
        if pid == self._pid:
            lane = LANE_ENGINE
        else:
            lane = ordinal + 1
            self._lanes[lane] = f"worker {ordinal} (pid {pid})"
        spans = [Span(name, t0, t1, lane) for name, t0, t1 in stamps]
        cell = [s for s in spans if s.name != PHASE_WORKER_START]
        spans.append(Span(
            label, cell[0].t_start, cell[-1].t_end, lane,
            tuple(sorted(args.items())),
        ))
        self._spans += spans

    def add_instant(self, name: str, **args: object) -> None:
        """Record a point event on the engine lane, now."""
        self._instants.append((name, perf_counter(), tuple(sorted(args.items()))))

    # -- the phase reduction ----------------------------------------------------

    def _phase_spans(self) -> List[Span]:
        return [
            s for s in self._spans if s.name in PHASE_ORDER and s.t_end > s.t_start
        ]

    def phase_seconds(self) -> Dict[str, float]:
        """Summed span seconds per phase (worker-seconds, not wall)."""
        totals: Dict[str, float] = {}
        for phase, t0, t1, _, _ in self._phase_spans():
            totals[phase] = totals.get(phase, 0.0) + (t1 - t0)
        return totals

    def accounted_s(self) -> float:
        """Wall seconds the union of all phase intervals covers.

        The union (not the sum): two workers computing simultaneously
        cover the same wall second once.  This is what
        :meth:`coverage` compares against the sweep's wall time.
        """
        spans = sorted((s.t_start, s.t_end) for s in self._phase_spans())
        total = 0.0
        cur_start: Optional[float] = None
        cur_end = 0.0
        for t0, t1 in spans:
            if cur_start is None or t0 > cur_end:
                if cur_start is not None:
                    total += cur_end - cur_start
                cur_start, cur_end = t0, t1
            else:
                cur_end = max(cur_end, t1)
        if cur_start is not None:
            total += cur_end - cur_start
        return total

    def coverage(self, wall_s: float) -> float:
        """Fraction of ``wall_s`` the recorded phase intervals explain.

        On a serial (``jobs=1``) sweep every pipeline stage runs in the
        engine process, so coverage should be near 1.0; on a pooled
        sweep the union covers the wall time during which *any* stage
        was active.
        """
        if wall_s <= 0:
            return 0.0
        return self.accounted_s() / wall_s

    def table(self, wall_s: Optional[float] = None) -> str:
        """The per-phase breakdown as an aligned text table."""
        return format_phase_table(self.phase_seconds(), wall_s=wall_s)

    # -- the Chrome trace -------------------------------------------------------

    def chrome_trace(self) -> dict:
        """Every span and instant as a Chrome trace-event JSON payload.

        One synthetic process with the engine lane and one thread per
        pool worker; timestamps count from the earliest event.
        Structurally valid under
        :func:`repro.obs.trace.validate_chrome_trace`.
        """
        spans = self._spans
        t0 = min(
            [s.t_start for s in spans] + [t for _, t, _ in self._instants],
            default=0.0,
        )
        events: List[dict] = [_meta(None, "process_name", "sweep engine")]
        events += [
            _meta(lane, "thread_name", name)
            for lane, name in sorted(self._lanes.items())
        ]
        events += [
            {
                "name": s.name,
                "ph": "X",
                "ts": (s.t_start - t0) * 1e6,
                "dur": max(0.0, (s.t_end - s.t_start) * 1e6),
                "pid": TRACE_PID_SWEEP,
                "tid": s.lane,
                "args": dict(s.args),
            }
            for s in spans
        ]
        events += [
            {
                "name": name,
                "ph": "i", "s": "t",
                "ts": (t - t0) * 1e6,
                "pid": TRACE_PID_SWEEP,
                "tid": LANE_ENGINE,
                "args": dict(args),
            }
            for name, t, args in self._instants
        ]
        events.sort(key=lambda e: (0 if e["ph"] == "M" else 1, e.get("ts", 0.0)))
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "generator": "repro.obs.profile",
                "spans": len(spans),
                "instants": len(self._instants),
                "workers": len(self._lanes) - 1,
            },
        }


def _meta(tid: Optional[int], name: str, value: str) -> dict:
    event = {"name": name, "ph": "M", "pid": TRACE_PID_SWEEP,
             "args": {"name": value}}
    if tid is not None:
        event["tid"] = tid
    return event


def format_phase_table(
    phase_seconds: Dict[str, float], wall_s: Optional[float] = None
) -> str:
    """Render a ``{phase: seconds}`` mapping as an aligned text table.

    Shared by the live engine timeline and the fleet ledger's stored
    phase dicts, so ``repro fleet`` and a post-sweep ``--phases`` print
    the identical layout.  Phases outside :data:`PHASE_ORDER` (from
    older ledgers) sort last.
    """
    order = {phase: i for i, phase in enumerate(PHASE_ORDER)}
    items = sorted(
        phase_seconds.items(),
        key=lambda kv: (order.get(kv[0], len(order)), kv[0]),
    )
    denom = wall_s if wall_s and wall_s > 0 else sum(s for _, s in items)
    width = max([len("phase")] + [len(p) for p, _ in items])
    share_head = "of wall" if wall_s else "share"
    lines = [f"{'phase':<{width}}  {'busy s':>8}  {share_head:>7}"]
    for phase, seconds in items:
        share = seconds / denom if denom > 0 else 0.0
        lines.append(f"{phase:<{width}}  {seconds:8.3f}  {share:6.1%}")
    total = sum(s for _, s in items)
    lines.append(f"{'total accounted':<{width}}  {total:8.3f}  "
                 f"{(total / denom if denom > 0 else 0.0):6.1%}")
    return "\n".join(lines)


class SweepObserver:
    """What a :class:`~repro.measure.parallel.SweepEngine` tells the
    observers it was given.

    Every hook is a no-op here, so an observer overrides only what it
    watches.  Observers watch, never steer: the engine computes the same
    results with or without them.  A *batch* is one ``SweepEngine.run``
    call; a diagnosing engine's oracle-baseline batches nest inside its
    top-level batch.  The engine calls its observers from one thread at
    a time.
    """

    #: Set by an observer that shows cells in flight: the engine then
    #: opens its heartbeat channel and calls
    #: ``on_heartbeat(done, pid, cell_id, t, label)`` as each cell starts
    #: (``done`` False) and finishes, in-process or in a pool worker.
    #: Within a pooled batch, every heartbeat arrives before the batch's
    #: outcomes reach the other hooks.
    on_heartbeat: Optional[Callable[[bool, int, int, float, str], None]] = None

    def on_batch_start(self, cells: int) -> None:
        """A batch of ``cells`` unique cells begins (nested ones too)."""

    def on_cache_hit(self, cell: SweepCell, key: str, result: CellResult) -> None:
        """``cell`` (cache key ``key``) was answered from the cache."""

    def on_cell_done(
        self, cell: SweepCell, key: str, outcome: CellOutcome, ordinal: int
    ) -> None:
        """``cell`` was executed; ``ordinal`` is the zero-based ordinal
        of the process that ran it, the engine's own process included."""

    def on_batch_end(self) -> None:
        """The top-level batch is served (or failed)."""

    def close(self) -> None:
        """Release what the observer holds; the engine's ``close`` calls
        it once the sweep is over."""
