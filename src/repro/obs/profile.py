"""Phase-level sweep profiling: where does a sweep's wall time go?

The fleet ledger records *that* a sweep took 12 s; this module records
*where* — pool spin-up, worker start, chunk submission, kernel compute,
observer reduction, result IPC, cache I/O, diagnosis — the
attribution discipline the paper applies to joules, applied to the sweep
pipeline itself.  A :class:`PhaseProfile` is a pure observer: it collects
``(phase, t_start, t_end)`` intervals on the shared ``perf_counter``
timebase (the same system-wide clock the telemetry spans ride) from two
sources:

- **engine-side intervals** the :class:`~repro.measure.parallel.SweepEngine`
  stamps around its own pipeline stages (spin-up, submission, cache
  get/put, result IPC), and
- **worker-side stamps** every executed cell returns with its result
  (the engine keeps them only when a profile is attached):
  the kernel-compute interval, the observer-reduction interval
  (stamped by the kernel around its recorders' ``contribute`` calls via
  the process-global sink below), the diagnosis interval, and, once per
  pool worker, the worker's start-up.

Accounting is *exclusive*: an interval nested inside another (observer
reduction runs inside the compute interval) is charged to the inner
phase and subtracted from the outer, so per-phase seconds sum without
double counting.  :meth:`PhaseProfile.coverage` reports the fraction of
sweep wall time the union of intervals explains — the acceptance bar is
>= 95 % on a serial sweep.

This module is deliberately stdlib-only: the kernel calls
:func:`record_kernel_phase` from its run epilogue, so importing it
must never pull the observability stack (and its kernel imports) back
in a cycle.  When no sink is armed the call is one ``None`` check.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

#: Engine-side phases.
PHASE_SPINUP = "pool spin-up"
PHASE_SUBMIT = "chunk submission"
PHASE_IPC = "result IPC"
PHASE_CACHE = "cache I/O"

#: Worker-side phases.  A pool worker's start-up (the simulator import
#: in the pool initializer) rides home with its first cell outcome.
PHASE_WORKER_START = "worker start"
PHASE_COMPUTE = "kernel compute"
PHASE_REDUCE = "observer reduction"
PHASE_DIAGNOSE = "diagnosis"

#: Canonical display order (slowest-changing pipeline stage first).
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

Interval = Tuple[str, float, float]

#: Worker-global stamp sink, armed per executed sweep cell.  None (the
#: default) keeps :func:`record_kernel_phase` a no-op in every
#: non-sweep use of the kernel.
_SINK: Optional[List[Interval]] = None


def arm_worker_stamps() -> None:
    """Start collecting kernel-side phase stamps in this process."""
    global _SINK
    _SINK = []


def drain_worker_stamps() -> Tuple[Interval, ...]:
    """Return and disarm the collected stamps (empty if never armed)."""
    global _SINK
    sink, _SINK = _SINK, None
    return tuple(sink) if sink else ()


def record_kernel_phase(phase: str, t_start: float, t_end: float) -> None:
    """Stamp one kernel-side interval, if a sweep cell armed the sink.

    Called by the execution backends (a kernel stamps its recorders'
    ``contribute`` calls as :data:`PHASE_REDUCE`); one ``None`` check
    outside sweeps.
    """
    sink = _SINK
    if sink is not None:
        sink.append((phase, t_start, t_end))


class PhaseProfile:
    """Attributes sweep wall time to named pipeline phases.

    Intervals arrive in *groups*: one group per executed cell (that
    cell's worker-side stamps) and one group per engine-side interval.
    Nesting is resolved within a group only — two cells running on
    different pool workers overlap in wall time without either nesting
    in the other, so cross-group subtraction would be wrong.

    Thread-safe: the engine's merge loop and any renderer thread may
    touch the profile concurrently.
    """

    def __init__(self) -> None:
        self._groups: List[Tuple[Interval, ...]] = []
        self._lock = threading.Lock()

    # -- recording --------------------------------------------------------------

    def add_interval(self, phase: str, t_start: float, t_end: float) -> None:
        """Record one engine-side interval (its own group)."""
        if t_end > t_start:
            with self._lock:
                self._groups.append(((phase, t_start, t_end),))

    def add_group(self, stamps: Sequence[Interval]) -> None:
        """Record one cell's worker-side stamps as a nesting group."""
        cleaned = tuple(
            (phase, t0, t1) for phase, t0, t1 in stamps if t1 > t0
        )
        if cleaned:
            with self._lock:
                self._groups.append(cleaned)

    # -- accounting -------------------------------------------------------------

    def phase_seconds(self) -> Dict[str, float]:
        """Exclusive seconds per phase (worker-seconds, not wall).

        Within a group, an interval strictly contained in a longer one
        is charged to itself and subtracted from the container; so
        observer reduction inside the compute interval never counts
        twice.
        """
        totals: Dict[str, float] = {}
        with self._lock:
            groups = list(self._groups)
        for group in groups:
            for i, (phase, t0, t1) in enumerate(group):
                length = t1 - t0
                nested = sum(
                    b1 - b0
                    for j, (_, b0, b1) in enumerate(group)
                    if j != i and b0 >= t0 and b1 <= t1 and (b1 - b0) < length
                )
                totals[phase] = totals.get(phase, 0.0) + max(
                    0.0, length - nested
                )
        return totals

    def accounted_s(self) -> float:
        """Wall seconds the union of all intervals covers.

        The union (not the sum): two workers computing simultaneously
        cover the same wall second once.  This is what
        :meth:`coverage` compares against the sweep's wall time.
        """
        with self._lock:
            spans = sorted(
                (t0, t1)
                for group in self._groups
                for _, t0, t1 in group
            )
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
        """Fraction of ``wall_s`` the recorded intervals explain.

        On a serial (``jobs=1``) sweep every pipeline stage runs in the
        engine process, so coverage should be near 1.0; on a pooled
        sweep the union covers the wall time during which *any* stage
        was active.
        """
        if wall_s <= 0:
            return 0.0
        return self.accounted_s() / wall_s

    # -- rendering --------------------------------------------------------------

    def rows(self, wall_s: Optional[float] = None) -> List[Tuple[str, float, float]]:
        """``(phase, seconds, share)`` rows in canonical phase order.

        ``share`` is of the summed per-phase seconds (busy share), or of
        ``wall_s`` when given.  Phases with no recorded time are
        omitted; phases outside :data:`PHASE_ORDER` sort last.
        """
        totals = self.phase_seconds()
        denom = wall_s if wall_s and wall_s > 0 else sum(totals.values())
        order = {phase: i for i, phase in enumerate(PHASE_ORDER)}
        ordered = sorted(
            totals.items(), key=lambda kv: (order.get(kv[0], len(order)), kv[0])
        )
        return [
            (phase, seconds, seconds / denom if denom > 0 else 0.0)
            for phase, seconds in ordered
        ]

    def table(self, wall_s: Optional[float] = None) -> str:
        """The per-phase breakdown as an aligned text table."""
        return format_phase_table(dict(self.phase_seconds()), wall_s=wall_s)


def format_phase_table(
    phase_seconds: Dict[str, float], wall_s: Optional[float] = None
) -> str:
    """Render a ``{phase: seconds}`` mapping as an aligned text table.

    Shared by the live engine profile and the fleet ledger's stored
    phase dicts, so ``repro fleet`` and a post-sweep ``--phases`` print
    the identical layout.
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
