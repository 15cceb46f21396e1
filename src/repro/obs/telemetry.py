"""The live sweep progress display.

Three pieces, from pure state to terminal:

- :class:`ProgressModel` — the deterministic state machine behind the
  display.  It consumes heartbeat-shaped events (cell-started /
  cell-finished / cache-hit) plus explicit timestamps and derives
  everything the renderer shows: cells done/total, cells/s, ETA,
  cache-hit rate, per-worker utilization, and straggler flags for
  in-flight cells that exceed :data:`STRAGGLER_FACTOR` x the running
  median cell wall time.  No wall-clock reads of its own, so tests drive
  it with synthetic streams and a fake clock — no sleeps.

- :class:`ProgressRenderer` — a throttled single-line TTY renderer over
  a :class:`ProgressModel`.  It only draws when its stream is a TTY (or
  when explicitly forced), so piping a ``--progress`` sweep degrades to
  the engine's usual one-line stderr summary.

- :class:`ProgressDisplay` — the two as a
  :class:`~repro.obs.profile.SweepObserver` of the sweep engine.  Batch
  starts grow the total, cache hits count as done, and the engine's
  heartbeat channel reports each executed cell starting and finishing.
  A pool worker writes its heartbeats synchronously to a
  ``multiprocessing.SimpleQueue`` before it returns its chunk, and the
  engine ends each pooled batch with a ``None`` after the last result,
  so the pump thread that feeds the display reads every heartbeat of
  the batch before it stops.  Heartbeats only drive the display;
  results, run-logs and the sweep timeline travel on the pool's result
  channel.

Everything here is a pure observer: sweep results are bitwise-identical
with the display on or off (``benchmarks/bench_telemetry_overhead.py``
holds the overhead to the same bar the recorder benchmarks use).
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, IO, List, Optional, Tuple

from repro.obs.profile import SweepObserver

#: An in-flight cell is flagged a straggler once its elapsed wall time
#: exceeds this many times the running median of completed cell walls.
STRAGGLER_FACTOR = 4.0

#: Completed-cell samples needed before the running median is trusted
#: enough to flag stragglers (early cells are all "slow" relative to an
#: empty distribution).
STRAGGLER_MIN_SAMPLES = 3


@dataclass(frozen=True)
class Straggler:
    """An in-flight cell running long relative to its peers."""

    worker_pid: int
    cell_id: int
    label: str
    elapsed_s: float
    median_s: float


@dataclass(frozen=True)
class ProgressSnapshot:
    """Everything the renderer (or a test) reads, derived at one instant."""

    done: int
    total: int
    executed: int
    cached: int
    in_flight: int
    elapsed_s: float
    cells_per_s: float
    eta_s: Optional[float]
    cache_hit_rate: float
    worker_utilization: float
    median_cell_s: Optional[float]
    stragglers: Tuple[Straggler, ...] = ()

    @property
    def fraction(self) -> float:
        """Completed fraction in [0, 1] (1.0 for the 0-cell sweep)."""
        return self.done / self.total if self.total else 1.0


@dataclass
class _WorkerState:
    busy_s: float = 0.0
    cells: int = 0


class ProgressModel:
    """The deterministic core of the live progress display.

    Consumes heartbeat-shaped events with explicit timestamps (the
    engine feeds it wall-clock readings; tests feed it a fake clock's)
    and derives the display quantities on demand.  The engine calls its
    observers from one thread at a time, so the model keeps no locking.

    Args:
        total: unique cells the sweep will serve (grows via
            :meth:`add_total` as nested baseline batches are
            discovered).
        straggler_factor: multiple of the running median wall time at
            which an in-flight cell is flagged.
        min_samples: completed cells required before stragglers are
            flagged at all.
    """

    def __init__(
        self,
        total: int = 0,
        straggler_factor: float = STRAGGLER_FACTOR,
        min_samples: int = STRAGGLER_MIN_SAMPLES,
    ):
        if total < 0:
            raise ValueError("total must be non-negative")
        self.total = total
        self.done = 0
        self.executed = 0
        self.cached = 0
        self.straggler_factor = straggler_factor
        self.min_samples = min_samples
        self._start_t: Optional[float] = None
        self._in_flight: Dict[Tuple[int, int], Tuple[float, str]] = {}
        self._walls: List[float] = []
        self._workers: Dict[int, _WorkerState] = {}

    # -- event intake -----------------------------------------------------------

    def start(self, t: float) -> None:
        """Anchor elapsed-time accounting (idempotent; first event wins)."""
        if self._start_t is None:
            self._start_t = t

    def add_total(self, count: int) -> None:
        """Grow the expected cell count (nested baseline batches)."""
        self.total += count

    def cell_started(
        self, pid: int, cell_id: int, t: float, label: str = ""
    ) -> None:
        """A worker began executing a cell."""
        self.start(t)
        self._in_flight[(pid, cell_id)] = (t, label)
        self._workers.setdefault(pid, _WorkerState())

    def cell_finished(
        self, pid: int, cell_id: int, t: float, cached: bool = False
    ) -> None:
        """A worker finished a cell (start event optional but expected)."""
        self.start(t)
        started = self._in_flight.pop((pid, cell_id), None)
        worker = self._workers.setdefault(pid, _WorkerState())
        if started is not None:
            wall = max(0.0, t - started[0])
            self._walls.append(wall)
            worker.busy_s += wall
        worker.cells += 1
        self.done += 1
        if cached:
            self.cached += 1
        else:
            self.executed += 1

    def cache_hit(self, cell_id: int, t: float) -> None:
        """The parent served a cell from the result cache."""
        self.start(t)
        self.done += 1
        self.cached += 1

    # -- derived quantities -----------------------------------------------------

    def elapsed_s(self, now: float) -> float:
        """Seconds since the first event (0.0 before any)."""
        return max(0.0, now - self._start_t) if self._start_t is not None else 0.0

    def cells_per_s(self, now: float) -> float:
        """Completed cells per elapsed second."""
        elapsed = self.elapsed_s(now)
        return self.done / elapsed if elapsed > 0 else 0.0

    def eta_s(self, now: float) -> Optional[float]:
        """Seconds until done at the current rate (None before a rate
        exists, 0.0 once every cell is served)."""
        remaining = self.total - self.done
        if remaining <= 0:
            return 0.0
        rate = self.cells_per_s(now)
        return remaining / rate if rate > 0 else None

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of completed cells answered from the cache."""
        return self.cached / self.done if self.done else 0.0

    def worker_utilization(self, now: float) -> float:
        """Mean fraction of elapsed time the workers spent in cells.

        In-flight cells count as busy up to ``now``; 0.0 before any
        worker has appeared.
        """
        elapsed = self.elapsed_s(now)
        if not self._workers or elapsed <= 0:
            return 0.0
        busy = sum(w.busy_s for w in self._workers.values())
        for (pid, _cell), (t_start, _label) in self._in_flight.items():
            busy += max(0.0, now - t_start)
        return busy / (len(self._workers) * elapsed)

    def median_cell_s(self) -> Optional[float]:
        """Running median of completed cell wall times (None when empty)."""
        if not self._walls:
            return None
        ordered = sorted(self._walls)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2.0

    def stragglers(self, now: float) -> Tuple[Straggler, ...]:
        """In-flight cells whose elapsed time exceeds ``factor`` x the
        running median (empty until enough cells completed), worst
        first."""
        if len(self._walls) < self.min_samples:
            return ()
        median = self.median_cell_s()
        if median is None or median <= 0:
            return ()
        bar = self.straggler_factor * median
        out = []
        for (pid, cell_id), (t_start, label) in self._in_flight.items():
            elapsed = now - t_start
            if elapsed > bar:
                out.append(Straggler(
                    worker_pid=pid, cell_id=cell_id, label=label,
                    elapsed_s=elapsed, median_s=median,
                ))
        out.sort(key=lambda s: -s.elapsed_s)
        return tuple(out)

    def snapshot(self, now: float) -> ProgressSnapshot:
        """All derived quantities at ``now``, frozen."""
        return ProgressSnapshot(
            done=self.done,
            total=self.total,
            executed=self.executed,
            cached=self.cached,
            in_flight=len(self._in_flight),
            elapsed_s=self.elapsed_s(now),
            cells_per_s=self.cells_per_s(now),
            eta_s=self.eta_s(now),
            cache_hit_rate=self.cache_hit_rate,
            worker_utilization=self.worker_utilization(now),
            median_cell_s=self.median_cell_s(),
            stragglers=self.stragglers(now),
        )


def format_progress_line(snap: ProgressSnapshot) -> str:
    """The one-line rendering of a progress snapshot.

    Pure (no clock reads), so display formatting is testable without a
    terminal: ``sweep 12/40 (30%) | 19.3 cells/s | eta 3s | cache 25% |
    workers 87% | straggler best/mpeg 8.1s``.
    """
    pct = f"{snap.fraction * 100:.0f}%"
    parts = [f"sweep {snap.done}/{snap.total} ({pct})"]
    parts.append(f"{snap.cells_per_s:.1f} cells/s")
    if snap.eta_s is None:
        parts.append("eta ?")
    else:
        parts.append(f"eta {_fmt_duration(snap.eta_s)}")
    parts.append(f"cache {snap.cache_hit_rate * 100:.0f}%")
    parts.append(f"workers {snap.worker_utilization * 100:.0f}%")
    if snap.stragglers:
        worst = snap.stragglers[0]
        label = worst.label or f"cell {worst.cell_id}"
        parts.append(f"straggler {label} {worst.elapsed_s:.1f}s")
    return " | ".join(parts)


def _fmt_duration(seconds: float) -> str:
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.0f}s"


class ProgressRenderer:
    """Throttled single-line TTY renderer over a :class:`ProgressModel`.

    Draws a carriage-return-refreshed status line on ``stream`` at most
    every ``min_interval_s`` (forced on :meth:`finish`).  Rendering is
    enabled only when the stream reports itself a TTY, unless ``enabled``
    overrides the check — a piped ``--progress`` sweep therefore writes
    nothing here and falls back to the engine's one-line summary.

    The clock is injectable for tests; only *display throttling* uses
    it (the model's numbers always come from event timestamps).
    """

    def __init__(
        self,
        model: ProgressModel,
        stream: IO[str],
        min_interval_s: float = 0.1,
        clock: Callable[[], float] = time.perf_counter,
        enabled: Optional[bool] = None,
    ):
        self.model = model
        self.stream = stream
        self.min_interval_s = min_interval_s
        self._clock = clock
        if enabled is None:
            isatty = getattr(stream, "isatty", None)
            enabled = bool(isatty()) if callable(isatty) else False
        self.enabled = enabled
        self._last_draw: Optional[float] = None
        self._last_width = 0

    def update(self, force: bool = False) -> None:
        """Redraw the line if enabled and the throttle interval passed."""
        if not self.enabled:
            return
        now = self._clock()
        if (
            not force
            and self._last_draw is not None
            and now - self._last_draw < self.min_interval_s
        ):
            return
        self._last_draw = now
        line = format_progress_line(self.model.snapshot(now))
        pad = " " * max(0, self._last_width - len(line))
        self.stream.write("\r" + line + pad)
        self.stream.flush()
        self._last_width = len(line)

    def finish(self) -> None:
        """Draw the final state, then clear the line (so the engine's
        summary prints on a clean row)."""
        if not self.enabled:
            return
        self.update(force=True)
        self.stream.write("\r" + " " * self._last_width + "\r")
        self.stream.flush()
        self._last_width = 0


class ProgressDisplay(SweepObserver):
    """The live ``--progress`` line on stderr, as a sweep observer."""

    def __init__(self) -> None:
        self.model = ProgressModel()
        self.renderer = ProgressRenderer(self.model, sys.stderr)

    def on_batch_start(self, cells: int) -> None:
        self.model.add_total(cells)

    def on_heartbeat(
        self, done: bool, pid: int, cell_id: int, t: float, label: str
    ) -> None:
        if done:
            self.model.cell_finished(pid, cell_id, t)
        else:
            self.model.cell_started(pid, cell_id, t, label)
        self.renderer.update()

    def on_cache_hit(self, cell, key, result) -> None:
        self.model.cache_hit(-1, time.perf_counter())
        self.renderer.update()

    def on_batch_end(self) -> None:
        self.renderer.finish()
