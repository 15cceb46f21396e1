"""The live sweep progress display.

:class:`ProgressDisplay` is a :class:`~repro.obs.profile.SweepObserver`
of the sweep engine.  Batch starts grow the total, cache hits count as
done, and the engine's heartbeat channel reports each executed cell
starting and finishing.  A pool worker writes its heartbeats
synchronously to a ``multiprocessing`` pipe before it returns its
cell's outcome, and the engine ends each pooled batch with a ``None``
after the last result, so the pump thread that feeds the display reads
every heartbeat of the batch before it stops.  Heartbeats only drive the
display; results, run-logs and the sweep timeline travel on the pool's
result channel.

:meth:`ProgressDisplay.line` derives the status line from heartbeat
timestamps alone: cells done/total, cells/s, ETA, cache-hit rate,
worker utilization, and the worst straggler, an in-flight cell running
past :data:`STRAGGLER_FACTOR` times the median completed cell.  Tests
drive it with hand-built heartbeats and a fake clock, so no test sleeps.
The line is drawn only when the display's stream is a TTY, so piping a
``--progress`` sweep leaves just the engine's one-line summary.

The display is a pure observer: sweep results are bitwise-identical
with it on or off (``benchmarks/bench_telemetry_overhead.py`` holds its
cost to the same bar the recorder benchmarks use).
"""

from __future__ import annotations

import statistics
import sys
import time
from typing import IO, Callable, Dict, List, Optional, Tuple

from repro.obs.profile import SweepObserver

#: An in-flight cell is flagged a straggler once its elapsed wall time
#: exceeds this many times the running median of completed cell walls.
STRAGGLER_FACTOR = 4.0

#: Completed-cell samples needed before the running median is trusted
#: enough to flag stragglers (early cells are all "slow" relative to an
#: empty distribution).
STRAGGLER_MIN_SAMPLES = 3

#: Least seconds between two redraws; a batch's last line always draws.
REDRAW_INTERVAL_S = 0.1


class ProgressDisplay(SweepObserver):
    """The live ``--progress`` line, drawn on ``stream`` when it is a TTY.

    Args:
        stream: where the line is drawn (default: ``sys.stderr`` when
            the display is built).
        clock: stamps cache hits, which carry no heartbeat time, and
            reads the instant of each redraw, at most one every
            :data:`REDRAW_INTERVAL_S`.

    ``total``, ``done`` and ``cached`` count cells; ``in_flight`` is the
    number of cells started and not finished.  The engine calls its
    observers from one thread at a time, so the display keeps no
    locking.
    """

    def __init__(
        self,
        stream: Optional[IO[str]] = None,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.stream = sys.stderr if stream is None else stream
        self.clock = clock
        self.total = 0
        self.done = 0
        self.cached = 0
        self._first_t: Optional[float] = None
        # (pid, cell id) -> (start time, label), in start order.
        self._started: Dict[Tuple[int, int], Tuple[float, str]] = {}
        self._walls: List[float] = []
        self._busy_s: Dict[int, float] = {}
        self._tty = self.stream.isatty()
        self._drawn_at: Optional[float] = None
        self._width = 0

    @property
    def in_flight(self) -> int:
        return len(self._started)

    def on_batch_start(self, cells: int) -> None:
        self.total += cells

    def on_heartbeat(
        self, done: bool, pid: int, cell_id: int, t: float, label: str
    ) -> None:
        if self._first_t is None:
            self._first_t = t
        busy = self._busy_s.setdefault(pid, 0.0)
        if not done:
            self._started[(pid, cell_id)] = (t, label)
        else:
            started = self._started.pop((pid, cell_id), None)
            if started is not None:
                wall = max(0.0, t - started[0])
                self._walls.append(wall)
                self._busy_s[pid] = busy + wall
            self.done += 1
        self._draw()

    def on_cache_hit(self, cell, key, result) -> None:
        if self._first_t is None:
            self._first_t = self.clock()
        self.done += 1
        self.cached += 1
        self._draw()

    def on_batch_end(self) -> None:
        if self._tty:
            self._draw(force=True)
            self.stream.write("\r" + " " * self._width + "\r")
            self.stream.flush()
            self._width = 0

    def line(self, now: float) -> str:
        """The status line at ``now``, e.g. ``sweep 12/40 (30%) | 19.3
        cells/s | eta 3s | cache 25% | workers 87% | straggler best/mpeg
        8.1s``."""
        elapsed = 0.0 if self._first_t is None else max(0.0, now - self._first_t)
        rate = self.done / elapsed if elapsed > 0 else 0.0
        remaining = self.total - self.done
        if remaining <= 0:
            eta = "0s"
        elif rate > 0:
            eta = _fmt_duration(remaining / rate)
        else:
            eta = "?"
        fraction = self.done / self.total if self.total else 1.0
        hits = self.cached / self.done if self.done else 0.0
        utilization = 0.0
        if self._busy_s and elapsed > 0:
            busy = sum(self._busy_s.values())
            for t_start, _ in self._started.values():
                busy += max(0.0, now - t_start)
            utilization = busy / (len(self._busy_s) * elapsed)
        parts = [
            f"sweep {self.done}/{self.total} ({fraction * 100:.0f}%)",
            f"{rate:.1f} cells/s",
            f"eta {eta}",
            f"cache {hits * 100:.0f}%",
            f"workers {utilization * 100:.0f}%",
        ]
        straggler = self._worst_straggler(now)
        if straggler is not None:
            parts.append(f"straggler {straggler[1]} {straggler[0]:.1f}s")
        return " | ".join(parts)

    def _worst_straggler(self, now: float) -> Optional[Tuple[float, str]]:
        """``(elapsed, label)`` of the longest-running cell past the bar
        (the earliest started among equals), or None."""
        if len(self._walls) < STRAGGLER_MIN_SAMPLES:
            return None
        median = statistics.median(self._walls)
        if median <= 0:
            return None
        worst = None
        for (_, cell_id), (t_start, label) in self._started.items():
            elapsed = now - t_start
            if elapsed > STRAGGLER_FACTOR * median and (
                worst is None or elapsed > worst[0]
            ):
                worst = (elapsed, label or f"cell {cell_id}")
        return worst

    def _draw(self, force: bool = False) -> None:
        if not self._tty:
            return
        now = self.clock()
        if (
            not force
            and self._drawn_at is not None
            and now - self._drawn_at < REDRAW_INTERVAL_S
        ):
            return
        self._drawn_at = now
        line = self.line(now)
        self.stream.write("\r" + line + " " * max(0, self._width - len(line)))
        self.stream.flush()
        self._width = len(line)


def _fmt_duration(seconds: float) -> str:
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.0f}s"
