"""A process-local metrics registry: counters, gauges, histograms.

The paper's measurement rig is external (a 5 kHz DAQ on the power rail);
a software reproduction can afford *internal* counters too.  This module
is the smallest registry that covers the repository's needs:

- :class:`Counter` — monotonically increasing totals (quanta simulated,
  clock transitions, cache hits);
- :class:`Gauge` — last-written values (worker count, final MHz);
- :class:`Histogram` — streaming count/sum/min/max over observations
  (per-cell wall time, per-quantum utilization);
- :class:`MetricsRegistry` — a name-addressed collection of the above
  with :meth:`~MetricsRegistry.snapshot` / :meth:`~MetricsRegistry.merge`
  so worker-process registries fold back into the parent's across a
  :class:`~concurrent.futures.ProcessPoolExecutor` boundary.

Snapshots are plain frozen dataclasses of dicts and floats: they pickle
cleanly (for pool transport) and serialize to JSON (for run-logs).
Nothing here touches simulation state — attaching or merging metrics can
never change a result, and a kernel run only pays for metrics when a
:class:`KernelMetricsRecorder` is explicitly attached (it reduces the
run's row buffers once, at run end).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

from repro.kernel.recorders import RunRecorder, RunStreams

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.scheduler import KernelRun


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the total.

        Raises:
            ValueError: for negative increments.
        """
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A last-written value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge."""
        self.value = float(value)


@dataclass(frozen=True)
class HistogramSnapshot:
    """Picklable summary of a :class:`Histogram`."""

    count: int = 0
    sum: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")

    @property
    def mean(self) -> float:
        """Average observation (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def merged(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        """The summary of both sets of observations combined."""
        return HistogramSnapshot(
            count=self.count + other.count,
            sum=self.sum + other.sum,
            min=min(self.min, other.min),
            max=max(self.max, other.max),
        )


class Histogram:
    """Streaming count/sum/min/max over observed values."""

    __slots__ = ("count", "sum", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def snapshot(self) -> HistogramSnapshot:
        """The current summary as a frozen value."""
        return HistogramSnapshot(
            count=self.count, sum=self.sum, min=self.min, max=self.max
        )


@dataclass(frozen=True)
class MetricsSnapshot:
    """A frozen, picklable image of a registry at one point in time.

    The unit that crosses process boundaries: workers snapshot their local
    registry and the parent merges the snapshots back in.
    """

    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, HistogramSnapshot] = field(default_factory=dict)

    def to_json(self) -> dict:
        """A JSON-safe dict (histograms expand to their fields)."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: {
                    "count": h.count,
                    "sum": h.sum,
                    "min": h.min if h.count else None,
                    "max": h.max if h.count else None,
                    "mean": h.mean,
                }
                for name, h in self.histograms.items()
            },
        }


class MetricsRegistry:
    """Name-addressed counters/gauges/histograms for one process.

    Instruments get-or-create on first use, so call sites never need a
    registration step::

        registry.counter("kernel.quanta").inc()
        registry.histogram("sweep.cell_wall_s").observe(wall)
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created on first use."""
        try:
            return self._counters[name]
        except KeyError:
            inst = self._counters[name] = Counter()
            return inst

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name``, created on first use."""
        try:
            return self._gauges[name]
        except KeyError:
            inst = self._gauges[name] = Gauge()
            return inst

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name``, created on first use."""
        try:
            return self._histograms[name]
        except KeyError:
            inst = self._histograms[name] = Histogram()
            return inst

    def snapshot(self) -> MetricsSnapshot:
        """A frozen image of every instrument's current value."""
        return MetricsSnapshot(
            counters={n: c.value for n, c in self._counters.items()},
            gauges={n: g.value for n, g in self._gauges.items()},
            histograms={n: h.snapshot() for n, h in self._histograms.items()},
        )

    def merge(self, snap: MetricsSnapshot) -> None:
        """Fold a (worker's) snapshot into this registry.

        Counters and histograms accumulate; gauges take the snapshot's
        value (last writer wins), matching their point-in-time semantics.
        """
        for name, value in snap.counters.items():
            self.counter(name).inc(value)
        for name, value in snap.gauges.items():
            self.gauge(name).set(value)
        for name, hist in snap.histograms.items():
            local = self.histogram(name)
            local.count += hist.count
            local.sum += hist.sum
            if hist.min < local.min:
                local.min = hist.min
            if hist.max > local.max:
                local.max = hist.max


def merge_snapshots(*snaps: Optional[MetricsSnapshot]) -> MetricsSnapshot:
    """Combine several snapshots (None entries are skipped)."""
    registry = MetricsRegistry()
    for snap in snaps:
        if snap is not None:
            registry.merge(snap)
    return registry.snapshot()


class KernelMetricsRecorder(RunRecorder):
    """Kernel counters as a pluggable kernel recorder.

    Counts the quantities the paper's instrumented kernel kept per run:
    quanta simulated, busy and idle microseconds, clock and voltage
    transitions with their stall/sag costs, and raw deadline misses.
    Attached like any other recorder, so runs without it pay nothing,
    and runs with it are bitwise-identical to runs without — recorders
    only observe.

    Metric names are prefixed ``kernel.`` by default; pass ``prefix`` to
    distinguish several instrumented kernels sharing one registry.

    :meth:`contribute` reduces the run's streams once, walking each in
    arrival order, so the totals are bitwise equal to per-event
    instrument updates.  The instruments themselves are created eagerly
    at construction, so a snapshot taken before (or without) a run still
    shows every metric name at zero.
    """

    def __init__(self, registry: MetricsRegistry, prefix: str = "kernel"):
        self.registry = registry
        p = f"{prefix}." if prefix else ""
        self._quanta = registry.counter(f"{p}quanta")
        self._busy_us = registry.counter(f"{p}busy_us")
        self._idle_us = registry.counter(f"{p}idle_us")
        self._utilization = registry.histogram(f"{p}quantum_utilization")
        self._freq_changes = registry.counter(f"{p}freq_changes")
        self._stall_us = registry.counter(f"{p}clock_stall_us")
        self._volt_changes = registry.counter(f"{p}volt_changes")
        self._settle_us = registry.counter(f"{p}voltage_settle_us")
        self._misses = registry.counter(f"{p}deadline_misses")
        self._final_mhz = registry.gauge(f"{p}final_mhz")

    def contribute(self, run: "KernelRun", streams: RunStreams) -> None:
        rows = streams.quanta
        quantum = streams.quantum_us
        busy_sum = idle_sum = 0.0
        u_sum = 0.0
        u_min = float("inf")
        u_max = float("-inf")
        for (_t, busy, u, _si, _m, _v) in rows:
            busy_sum += busy
            idle = quantum - busy
            idle_sum += idle if idle > 0.0 else 0.0
            u_sum += u
            if u < u_min:
                u_min = u
            if u > u_max:
                u_max = u
        self._quanta.inc(len(rows))
        self._busy_us.inc(busy_sum)
        self._idle_us.inc(idle_sum)
        hist = self._utilization
        hist.count += len(rows)
        hist.sum += u_sum
        if u_min < hist.min:
            hist.min = u_min
        if u_max > hist.max:
            hist.max = u_max
        stall_sum = 0.0
        for change in streams.freq_changes:
            stall_sum += change.stall_us
        self._freq_changes.inc(len(streams.freq_changes))
        self._stall_us.inc(stall_sum)
        settle_sum = 0.0
        for change in streams.volt_changes:
            settle_sum += change.settle_us
        self._volt_changes.inc(len(streams.volt_changes))
        self._settle_us.inc(settle_sum)
        # Raw misses (zero tolerance): the recorder cannot know workload
        # perceptibility thresholds; tolerance-aware counts stay with the
        # measurement layer.
        self._misses.inc(sum(1 for e in run.events if e.lateness_us > 0.0))
        if rows:
            self._final_mhz.set(rows[-1][4])
