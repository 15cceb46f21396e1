"""Tests for sweep telemetry: the sweep trace, the progress line and
its drawing.

Everything here drives the progress display with a fake clock and
hand-built heartbeat streams, and the timeline with explicit stamps —
no sleeps, no real pools — so the ETA and straggler arithmetic is
checked exactly, not statistically.
"""

import io

from repro.obs.profile import (
    LANE_ENGINE,
    PHASE_COMPUTE,
    PHASE_SPINUP,
    PHASE_WORKER_START,
    SweepTimeline,
)
from repro.obs.telemetry import ProgressDisplay
from repro.obs.trace import validate_chrome_trace

#: Heartbeat ``done`` flags.
START, DONE = False, True


class FakeClock:
    """A monotonically advancing clock the tests control."""

    def __init__(self, t: float = 100.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> float:
        self.t += dt
        return self.t


class TtyStream(io.StringIO):
    """An in-memory stream that says it is a terminal."""

    def isatty(self) -> bool:
        return True


def display(total=None, clock=None, stream=None):
    shown = ProgressDisplay(
        stream=io.StringIO() if stream is None else stream,
        clock=FakeClock(0.0) if clock is None else clock,
    )
    if total is not None:
        shown.on_batch_start(total)
    return shown


def replay(shown, events, label=""):
    """Feed ``(done, pid, cell_id, t)`` heartbeats to ``shown``."""
    for done, pid, cell_id, t in events:
        shown.on_heartbeat(done, pid, cell_id, t, label)


class TestProgressModel:
    """The line a display derives from the heartbeats it saw."""

    def test_eta_from_rate(self):
        shown = display(total=10)
        replay(shown, [
            (START, 1, 0, 0.0), (DONE, 1, 0, 2.0),
            (START, 1, 1, 2.0), (DONE, 1, 1, 4.0),
        ])
        assert shown.done == 2
        line = shown.line(4.0)
        assert "0.5 cells/s" in line
        # 8 remaining at 0.5 cells/s.
        assert "eta 16s" in line

    def test_eta_none_before_first_completion(self):
        shown = display(total=5)
        replay(shown, [(START, 1, 0, 0.0)])
        assert "eta ?" in shown.line(1.0)

    def test_eta_zero_when_done(self):
        shown = display(total=1)
        replay(shown, [(START, 1, 0, 0.0), (DONE, 1, 0, 1.0)])
        assert "eta 0s" in shown.line(1.0)

    def test_zero_cell_sweep(self):
        # The line must still form without dividing by zero.
        shown = display(total=0)
        assert shown.done == shown.total == 0
        assert shown.line(0.0) == (
            "sweep 0/0 (100%) | 0.0 cells/s | eta 0s | cache 0% | workers 0%"
        )

    def test_all_cached_sweep(self):
        shown = display(total=4)
        for _ in range(4):
            shown.on_cache_hit(None, "key", None)
        assert (shown.done, shown.cached) == (4, 4)
        assert shown.done - shown.cached == 0
        line = shown.line(0.0)
        assert line.startswith("sweep 4/4 (100%)")
        assert "eta 0s" in line
        assert "cache 100%" in line

    def test_cache_hit_rate_mixed(self):
        clock = FakeClock(0.0)
        shown = display(total=4, clock=clock)
        replay(shown, [(START, 1, 0, 0.0), (DONE, 1, 0, 1.0)])
        clock.advance(1.0)
        shown.on_cache_hit(None, "key", None)
        assert "cache 50%" in shown.line(1.0)

    def test_worker_utilization(self):
        shown = display(total=4)
        # Two workers; one busy the whole window, one idle half of it.
        replay(shown, [
            (START, 1, 0, 0.0), (DONE, 1, 0, 4.0),
            (START, 2, 1, 0.0), (DONE, 2, 1, 2.0),
        ])
        # (4.0 + 2.0) / (2 * 4.0)
        assert "workers 75%" in shown.line(4.0)

    def test_utilization_counts_in_flight_work(self):
        shown = display(total=2)
        replay(shown, [(START, 1, 0, 0.0)])
        assert shown.in_flight == 1
        assert "workers 100%" in shown.line(2.0)

    def test_finish_without_start_counts_its_worker(self):
        shown = display(total=2)
        replay(shown, [
            (START, 1, 0, 0.0), (DONE, 1, 0, 4.0),
            (DONE, 2, 1, 4.0),
        ])
        assert shown.done == 2
        # Worker 2 counts, though no start of its cell arrived: 4 s busy
        # over two workers' 4 s.
        assert "workers 50%" in shown.line(4.0)

    def test_straggler_needs_min_samples(self):
        shown = display(total=10)
        # Two completions at 1 s each — below the 3-sample floor, so even
        # a 100x-median in-flight cell is not yet flagged.
        replay(shown, [
            (START, 1, 0, 0.0), (DONE, 1, 0, 1.0),
            (START, 1, 1, 1.0), (DONE, 1, 1, 2.0),
            (START, 2, 2, 0.0),
        ])
        assert "straggler" not in shown.line(100.0)

    def test_straggler_flagged_past_factor(self):
        shown = display(total=10)
        replay(shown, [
            (START, 1, 0, 0.0), (DONE, 1, 0, 1.0),
            (START, 1, 1, 1.0), (DONE, 1, 1, 2.0),
            (START, 1, 2, 2.0), (DONE, 1, 2, 3.0),
        ])
        shown.on_heartbeat(START, 2, 3, 3.0, "best/mpeg")
        # Median completed wall is 1 s; the in-flight cell crosses the
        # 4x bar only after 4 s elapsed.
        assert "straggler" not in shown.line(6.9)
        assert shown.line(7.1).endswith(" | straggler best/mpeg 4.1s")

    def test_identical_wall_times_flag_nothing(self):
        # A perfectly uniform sweep: every completed cell took exactly
        # 1 s and the in-flight cell has run exactly that long.  The
        # median equals the elapsed time, so nothing crosses the factor
        # bar — uniform progress must never read as a straggler.
        shown = display(total=10)
        replay(shown, [
            (START, 1, 0, 0.0), (DONE, 1, 0, 1.0),
            (START, 1, 1, 1.0), (DONE, 1, 1, 2.0),
            (START, 1, 2, 2.0), (DONE, 1, 2, 3.0),
            (START, 2, 3, 3.0),
        ])
        assert "straggler" not in shown.line(4.0)

    def test_stragglers_sorted_worst_first(self):
        shown = display(total=10)
        replay(shown, [
            (START, 1, i, float(i)) for i in range(3)
        ] + [
            (DONE, 1, i, float(i) + 1.0) for i in range(3)
        ])
        replay(shown, [(START, 3, 9, 2.0), (START, 2, 8, 0.0)])
        # Only the worst straggler is shown; unlabelled cells by id.
        assert shown.line(10.0).endswith(" | straggler cell 8 10.0s")

    def test_straggler_ties_go_to_the_first_started(self):
        shown = display(total=10)
        replay(shown, [
            (START, 1, i, float(i)) for i in range(3)
        ] + [
            (DONE, 1, i, float(i) + 1.0) for i in range(3)
        ])
        shown.on_heartbeat(START, 3, 9, 2.0, "started first")
        shown.on_heartbeat(START, 2, 8, 2.0, "started second")
        assert shown.line(10.0).endswith(" | straggler started first 8.0s")

    def test_snapshot_line_formats(self):
        shown = display(total=10)
        replay(shown, [
            (START, 1, 0, 0.0), (DONE, 1, 0, 2.0),
            (START, 1, 1, 2.0), (DONE, 1, 1, 4.0),
        ])
        assert shown.line(4.0) == (
            "sweep 2/10 (20%) | 0.5 cells/s | eta 16s | cache 0% | "
            "workers 100%"
        )

    def test_total_can_grow_across_batches(self):
        shown = display()
        shown.on_batch_start(3)
        shown.on_batch_start(2)
        assert shown.total == 5


class TestProgressRenderer:
    """How a display draws its line."""

    def events(self, shown):
        shown.on_batch_start(2)
        replay(shown, [(START, 1, 0, 0.0), (DONE, 1, 0, 1.0)])
        shown.on_batch_end()

    def test_disabled_on_non_tty(self):
        sink = io.StringIO()  # StringIO.isatty() is False
        self.events(display(stream=sink))
        assert sink.getvalue() == ""

    def test_forced_renderer_draws_and_clears(self):
        sink = TtyStream()
        shown = display(stream=sink)
        shown.on_batch_start(2)
        replay(shown, [(START, 1, 0, 0.0)])
        out = sink.getvalue()
        assert out.startswith("\r")
        assert "0/2" in out
        shown.on_batch_end()
        # The batch end leaves the line cleared for whatever prints next.
        assert sink.getvalue().endswith("\r")

    def test_updates_throttle(self):
        clock = FakeClock()
        sink = TtyStream()
        shown = display(total=2, clock=clock, stream=sink)
        replay(shown, [(START, 1, 0, 0.0)])
        first = sink.getvalue()
        replay(shown, [(START, 1, 1, 0.0)])  # same instant: throttled away
        assert sink.getvalue() == first
        clock.advance(0.2)
        replay(shown, [(DONE, 1, 0, 0.2)])
        assert len(sink.getvalue()) > len(first)


class TestProgressDisplay:
    def test_heartbeats_and_hits_drive_the_model(self):
        shown = ProgressDisplay()
        shown.on_batch_start(3)
        shown.on_heartbeat(START, 7, 0, 1.0, "best/mpeg")
        assert shown.in_flight == 1
        shown.on_heartbeat(DONE, 7, 0, 2.0, "best/mpeg")
        shown.on_cache_hit(None, "key", None)
        assert (shown.total, shown.done, shown.cached) == (3, 2, 1)
        assert shown.in_flight == 0
        shown.on_batch_end()


class TestSweepTelemetry:
    """The sweep timeline's Chrome export."""

    def test_trace_validates_with_worker_lanes(self):
        tl = SweepTimeline()
        tl.add_stage(PHASE_SPINUP, 10.0, 10.01, workers=2)
        tl.add_cell("best", [(PHASE_COMPUTE, 10.0, 10.005)], 111, 0, seed=0)
        tl.add_cell("best", [(PHASE_COMPUTE, 10.0, 10.005)], 222, 1, seed=1)
        tl.add_instant("cache hit", policy="best")
        payload = tl.chrome_trace()
        validate_chrome_trace(payload)
        names = {e["name"] for e in payload["traceEvents"]}
        assert {"pool spin-up", "best", "kernel compute", "cache hit"} <= names
        thread_names = {
            e["tid"]: e["args"]["name"] for e in payload["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert thread_names[LANE_ENGINE] == "engine"
        assert thread_names[1] == "worker 0 (pid 111)"
        assert thread_names[2] == "worker 1 (pid 222)"
        assert payload["otherData"]["workers"] == 2

    def test_ordinals_match_lane_order(self):
        # A pool worker's lane is its run-log ordinal plus one; the
        # engine's own cells sit on the engine lane whatever its ordinal.
        import os

        tl = SweepTimeline()
        tl.add_cell("a", [(PHASE_COMPUTE, 0.0, 1.0)], 500, 1)
        tl.add_cell("b", [(PHASE_COMPUTE, 0.0, 1.0)], os.getpid(), 0)
        lanes = {
            e["name"]: e["tid"] for e in tl.chrome_trace()["traceEvents"]
            if e["ph"] == "X" and e["name"] in ("a", "b")
        }
        assert lanes == {"a": 2, "b": LANE_ENGINE}

    def test_span_durations_never_negative(self):
        tl = SweepTimeline()
        tl.add_stage("clamped", 100.0, 50.0)
        [event] = [
            e for e in tl.chrome_trace()["traceEvents"] if e["ph"] == "X"
        ]
        assert event["dur"] == 0

    def test_empty_telemetry_still_validates(self):
        validate_chrome_trace(SweepTimeline().chrome_trace())

    def test_cell_span_encloses_its_stamps_after_worker_start(self):
        tl = SweepTimeline()
        tl.add_cell(
            "best/mpeg",
            [(PHASE_WORKER_START, 1.0, 2.0), (PHASE_COMPUTE, 2.0, 3.0),
             ("observer reduction", 3.0, 3.5)],
            111, 0,
        )
        [cell] = [
            e for e in tl.chrome_trace()["traceEvents"]
            if e["name"] == "best/mpeg"
        ]
        assert cell["ts"] == 1e6 and cell["dur"] == 1.5e6
