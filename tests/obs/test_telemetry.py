"""Tests for sweep telemetry: the sweep trace, progress math, and the
renderer.

Everything here drives the progress model with a fake clock and
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
from repro.obs.telemetry import (
    ProgressDisplay,
    ProgressModel,
    ProgressRenderer,
    format_progress_line,
)
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


def replay(model, events):
    """Feed ``(done, pid, cell_id, t)`` heartbeats to ``model``."""
    for done, pid, cell_id, t in events:
        if done:
            model.cell_finished(pid, cell_id, t)
        else:
            model.cell_started(pid, cell_id, t)


class TestProgressModel:
    def test_eta_from_rate(self):
        model = ProgressModel(total=10)
        model.start(0.0)
        replay(model, [
            (START, 1, 0, 0.0), (DONE, 1, 0, 2.0),
            (START, 1, 1, 2.0), (DONE, 1, 1, 4.0),
        ])
        snap = model.snapshot(4.0)
        assert snap.done == 2
        assert snap.cells_per_s == 0.5
        # 8 remaining at 0.5 cells/s.
        assert snap.eta_s == 16.0

    def test_eta_none_before_first_completion(self):
        model = ProgressModel(total=5)
        model.start(0.0)
        model.cell_started(1, 0, 0.0)
        assert model.snapshot(1.0).eta_s is None

    def test_eta_zero_when_done(self):
        model = ProgressModel(total=1)
        model.start(0.0)
        replay(model, [
            (START, 1, 0, 0.0), (DONE, 1, 0, 1.0),
        ])
        assert model.snapshot(1.0).eta_s == 0.0

    def test_zero_cell_sweep(self):
        model = ProgressModel(total=0)
        model.start(0.0)
        snap = model.snapshot(0.0)
        assert snap.done == snap.total == 0
        assert snap.fraction == 1.0
        assert snap.eta_s == 0.0
        assert snap.stragglers == ()
        # The summary line must still format without dividing by zero.
        assert "0/0" in format_progress_line(snap)

    def test_all_cached_sweep(self):
        model = ProgressModel(total=4)
        model.start(0.0)
        for cell_id in range(4):
            model.cache_hit(cell_id, 0.0)
        snap = model.snapshot(0.0)
        assert snap.done == 4
        assert snap.cached == 4
        assert snap.executed == 0
        assert snap.cache_hit_rate == 1.0
        assert snap.fraction == 1.0
        assert snap.eta_s == 0.0

    def test_cache_hit_rate_mixed(self):
        model = ProgressModel(total=4)
        model.start(0.0)
        replay(model, [
            (START, 1, 0, 0.0), (DONE, 1, 0, 1.0),
        ])
        model.cache_hit(1, 1.0)
        assert model.snapshot(1.0).cache_hit_rate == 0.5

    def test_worker_utilization(self):
        model = ProgressModel(total=4)
        model.start(0.0)
        # Two workers; one busy the whole window, one idle half of it.
        replay(model, [
            (START, 1, 0, 0.0), (DONE, 1, 0, 4.0),
            (START, 2, 1, 0.0), (DONE, 2, 1, 2.0),
        ])
        assert model.worker_utilization(4.0) == (4.0 + 2.0) / (2 * 4.0)

    def test_utilization_counts_in_flight_work(self):
        model = ProgressModel(total=2)
        model.start(0.0)
        model.cell_started(1, 0, 0.0)
        assert model.worker_utilization(2.0) == 1.0

    def test_straggler_needs_min_samples(self):
        model = ProgressModel(total=10)
        model.start(0.0)
        # Two completions at 1 s each — below the 3-sample floor, so even
        # a 100x-median in-flight cell is not yet flagged.
        replay(model, [
            (START, 1, 0, 0.0), (DONE, 1, 0, 1.0),
            (START, 1, 1, 1.0), (DONE, 1, 1, 2.0),
            (START, 2, 2, 0.0),
        ])
        assert model.stragglers(100.0) == ()

    def test_straggler_flagged_past_factor(self):
        model = ProgressModel(total=10)
        model.start(0.0)
        replay(model, [
            (START, 1, 0, 0.0), (DONE, 1, 0, 1.0),
            (START, 1, 1, 1.0), (DONE, 1, 1, 2.0),
            (START, 1, 2, 2.0), (DONE, 1, 2, 3.0),
        ])
        model.cell_started(2, 3, 3.0, label="best/mpeg")
        # Median completed wall is 1 s; the in-flight cell crosses the
        # 4x bar only after 4 s elapsed.
        assert model.stragglers(6.9) == ()
        [straggler] = model.stragglers(7.1)
        assert straggler.cell_id == 3
        assert straggler.worker_pid == 2
        assert straggler.label == "best/mpeg"
        assert straggler.elapsed_s == 7.1 - 3.0
        assert straggler.median_s == 1.0

    def test_identical_wall_times_flag_nothing(self):
        # A perfectly uniform sweep: every completed cell took exactly
        # 1 s and the in-flight cell has run exactly that long.  The
        # median equals the elapsed time, so nothing crosses the factor
        # bar — uniform progress must never read as a straggler.
        model = ProgressModel(total=10)
        model.start(0.0)
        replay(model, [
            (START, 1, 0, 0.0), (DONE, 1, 0, 1.0),
            (START, 1, 1, 1.0), (DONE, 1, 1, 2.0),
            (START, 1, 2, 2.0), (DONE, 1, 2, 3.0),
            (START, 2, 3, 3.0),
        ])
        assert model.stragglers(4.0) == ()

    def test_stragglers_sorted_worst_first(self):
        model = ProgressModel(total=10)
        model.start(0.0)
        replay(model, [
            (START, 1, i, float(i)) for i in range(3)
        ] + [
            (DONE, 1, i, float(i) + 1.0) for i in range(3)
        ])
        model.cell_started(2, 8, 0.0)
        model.cell_started(3, 9, 2.0)
        flagged = model.stragglers(10.0)
        assert [s.cell_id for s in flagged] == [8, 9]

    def test_snapshot_line_formats(self):
        model = ProgressModel(total=10)
        model.start(0.0)
        replay(model, [
            (START, 1, 0, 0.0), (DONE, 1, 0, 2.0),
            (START, 1, 1, 2.0), (DONE, 1, 1, 4.0),
        ])
        line = format_progress_line(model.snapshot(4.0))
        assert "2/10" in line
        assert "20%" in line
        assert "0.5 cells/s" in line
        assert "eta 16s" in line

    def test_total_can_grow_across_batches(self):
        model = ProgressModel()
        model.add_total(3)
        model.add_total(2)
        assert model.snapshot(0.0).total == 5


class TestProgressRenderer:
    def model(self):
        model = ProgressModel(total=2)
        model.start(0.0)
        return model

    def test_disabled_on_non_tty(self):
        sink = io.StringIO()  # StringIO.isatty() is False
        renderer = ProgressRenderer(self.model(), sink)
        renderer.update(force=True)
        renderer.finish()
        assert sink.getvalue() == ""

    def test_forced_renderer_draws_and_clears(self):
        clock = FakeClock()
        model = self.model()
        sink = io.StringIO()
        renderer = ProgressRenderer(model, sink, clock=clock, enabled=True)
        renderer.update(force=True)
        out = sink.getvalue()
        assert out.startswith("\r")
        assert "0/2" in out
        renderer.finish()
        # finish() leaves the line cleared for whatever prints next.
        assert sink.getvalue().endswith("\r")

    def test_updates_throttle(self):
        clock = FakeClock()
        model = self.model()
        sink = io.StringIO()
        renderer = ProgressRenderer(
            model, sink, min_interval_s=0.1, clock=clock, enabled=True
        )
        renderer.update(force=True)
        first = sink.getvalue()
        renderer.update()  # same instant: throttled away
        assert sink.getvalue() == first
        clock.advance(0.2)
        renderer.update()
        assert len(sink.getvalue()) > len(first)


class TestProgressDisplay:
    def test_heartbeats_and_hits_drive_the_model(self):
        display = ProgressDisplay()
        display.on_batch_start(3)
        display.on_heartbeat(START, 7, 0, 1.0, "best/mpeg")
        assert display.model.snapshot(1.5).in_flight == 1
        display.on_heartbeat(DONE, 7, 0, 2.0, "best/mpeg")
        display.on_cache_hit(None, "key", None)
        snap = display.model.snapshot(2.0)
        assert (snap.total, snap.done, snap.executed, snap.cached) == (3, 2, 1, 1)
        assert snap.in_flight == 0
        display.on_batch_end()


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
