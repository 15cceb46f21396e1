"""Tests for kernel event tracing and the Chrome trace-event exporter."""

import json

import pytest

from repro.core.catalog import resolve_policy
from repro.measure.runner import run_workload
from repro.obs.trace import (
    TRACE_PID_MACHINE,
    TRACE_PID_PROCESSES,
    TraceRecorder,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.workloads.mpeg import MpegConfig, mpeg_workload


def traced_run(policy="best", duration_s=2.0, seed=0):
    tracer = TraceRecorder()
    workload = mpeg_workload(MpegConfig(duration_s=duration_s))
    result = run_workload(
        workload,
        resolve_policy(policy),
        seed=seed,
        use_daq=False,
        extra_recorders=[tracer],
    )
    return tracer, result, workload


class TestTraceRecorder:
    def test_captures_every_stream(self):
        tracer, result, _ = traced_run()
        assert len(tracer.quanta) == len(result.run.quanta)
        assert tracer.quanta == result.run.quanta
        assert tracer.freq_changes == result.run.freq_changes
        assert len(tracer.power) >= len(result.run.timeline)
        # Sched decisions are captured even though record_sched_log is off.
        assert tracer.decisions
        assert result.run.sched_log == []

    def test_contribute_attaches_to_run(self):
        tracer, result, _ = traced_run()
        assert result.run.trace is tracer

    def test_stall_windows_match_transition_accounting(self):
        tracer, result, _ = traced_run()
        windows = tracer.stall_windows()
        assert len(windows) == result.run.clock_changes
        total = sum(end - start for start, end in windows)
        assert total == pytest.approx(result.run.clock_stall_us)
        assert all(end > start for start, end in windows)

    def test_tracing_is_bitwise_pure(self):
        """Attaching the tracer must not move a single bit."""
        _, traced, _ = traced_run(seed=3)
        plain = run_workload(
            mpeg_workload(MpegConfig(duration_s=2.0)),
            resolve_policy("best"),
            seed=3,
            use_daq=False,
        )
        assert traced.exact_energy_j == plain.exact_energy_j
        assert traced.energy_j == plain.energy_j
        assert traced.run.mean_utilization() == plain.run.mean_utilization()
        assert traced.run.clock_changes == plain.run.clock_changes
        assert traced.run.quanta == plain.run.quanta


class TestChromeTraceExport:
    def test_valid_and_complete(self):
        tracer, result, workload = traced_run()
        payload = tracer.chrome_trace(
            run=result.run, tolerance_us=workload.tolerance_us
        )
        validate_chrome_trace(payload)  # must not raise
        events = payload["traceEvents"]
        counters = {e["name"] for e in events if e["ph"] == "C"}
        assert counters == {"frequency (MHz)", "voltage (V)", "power (W)"}
        slices = [
            e for e in events
            if e["ph"] == "X" and e["pid"] == TRACE_PID_PROCESSES
        ]
        assert slices, "process execution track must not be empty"
        names = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert any("mpeg" in n or "pid" in n for n in names)
        stalls = [e for e in events if e["name"] == "clock-change stall"]
        assert len(stalls) == result.run.clock_changes

    def test_round_trips_through_json(self, tmp_path):
        tracer, result, workload = traced_run()
        payload = tracer.chrome_trace(run=result.run)
        out = write_chrome_trace(payload, tmp_path / "trace.json")
        parsed = json.loads(out.read_text())
        validate_chrome_trace(parsed)
        assert len(parsed["traceEvents"]) == len(payload["traceEvents"])

    def test_deadline_misses_become_instants(self):
        # const-59.0 cannot keep up with MPEG: misses are guaranteed.
        tracer, result, workload = traced_run(policy="const-59.0")
        assert result.misses
        payload = tracer.chrome_trace(
            run=result.run, tolerance_us=workload.tolerance_us
        )
        misses = [
            e for e in payload["traceEvents"]
            if e["name"].startswith("deadline miss")
        ]
        assert len(misses) == len(result.misses)
        assert all(e["ph"] == "i" for e in misses)

    def test_timestamps_sorted_after_metadata(self):
        tracer, result, _ = traced_run(duration_s=1.0)
        events = tracer.chrome_trace(run=result.run)["traceEvents"]
        phases = [e["ph"] for e in events]
        first_data = phases.index(next(p for p in phases if p != "M"))
        assert all(p == "M" for p in phases[:first_data])
        timestamps = [e["ts"] for e in events[first_data:]]
        assert timestamps == sorted(timestamps)

    def test_counter_track_follows_frequency(self):
        tracer, result, _ = traced_run(policy="best")
        events = tracer.chrome_trace(run=result.run)["traceEvents"]
        freq = [
            e["args"]["mhz"] for e in events
            if e["ph"] == "C" and e["name"] == "frequency (MHz)"
        ]
        assert freq == [q.mhz for q in result.run.quanta]
        assert len(set(freq)) > 1, "best policy must actually change speed"


class TestValidator:
    def good(self):
        return {
            "traceEvents": [
                {"name": "f", "ph": "C", "ts": 0.0, "pid": TRACE_PID_MACHINE,
                 "args": {"v": 1.0}},
            ]
        }

    def test_accepts_good_payload(self):
        validate_chrome_trace(self.good())

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda p: p.pop("traceEvents"),
            lambda p: p["traceEvents"].append({"ph": "C"}),
            lambda p: p["traceEvents"].append(
                {"name": "x", "ph": "Q", "ts": 0.0, "pid": 1}),
            lambda p: p["traceEvents"].append(
                {"name": "x", "ph": "C", "ts": -1.0, "pid": 1, "args": {"v": 1}}),
            lambda p: p["traceEvents"].append(
                {"name": "x", "ph": "X", "ts": 0.0, "pid": 1}),
            lambda p: p["traceEvents"].append(
                {"name": "x", "ph": "C", "ts": 0.0, "pid": 1, "args": {}}),
            lambda p: p["traceEvents"].append(
                {"name": "x", "ph": "C", "ts": 0.0, "pid": 1,
                 "args": {"v": "high"}}),
        ],
    )
    def test_rejects_malformed(self, mutate):
        payload = self.good()
        mutate(payload)
        with pytest.raises(ValueError):
            validate_chrome_trace(payload)

    def test_rejects_non_object(self):
        with pytest.raises(ValueError):
            validate_chrome_trace([1, 2, 3])

    def test_write_refuses_invalid(self, tmp_path):
        with pytest.raises(ValueError):
            write_chrome_trace({"nope": []}, tmp_path / "bad.json")
        assert not (tmp_path / "bad.json").exists()
