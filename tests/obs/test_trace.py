"""Tests for the Chrome trace-event exporter of kernel runs."""

import json

import pytest

from repro.core.catalog import resolve_policy
from repro.kernel.config import KernelConfig
from repro.kernel.recorders import RECORDING_MINIMAL
from repro.measure.runner import run_workload
from repro.obs.trace import (
    TRACE_PID_MACHINE,
    TRACE_PID_PROCESSES,
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.workloads.mpeg import MpegConfig, mpeg_workload


def traced_run(policy="best", duration_s=2.0, seed=0, **kwargs):
    """A run that keeps its scheduler log, as ``repro trace`` runs it."""
    workload = mpeg_workload(MpegConfig(duration_s=duration_s))
    result = run_workload(
        workload,
        resolve_policy(policy),
        seed=seed,
        kernel_config=KernelConfig(record_sched_log=True),
        use_daq=False,
        **kwargs,
    )
    return result, workload


class TestTracedRun:
    def test_stall_windows_match_transition_accounting(self):
        result, _ = traced_run()
        windows = result.run.stall_windows()
        assert len(windows) == result.run.clock_changes
        total = sum(end - start for start, end in windows)
        assert total == pytest.approx(result.run.clock_stall_us)
        assert all(end > start for start, end in windows)

    def test_tracing_is_bitwise_pure(self):
        """Keeping the scheduler log must not move a single bit."""
        traced, _ = traced_run(seed=3)
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
        assert plain.run.sched_log == []

    def test_export_counts_every_stream(self):
        result, _ = traced_run()
        run = result.run
        counts = chrome_trace(run)["otherData"]
        assert counts["quanta"] == len(run.quanta)
        assert counts["power_segments"] == len(run.timeline)
        assert counts["sched_decisions"] == len(run.sched_rows) > 0
        assert counts["freq_changes"] == len(run.freq_changes)
        assert counts["volt_changes"] == len(run.volt_changes)

    def test_export_names_the_missing_record(self):
        plain = run_workload(
            mpeg_workload(MpegConfig(duration_s=1.0)),
            resolve_policy("best"),
            use_daq=False,
        )
        with pytest.raises(ValueError, match="record_sched_log=True"):
            chrome_trace(plain.run)
        minimal, _ = traced_run(duration_s=1.0, recording=RECORDING_MINIMAL)
        with pytest.raises(ValueError, match="full-recording run"):
            chrome_trace(minimal.run)


class TestChromeTraceExport:
    def test_valid_and_complete(self):
        result, workload = traced_run()
        payload = chrome_trace(result.run, tolerance_us=workload.tolerance_us)
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
        result, _ = traced_run()
        payload = chrome_trace(result.run)
        out = write_chrome_trace(payload, tmp_path / "trace.json")
        parsed = json.loads(out.read_text())
        validate_chrome_trace(parsed)
        assert len(parsed["traceEvents"]) == len(payload["traceEvents"])

    def test_deadline_misses_become_instants(self):
        # const-59.0 cannot keep up with MPEG: misses are guaranteed.
        result, workload = traced_run(policy="const-59.0")
        assert result.misses
        payload = chrome_trace(result.run, tolerance_us=workload.tolerance_us)
        misses = [
            e for e in payload["traceEvents"]
            if e["name"].startswith("deadline miss")
        ]
        assert len(misses) == len(result.misses)
        assert all(e["ph"] == "i" for e in misses)

    def test_timestamps_sorted_after_metadata(self):
        result, _ = traced_run(duration_s=1.0)
        events = chrome_trace(result.run)["traceEvents"]
        phases = [e["ph"] for e in events]
        first_data = phases.index(next(p for p in phases if p != "M"))
        assert all(p == "M" for p in phases[:first_data])
        timestamps = [e["ts"] for e in events[first_data:]]
        assert timestamps == sorted(timestamps)

    def test_counter_track_follows_frequency(self):
        result, _ = traced_run(policy="best")
        events = chrome_trace(result.run)["traceEvents"]
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
