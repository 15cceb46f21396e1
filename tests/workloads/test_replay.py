"""Tests for trace-driven replay workloads."""

import pytest

from repro.core.catalog import best_policy, constant_speed
from repro.measure.runner import run_workload
from repro.workloads.mpeg import MpegConfig, mpeg_workload
from repro.workloads.replay import (
    RecordedQuantum,
    ReplayMode,
    record_from_run,
    replay_body,
    replay_workload,
)


@pytest.fixture(scope="module")
def mpeg_trace():
    res = run_workload(
        mpeg_workload(MpegConfig(duration_s=8.0)),
        lambda: constant_speed(206.4),
        seed=2,
        use_daq=False,
    )
    return record_from_run(res.run)


class TestRecording:
    def test_record_from_run(self, mpeg_trace):
        assert len(mpeg_trace) == 800
        assert all(q.mhz == 206.4 for q in mpeg_trace)
        assert any(q.busy_us > 9_000 for q in mpeg_trace)

    def test_work_cycles(self):
        rec = RecordedQuantum(busy_us=5_000.0, mhz=206.4, quantum_us=10_000.0)
        assert rec.work_cycles == pytest.approx(5_000.0 * 206.4)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            replay_body([], ReplayMode.TIME)


class TestTimeReplay:
    def test_reproduces_utilization_at_same_speed(self, mpeg_trace):
        wl = replay_workload(mpeg_trace, ReplayMode.TIME)
        res = run_workload(wl, lambda: constant_speed(206.4), seed=0, use_daq=False)
        orig_util = sum(q.busy_us for q in mpeg_trace) / (len(mpeg_trace) * 10_000.0)
        assert res.run.mean_utilization() == pytest.approx(orig_util, abs=0.02)

    def test_time_replay_is_clock_invariant(self, mpeg_trace):
        wl = replay_workload(mpeg_trace, ReplayMode.TIME)
        fast = run_workload(wl, lambda: constant_speed(206.4), seed=0, use_daq=False)
        wl2 = replay_workload(mpeg_trace, ReplayMode.TIME)
        slow = run_workload(wl2, lambda: constant_speed(59.0), seed=0, use_daq=False)
        # the busy pattern does not stretch: utilization is unchanged and
        # no deadlines are missed even at the bottom step
        assert slow.run.mean_utilization() == pytest.approx(
            fast.run.mean_utilization(), abs=0.02
        )
        assert not slow.missed


class TestWorkReplay:
    def test_work_replay_on_time_at_recording_speed(self, mpeg_trace):
        wl = replay_workload(mpeg_trace, ReplayMode.WORK)
        res = run_workload(wl, lambda: constant_speed(206.4), seed=0, use_daq=False)
        assert not res.missed

    def test_work_replay_misses_at_low_speed(self, mpeg_trace):
        wl = replay_workload(mpeg_trace, ReplayMode.WORK)
        res = run_workload(wl, lambda: constant_speed(59.0), seed=0, use_daq=False)
        assert res.missed

    def test_work_replay_stretches_utilization(self, mpeg_trace):
        wl_fast = replay_workload(mpeg_trace, ReplayMode.WORK)
        fast = run_workload(
            wl_fast, lambda: constant_speed(206.4), seed=0, use_daq=False
        )
        wl_slow = replay_workload(mpeg_trace, ReplayMode.WORK)
        slow = run_workload(
            wl_slow, lambda: constant_speed(132.7), seed=0, use_daq=False
        )
        assert slow.run.mean_utilization() > fast.run.mean_utilization() + 0.05


class TestTimeVsWorkSemantics:
    """The same recording means different things under the two modes:
    WORK preserves recorded cycles (faster clock finishes early), TIME
    preserves recorded busy time (faster clock changes nothing)."""

    #: 50 quanta recorded at the bottom step, 80% busy.
    LOW_SPEED_TRACE = [
        RecordedQuantum(busy_us=8_000.0, mhz=59.0, quantum_us=10_000.0)
        for _ in range(50)
    ]

    def busy_us(self, mode, mhz):
        wl = replay_workload(self.LOW_SPEED_TRACE, mode)
        res = run_workload(wl, lambda: constant_speed(mhz), seed=0, use_daq=False)
        return sum(res.run.busy_us_by_pid.values())

    def test_modes_agree_at_recording_speed(self):
        work = self.busy_us(ReplayMode.WORK, 59.0)
        time = self.busy_us(ReplayMode.TIME, 59.0)
        assert work == pytest.approx(time, rel=0.02)

    def test_work_mode_finishes_early_at_higher_step(self):
        at_59 = self.busy_us(ReplayMode.WORK, 59.0)
        at_206 = self.busy_us(ReplayMode.WORK, 206.4)
        # recorded cycles are fixed, so busy time scales as 59/206.4
        assert at_206 == pytest.approx(at_59 * 59.0 / 206.4, rel=0.05)

    def test_time_mode_busy_is_step_invariant(self):
        at_59 = self.busy_us(ReplayMode.TIME, 59.0)
        at_206 = self.busy_us(ReplayMode.TIME, 206.4)
        assert at_206 == pytest.approx(at_59, rel=0.02)


class TestMethodologyGap:
    def test_policy_looks_better_on_time_replay(self, mpeg_trace):
        """The paper's §3 criticism, quantified: the same policy saves more
        energy with zero misses on a TIME trace than on the WORK version
        of the same recording."""
        time_res = run_workload(
            replay_workload(mpeg_trace, ReplayMode.TIME),
            best_policy,
            seed=0,
            use_daq=False,
        )
        work_res = run_workload(
            replay_workload(mpeg_trace, ReplayMode.WORK),
            best_policy,
            seed=0,
            use_daq=False,
        )
        assert not time_res.missed
        # TIME replay lets the policy idle at low clock without penalty:
        # less energy than the honest WORK replay.
        assert time_res.exact_energy_j < work_res.exact_energy_j


class TestDescriptor:
    def test_workload_names_and_duration(self, mpeg_trace):
        wl = replay_workload(mpeg_trace, ReplayMode.WORK, name="mpeg")
        assert wl.name == "mpeg-work"
        assert wl.duration_s == pytest.approx(8.0)
