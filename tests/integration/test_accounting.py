"""Per-process accounting and the ideal-constant-step oracle."""

import pytest

from repro.core.catalog import constant_speed
from repro.hw.itsy import ItsyConfig, ItsyMachine
from repro.kernel.scheduler import Kernel, KernelConfig
from repro.measure.parallel import WorkloadSpec, find_ideal_constant
from repro.measure.runner import run_workload
from repro.workloads.mpeg import MpegConfig, mpeg_workload, setup_mpeg
from repro.workloads.web import WebConfig


class TestPerProcessAccounting:
    @pytest.fixture(scope="class")
    def run(self):
        kernel = Kernel(
            ItsyMachine(ItsyConfig()), config=KernelConfig(sched_overhead_us=0.0)
        )
        setup_mpeg(kernel, seed=0, cfg=MpegConfig(duration_s=5.0))
        return kernel.run(5_000_000.0)

    def test_video_dominates_audio(self, run):
        shares = run.busy_share_by_name()
        assert set(shares) == {"mpeg_play", "wav_play"}
        assert shares["mpeg_play"] > 0.9
        assert shares["wav_play"] > 0.0

    def test_shares_sum_to_one(self, run):
        assert sum(run.busy_share_by_name().values()) == pytest.approx(1.0)

    def test_per_pid_busy_matches_quantum_accounting(self, run):
        # per-pid busy excludes only the scheduler overhead and stalls,
        # which this run has none of.
        total_by_pid = sum(run.busy_us_by_pid.values())
        total_by_quanta = sum(q.busy_us for q in run.quanta)
        assert total_by_pid == pytest.approx(total_by_quanta, rel=1e-9)

    def test_idle_never_appears(self, run):
        assert 0 not in run.busy_us_by_pid

    def test_empty_system_has_no_shares(self):
        kernel = Kernel(
            ItsyMachine(ItsyConfig()), config=KernelConfig(sched_overhead_us=0.0)
        )
        run = kernel.run(100_000.0)
        assert run.busy_share_by_name() == {}


class TestIdealConstant:
    def test_mpeg_ideal_is_132(self):
        result = find_ideal_constant(
            WorkloadSpec("mpeg", MpegConfig(duration_s=15.0)), seed=1
        )
        assert result.final_mhz == pytest.approx(132.7)
        assert not result.missed

    def test_web_ideal_is_above_the_bottom(self):
        # Web needs responsiveness: the bottom steps miss page-load
        # budgets, so the cheapest feasible step is an interior one.
        result = find_ideal_constant(
            WorkloadSpec("web", WebConfig(duration_s=40.0)), seed=1
        )
        assert 59.0 < result.final_mhz < 206.4

    def test_ideal_cheaper_than_full_speed(self):
        config = MpegConfig(duration_s=15.0)
        ideal = find_ideal_constant(WorkloadSpec("mpeg", config), seed=1)
        full = run_workload(
            mpeg_workload(config), lambda: constant_speed(206.4), seed=1,
            use_daq=False,
        )
        assert ideal.exact_energy_j < full.exact_energy_j

    def test_impossible_workload_raises(self):
        # 30 fps at full per-frame work is infeasible at every step.
        wl = WorkloadSpec("mpeg", MpegConfig(duration_s=10.0, fps=30.0))
        with pytest.raises(ValueError):
            find_ideal_constant(wl, seed=1)
