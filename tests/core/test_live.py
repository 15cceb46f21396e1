"""Tests for the live (in-kernel) Govil predictor adapter."""

import pytest

from repro.core.govil import AgedAveragesPredictor, FlatPredictor, PeakPredictor
from repro.core.live import LivePredictorGovernor
from repro.hw.itsy import ItsyConfig, ItsyMachine
from repro.hw.rails import VOLTAGE_HIGH
from repro.kernel.config import KernelConfig
from repro.kernel.governor import TickInfo
from repro.kernel.scheduler import Kernel
from repro.workloads.synthetic import rectangle_wave_body


def info(utilization, step_index, mhz):
    return TickInfo(
        now_us=10_000.0,
        utilization=utilization,
        busy_us=utilization * 10_000.0,
        quantum_us=10_000.0,
        step_index=step_index,
        mhz=mhz,
        volts=VOLTAGE_HIGH,
        max_step_index=10,
    )


class TestAdapterMechanics:
    def test_flat_full_target_requests_max(self):
        gov = LivePredictorGovernor(FlatPredictor(1.0), target_utilization=1.0)
        req = gov.on_tick(info(0.1, 0, 59.0))
        assert req is not None and req.step_index == 10

    def test_flat_zero_requests_bottom(self):
        gov = LivePredictorGovernor(FlatPredictor(0.0))
        req = gov.on_tick(info(0.9, 10, 206.4))
        assert req is not None and req.step_index == 0

    def test_no_request_when_already_there(self):
        gov = LivePredictorGovernor(FlatPredictor(1.0), target_utilization=1.0)
        assert gov.on_tick(info(1.0, 10, 206.4)) is None

    def test_history_is_bounded(self):
        gov = LivePredictorGovernor(AgedAveragesPredictor(), history_limit=10)
        for _ in range(50):
            gov.on_tick(info(0.5, 10, 206.4))
        assert len(gov._history) <= 10

    def test_reset_clears_history(self):
        gov = LivePredictorGovernor(PeakPredictor())
        gov.on_tick(info(0.5, 10, 206.4))
        gov.reset()
        assert gov._history == []

    def test_validation(self):
        with pytest.raises(ValueError):
            LivePredictorGovernor(FlatPredictor(0.5), target_utilization=0.0)
        with pytest.raises(ValueError):
            LivePredictorGovernor(FlatPredictor(0.5), history_limit=0)


class TestClosedLoop:
    def test_aged_averages_tracks_steady_work_demand(self):
        """A *work-based* periodic demand (cycles per period) has a stable
        fixed point: delivered work per quantum is clock-invariant, so the
        governor converges near the step covering the demand at its target
        utilization."""
        from repro.hw.work import Work
        from repro.workloads.synthetic import cycle_demand_body

        machine = ItsyMachine(ItsyConfig())
        gov = LivePredictorGovernor(
            AgedAveragesPredictor(aging=0.8), target_utilization=0.85
        )
        kernel = Kernel(machine, gov, KernelConfig(sched_overhead_us=0.0))
        # 50 ms of full-speed CPU work per 100 ms period: demand = 103.2
        # MHz-equivalents; at the 0.85 target the policy needs ~121 MHz.
        work = Work(cpu_cycles=50_000.0 * 206.4)
        kernel.spawn("job", cycle_demand_body(work, 100_000.0, 20_000_000.0))
        run = kernel.run(20_000_000.0)
        tail = run.quanta[1000:]
        mean_mhz = sum(q.mhz for q in tail) / len(tail)
        assert 110.0 < mean_mhz < 180.0
        assert not run.deadline_misses(tolerance_us=50_000.0)

    def test_time_based_load_induces_downward_spiral(self):
        """The feedback trap: a busy-*wait* load delivers less work at a
        lower clock without raising utilization, so a demand tracker rides
        it all the way down -- exactly why observed-work policies need the
        work/time distinction the paper's kernel cannot make."""
        machine = ItsyMachine(ItsyConfig())
        gov = LivePredictorGovernor(
            AgedAveragesPredictor(aging=0.8), target_utilization=0.85
        )
        kernel = Kernel(machine, gov, KernelConfig(sched_overhead_us=0.0))
        kernel.spawn("wave", rectangle_wave_body(5, 5, 10_000_000.0))
        run = kernel.run(10_000_000.0)
        assert run.quanta[-1].mhz == 59.0

    def test_peak_predictor_is_jumpy(self):
        machine = ItsyMachine(ItsyConfig())
        gov = LivePredictorGovernor(PeakPredictor(), target_utilization=0.9)
        kernel = Kernel(machine, gov, KernelConfig(sched_overhead_us=0.0))
        kernel.spawn("wave", rectangle_wave_body(3, 3, 5_000_000.0))
        run = kernel.run(5_000_000.0)
        # PEAK reacts to every rise/fall: plenty of changes.
        assert run.clock_changes > 50
