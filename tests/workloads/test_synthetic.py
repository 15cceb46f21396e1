"""Tests for the synthetic analysis workloads."""

import pytest

from repro.hw.itsy import ItsyConfig, ItsyMachine
from repro.hw.work import Work
from repro.kernel.config import KernelConfig
from repro.kernel.scheduler import Kernel
from repro.workloads.synthetic import (
    cycle_demand_body,
    rectangle_wave_body,
    step_body,
)

Q = 10_000.0
CFG = KernelConfig(sched_overhead_us=0.0)


def run_body(body, quanta, mhz=206.4, governor=None):
    kernel = Kernel(ItsyMachine(ItsyConfig(initial_mhz=mhz)), governor, CFG)
    kernel.spawn("synthetic", body)
    return kernel.run(quanta * Q)


class TestRectangleWave:
    def test_nine_one_pattern(self):
        run = run_body(rectangle_wave_body(9, 1, 40 * Q), 40)
        utils = run.utilizations()
        expected = ([1.0] * 9 + [0.0]) * 4
        assert utils == pytest.approx(expected)

    def test_pattern_is_frequency_invariant(self):
        u_fast = run_body(rectangle_wave_body(3, 2, 20 * Q), 20, mhz=206.4)
        u_slow = run_body(rectangle_wave_body(3, 2, 20 * Q), 20, mhz=59.0)
        assert u_fast.utilizations() == pytest.approx(u_slow.utilizations())

    def test_zero_idle_is_solid_busy(self):
        run = run_body(rectangle_wave_body(5, 0, 10 * Q), 10)
        assert run.mean_utilization() == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            rectangle_wave_body(0, 1, Q)
        with pytest.raises(ValueError):
            rectangle_wave_body(1, -1, Q)


class TestStep:
    def test_busy_then_idle(self):
        run = run_body(step_body(busy_us=150_000.0, idle_us=50_000.0), 20)
        utils = run.utilizations()
        assert utils[:15] == pytest.approx([1.0] * 15)
        assert utils[15:] == pytest.approx([0.0] * 5)

    def test_start_delay(self):
        run = run_body(step_body(30_000.0, 0.0, start_delay_us=20_000.0), 5)
        assert run.utilizations() == pytest.approx([0.0, 0.0, 1.0, 1.0, 1.0])

    def test_repeat(self):
        run = run_body(step_body(20_000.0, 20_000.0, repeat=2), 8)
        assert run.utilizations() == pytest.approx(
            [1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0]
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            step_body(0.0, 1.0)
        with pytest.raises(ValueError):
            step_body(1.0, -1.0)


class TestCycleDemand:
    def test_meets_period_at_full_speed(self):
        work = Work(cpu_cycles=206.4 * 5_000.0)  # 5 ms at 206.4
        run = run_body(cycle_demand_body(work, 20_000.0, 200_000.0), 20)
        jobs = run.events_of_kind("job")
        assert len(jobs) == 10
        assert all(j.on_time for j in jobs)

    def test_overruns_at_low_speed(self):
        work = Work(cpu_cycles=206.4 * 15_000.0)  # 15 ms at 206.4 > 20 ms at 59
        run = run_body(cycle_demand_body(work, 20_000.0, 400_000.0), 40, mhz=59.0)
        jobs = run.events_of_kind("job")
        assert any(not j.on_time for j in jobs)

    def test_slower_clock_raises_utilization(self):
        work = Work(cpu_cycles=206.4 * 5_000.0)
        fast = run_body(cycle_demand_body(work, 20_000.0, 200_000.0), 20, mhz=206.4)
        slow = run_body(cycle_demand_body(work, 20_000.0, 200_000.0), 20, mhz=118.0)
        assert slow.mean_utilization() > fast.mean_utilization()

    def test_validation(self):
        with pytest.raises(ValueError):
            cycle_demand_body(Work(cpu_cycles=1.0), 0.0, 100.0)
