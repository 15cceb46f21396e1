"""Tests for the Kaffe JVM behaviours."""

import pytest

from repro.hw.itsy import ItsyConfig, ItsyMachine
from repro.kernel.config import KernelConfig
from repro.kernel.scheduler import Kernel
from repro.workloads.java import JavaConfig, jit_warmup_work, spawn_jvm_poller

Q = 10_000.0


def run_poller(seconds=2.0, mhz=206.4):
    kernel = Kernel(
        ItsyMachine(ItsyConfig(initial_mhz=mhz)),
        config=KernelConfig(sched_overhead_us=0.0),
    )
    spawn_jvm_poller(kernel, seed=0, cfg=JavaConfig(duration_s=seconds))
    return kernel.run(seconds * 1e6)


class TestPoller:
    def test_constant_low_background_load(self):
        run = run_poller()
        # ~1 ms of work roughly every 30-40 ms -> a few percent utilization.
        assert 0.01 < run.mean_utilization() < 0.10

    def test_poll_period_visible_in_quanta(self):
        run = run_poller()
        busy = [q.utilization > 0.001 for q in run.quanta]
        # Polling touches a quantum every ~3-4 quanta, never all of them.
        assert 0.2 < sum(busy) / len(busy) < 0.9

    def test_polls_cost_more_at_low_clock(self):
        fast = run_poller(mhz=206.4)
        slow = run_poller(mhz=59.0)
        assert slow.mean_utilization() > 1.5 * fast.mean_utilization()

    def test_poller_stops_at_duration(self):
        run_poller(seconds=1.0)
        # run two extra quanta beyond the poller's life: no activity there
        kernel = Kernel(
            ItsyMachine(ItsyConfig()), config=KernelConfig(sched_overhead_us=0.0)
        )
        spawn_jvm_poller(kernel, seed=0, cfg=JavaConfig(duration_s=0.5))
        long_run = kernel.run(1.0e6)
        tail = [q.utilization for q in long_run.quanta[60:]]
        assert all(u == 0.0 for u in tail)


class TestJitWarmup:
    def test_warmup_scales_with_magnitude(self):
        cfg = JavaConfig()
        small = jit_warmup_work(cfg, 0.5)
        large = jit_warmup_work(cfg, 2.0)
        assert large.cpu_cycles == pytest.approx(4 * small.cpu_cycles)

    def test_warmup_duration_matches_config(self):
        from repro.hw.memory import SA1100_MEMORY_TIMINGS
        from repro.workloads.base import FULL_SPEED

        cfg = JavaConfig(jit_unit_us_at_206=100_000.0)
        w = jit_warmup_work(cfg, 1.0)
        assert w.duration_us(FULL_SPEED, SA1100_MEMORY_TIMINGS) == pytest.approx(
            100_000.0
        )
