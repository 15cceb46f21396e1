"""Tests for deadline-driven governors (§6 future work)."""

import pytest

from repro.core.deadline import (
    DeadlineGovernor,
    DeadlineSpec,
    SynthesizedDeadlineGovernor,
    dominant_period_quanta,
    slowest_feasible_step,
)
from repro.hw.rails import VOLTAGE_HIGH
from repro.hw.work import Work
from repro.kernel.governor import TickInfo
from repro.workloads.base import AUDIO_CHUNK_PROFILE, MPEG_FRAME_PROFILE


def mpeg_specs():
    return [
        DeadlineSpec("video", period_us=66_666.7, work=MPEG_FRAME_PROFILE.work(1.0)),
        DeadlineSpec("audio", period_us=100_000.0, work=AUDIO_CHUNK_PROFILE.work(1.0)),
    ]


def info(utilization=0.5, step_index=10, mhz=206.4, now_us=10_000.0):
    return TickInfo(
        now_us=now_us,
        utilization=utilization,
        busy_us=utilization * 10_000.0,
        quantum_us=10_000.0,
        step_index=step_index,
        mhz=mhz,
        volts=VOLTAGE_HIGH,
        max_step_index=10,
    )


class TestSlowestFeasibleStep:
    def test_mpeg_lands_at_132(self):
        """The declared MPEG demand solves to the paper's measured ideal."""
        step = slowest_feasible_step(mpeg_specs(), margin=1.05)
        assert step.mhz == pytest.approx(132.7)

    def test_higher_margin_picks_faster_step(self):
        low = slowest_feasible_step(mpeg_specs(), margin=1.0)
        high = slowest_feasible_step(mpeg_specs(), margin=1.18)
        assert high.mhz >= low.mhz

    def test_tiny_demand_sits_at_the_bottom(self):
        specs = [DeadlineSpec("tick", 100_000.0, Work(cpu_cycles=1000.0))]
        assert slowest_feasible_step(specs).mhz == 59.0

    def test_impossible_demand_pegs_to_max(self):
        specs = [DeadlineSpec("huge", 10_000.0, Work(cpu_cycles=1e10))]
        assert slowest_feasible_step(specs).mhz == 206.4

    def test_validation(self):
        with pytest.raises(ValueError):
            slowest_feasible_step([])
        with pytest.raises(ValueError):
            slowest_feasible_step(mpeg_specs(), margin=0.9)
        with pytest.raises(ValueError):
            DeadlineSpec("bad", 0.0, Work(cpu_cycles=1.0))


class TestDeadlineGovernor:
    def test_requests_feasible_step_once(self):
        gov = DeadlineGovernor(mpeg_specs(), margin=1.05)
        req = gov.on_tick(info())
        assert req is not None and req.step_index == 5  # 132.7 MHz
        assert gov.on_tick(info(step_index=5, mhz=132.7)) is None

    def test_declare_resolves_again(self):
        gov = DeadlineGovernor(mpeg_specs(), margin=1.05)
        gov.on_tick(info())
        gov.declare(
            DeadlineSpec("burst", 50_000.0, MPEG_FRAME_PROFILE.work(0.5))
        )
        req = gov.on_tick(info(step_index=5, mhz=132.7))
        assert req is not None and req.step_index > 5

    def test_retract_drops_demand(self):
        gov = DeadlineGovernor(mpeg_specs(), margin=1.05)
        gov.on_tick(info())
        gov.retract("video")
        req = gov.on_tick(info(step_index=5, mhz=132.7))
        assert req is not None and req.step_index == 0

    def test_declare_replaces_by_name(self):
        gov = DeadlineGovernor(mpeg_specs())
        gov.declare(DeadlineSpec("video", 66_666.7, Work(cpu_cycles=100.0)))
        assert len(gov.specs) == 2

    def test_no_specs_idles_at_bottom(self):
        gov = DeadlineGovernor([])
        req = gov.on_tick(info())
        assert req is not None and req.step_index == 0

    def test_reset(self):
        gov = DeadlineGovernor(mpeg_specs())
        gov.on_tick(info())
        gov.reset()
        assert gov.on_tick(info()) is not None


class TestPeriodDetection:
    def test_detects_rectangle_period(self):
        wave = ([1.0] * 9 + [0.0]) * 20
        assert dominant_period_quanta(wave, max_period=30) == 10

    def test_no_period_in_constant_signal(self):
        assert dominant_period_quanta([0.5] * 100, max_period=30) is None

    def test_no_period_in_noise(self):
        import random

        rng = random.Random(3)
        noise = [rng.random() for _ in range(200)]
        period = dominant_period_quanta(noise, max_period=40, min_strength=0.5)
        assert period is None

    def test_short_signal(self):
        assert dominant_period_quanta([1.0, 0.0], max_period=10) is None


class TestSynthesizedDeadlineGovernor:
    def test_settles_on_periodic_work_demand(self):
        """Closed loop against a real work-based periodic job: the
        governor detects the period and parks near the demand-covering
        step instead of pegging."""
        from repro.hw.itsy import ItsyConfig, ItsyMachine
        from repro.kernel.config import KernelConfig
        from repro.kernel.scheduler import Kernel
        from repro.workloads.synthetic import cycle_demand_body

        machine = ItsyMachine(ItsyConfig())
        gov = SynthesizedDeadlineGovernor(window=128, resolve_every=16)
        kernel = Kernel(machine, gov, KernelConfig(sched_overhead_us=0.0))
        # 60 ms of full-speed CPU work per 100 ms period.
        work = Work(cpu_cycles=60_000.0 * 206.4)
        kernel.spawn("job", cycle_demand_body(work, 100_000.0, 30_000_000.0))
        run = kernel.run(30_000_000.0)
        tail = run.quanta[1500:]
        mean_mhz = sum(q.mhz for q in tail) / len(tail)
        # demand = 123.8 MHz-equivalents * 1.25 margin -> the 162.2 step.
        assert 130.0 < mean_mhz < 200.0
        assert gov.synthesis_log
        # the detected period is ~10 quanta (100 ms / 10 ms)
        periods = [p for _, p, __ in gov.synthesis_log if p is not None]
        assert periods and min(periods) >= 5

    def test_falls_back_to_max_without_period(self):
        import random

        rng = random.Random(0)
        gov = SynthesizedDeadlineGovernor(window=64, resolve_every=16)
        idx, mhz = 5, 132.7
        for _ in range(100):
            req = gov.on_tick(
                info(utilization=rng.random(), step_index=idx, mhz=mhz)
            )
            if req is not None and req.step_index is not None:
                idx = req.step_index
        # With noise the honest answer is the safe one: full speed.
        assert idx == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            SynthesizedDeadlineGovernor(window=4)
        with pytest.raises(ValueError):
            SynthesizedDeadlineGovernor(margin=0.5)

    def test_reset(self):
        gov = SynthesizedDeadlineGovernor()
        gov.on_tick(info())
        gov.reset()
        assert gov.synthesis_log == []
