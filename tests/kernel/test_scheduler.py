"""Tests for the kernel scheduler simulator."""

import pytest

from repro.hw.itsy import ItsyConfig, ItsyMachine
from repro.hw.work import Work
from repro.kernel.config import KernelConfig
from repro.kernel.governor import ConstantGovernor, Governor
from repro.kernel.process import (
    Compute,
    Exit,
    Sleep,
    SleepUntil,
    SpinUntil,
    Yield,
)
from repro.kernel.scheduler import Kernel

Q = 10_000.0
NO_OVERHEAD = KernelConfig(sched_overhead_us=0.0)


def make_kernel(governor=None, config=NO_OVERHEAD, mhz=206.4):
    return Kernel(ItsyMachine(ItsyConfig(initial_mhz=mhz)), governor, config)


def cpu_work_us(us, mhz=206.4):
    """Pure-CPU work lasting `us` microseconds at the given frequency."""
    return Work(cpu_cycles=us * mhz)


class TestIdleSystem:
    def test_empty_system_is_fully_idle(self):
        kernel = make_kernel()
        run = kernel.run(10 * Q)
        assert len(run.quanta) == 10
        assert run.mean_utilization() == 0.0
        assert run.duration_us == 10 * Q

    def test_duration_rounds_up_to_whole_quanta(self):
        kernel = make_kernel()
        run = kernel.run(25_000.0)
        assert run.duration_us == 30_000.0
        assert len(run.quanta) == 3

    def test_idle_power_is_nap_power(self):
        kernel = make_kernel()
        machine = kernel.machine
        from repro.hw.power import CoreState

        expected = machine.power_w(CoreState.NAP)
        run = kernel.run(5 * Q)
        assert run.mean_power_w() == pytest.approx(expected)

    def test_single_use(self):
        kernel = make_kernel()
        kernel.run(Q)
        with pytest.raises(RuntimeError):
            kernel.run(Q)
        with pytest.raises(RuntimeError):
            kernel.spawn("late", lambda ctx: iter(()))

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError):
            make_kernel().run(0.0)


class TestUtilizationAccounting:
    def test_fully_busy_process(self):
        kernel = make_kernel()

        def body(ctx):
            yield SpinUntil(5 * Q)

        kernel.spawn("busy", body)
        run = kernel.run(5 * Q)
        assert run.mean_utilization() == pytest.approx(1.0)

    def test_half_busy_quantum(self):
        kernel = make_kernel()

        def body(ctx):
            yield Compute(cpu_work_us(5_000.0))
            yield Exit()

        kernel.spawn("half", body)
        run = kernel.run(Q)
        assert run.quanta[0].utilization == pytest.approx(0.5)

    def test_compute_spans_quanta(self):
        kernel = make_kernel()

        def body(ctx):
            yield Compute(cpu_work_us(25_000.0))

        kernel.spawn("long", body)
        run = kernel.run(3 * Q)
        utils = run.utilizations()
        assert utils[0] == pytest.approx(1.0)
        assert utils[1] == pytest.approx(1.0)
        assert utils[2] == pytest.approx(0.5)

    def test_spin_counts_as_busy(self):
        kernel = make_kernel()

        def body(ctx):
            yield SpinUntil(7_000.0)
            yield Exit()

        kernel.spawn("spinner", body)
        run = kernel.run(Q)
        assert run.quanta[0].utilization == pytest.approx(0.7)

    def test_scheduler_overhead_charged(self):
        kernel = make_kernel(config=KernelConfig(sched_overhead_us=6.0))
        run = kernel.run(2 * Q)
        # quantum 1 has no overhead (it is charged at each closing tick,
        # into the following quantum); quantum 2 carries 6 us.
        assert run.quanta[0].busy_us == pytest.approx(0.0)
        assert run.quanta[1].busy_us == pytest.approx(6.0)

    def test_overhead_matches_paper_fraction(self):
        # ~6 us per 10 ms is the paper's 0.06 %.
        cfg = KernelConfig()
        assert cfg.sched_overhead_us / cfg.quantum_us == pytest.approx(0.0006)


class TestSleepSemantics:
    def test_sleep_wakes_on_tick_boundary(self):
        wakes = []

        def body(ctx):
            yield Compute(cpu_work_us(1_000.0))
            yield Sleep(12_000.0)  # from ~1000us: wake at tick 20000
            wakes.append(ctx.now_us)
            yield Exit()

        kernel = make_kernel()
        kernel.spawn("sleeper", body)
        kernel.run(4 * Q)
        assert wakes == [20_000.0]

    def test_sleep_until_exact_tick(self):
        wakes = []

        def body(ctx):
            yield SleepUntil(30_000.0)
            wakes.append(ctx.now_us)
            yield Exit()

        kernel = make_kernel()
        kernel.spawn("sleeper", body)
        kernel.run(5 * Q)
        assert wakes == [30_000.0]

    def test_sleep_until_past_time_waits_one_tick(self):
        wakes = []

        def body(ctx):
            yield Compute(cpu_work_us(5_000.0))
            yield SleepUntil(1_000.0)  # already passed
            wakes.append(ctx.now_us)
            yield Exit()

        kernel = make_kernel()
        kernel.spawn("sleeper", body)
        kernel.run(3 * Q)
        assert wakes == [10_000.0]

    def test_zero_sleep_is_yield(self):
        order = []

        def a(ctx):
            order.append("a")
            yield Sleep(0.0)
            order.append("a2")
            yield Exit()

        def b(ctx):
            order.append("b")
            yield Exit()

        kernel = make_kernel()
        kernel.spawn("a", a)
        kernel.spawn("b", b)
        kernel.run(Q)
        assert order == ["a", "b", "a2"]


class TestSpinSemantics:
    def test_spin_has_microsecond_precision(self):
        times = []

        def body(ctx):
            yield SpinUntil(12_345.0)
            times.append(ctx.now_us)
            yield Exit()

        kernel = make_kernel()
        kernel.spawn("spinner", body)
        kernel.run(2 * Q)
        assert times == [12_345.0]

    def test_spin_survives_preemption(self):
        times = []

        def spinner(ctx):
            yield SpinUntil(25_000.0)
            times.append(ctx.now_us)
            yield Exit()

        def competitor(ctx):
            yield SpinUntil(25_000.0)
            yield Exit()

        kernel = make_kernel()
        kernel.spawn("s", spinner)
        kernel.spawn("c", competitor)
        kernel.run(4 * Q)
        assert times == [25_000.0]

    def test_spin_in_the_past_is_noop(self):
        def body(ctx):
            yield Compute(cpu_work_us(3_000.0))
            yield SpinUntil(1_000.0)
            ctx.emit("after")
            yield Exit()

        kernel = make_kernel()
        kernel.spawn("p", body)
        run = kernel.run(Q)
        assert run.events_of_kind("after")[0].time_us == pytest.approx(3_000.0)


class TestRoundRobin:
    def test_two_busy_processes_share_alternating_quanta(self):
        log_cfg = KernelConfig(sched_overhead_us=0.0, record_sched_log=True)
        kernel = make_kernel(config=log_cfg)

        def busy(ctx):
            yield SpinUntil(6 * Q)

        kernel.spawn("p1", busy)
        kernel.spawn("p2", busy)
        run = kernel.run(6 * Q)
        picked = [d.name for d in run.sched_log]
        assert picked == ["p1", "p2", "p1", "p2", "p1", "p2"]

    def test_blocked_process_frees_quantum_remainder(self):
        kernel = make_kernel()

        def short(ctx):
            yield Compute(cpu_work_us(2_000.0))
            yield Exit()

        def longer(ctx):
            yield Compute(cpu_work_us(4_000.0))
            yield Exit()

        kernel.spawn("short", short)
        kernel.spawn("longer", longer)
        run = kernel.run(Q)
        assert run.quanta[0].utilization == pytest.approx(0.6)

    def test_exit_removes_process(self):
        kernel = make_kernel()

        def body(ctx):
            yield Compute(cpu_work_us(1_000.0))
            yield Exit()

        kernel.spawn("p", body)
        run = kernel.run(3 * Q)
        assert run.utilizations() == pytest.approx([0.1, 0.0, 0.0])

    def test_generator_return_acts_as_exit(self):
        kernel = make_kernel()

        def body(ctx):
            yield Compute(cpu_work_us(1_000.0))

        kernel.spawn("p", body)
        run = kernel.run(2 * Q)
        assert run.utilizations() == pytest.approx([0.1, 0.0])


class TestGovernorIntegration:
    def test_constant_governor_applies_once(self):
        kernel = make_kernel(governor=ConstantGovernor(step_index=0))
        run = kernel.run(5 * Q)
        assert run.clock_changes == 1
        assert run.freq_changes[0].from_mhz == pytest.approx(206.4)
        assert run.freq_changes[0].to_mhz == pytest.approx(59.0)
        # change happens at the first tick, so quantum 1 is still 206.4
        assert run.quanta[0].mhz == pytest.approx(206.4)
        assert run.quanta[1].mhz == pytest.approx(59.0)

    def test_frequency_stall_charged(self):
        kernel = make_kernel(governor=ConstantGovernor(step_index=0))
        run = kernel.run(2 * Q)
        assert run.clock_stall_us == pytest.approx(200.0)
        # The stall is accounted as busy time of the following quantum.
        assert run.quanta[1].busy_us == pytest.approx(200.0)

    def test_governor_sees_previous_quantum_utilization(self):
        seen = []

        class Spy(Governor):
            def on_tick(self, info):
                seen.append(info.utilization)
                return None

        kernel = make_kernel(governor=Spy())

        def body(ctx):
            yield Compute(cpu_work_us(4_000.0))
            yield Exit()

        kernel.spawn("p", body)
        # The terminal tick only closes the last quantum (no governor
        # call), so run three quanta to observe two decisions.
        kernel.run(3 * Q)
        assert seen[0] == pytest.approx(0.4)
        assert seen[1] == pytest.approx(0.0)

    def test_work_stretches_after_downclock(self):
        kernel = make_kernel(governor=ConstantGovernor(step_index=0))

        def body(ctx):
            # 30 ms of CPU at 206.4; the governor drops to 59 MHz at the
            # first tick, so the tail runs 206.4/59 = 3.5x slower.
            yield Compute(cpu_work_us(30_000.0))
            ctx.emit("done")
            yield Exit()

        kernel.spawn("p", body)
        run = kernel.run(100 * Q)
        done = run.events_of_kind("done")[0]
        # 10 ms at 206.4, stall 200 us, then 20 ms * 3.4983 at 59.
        expected = 10_000.0 + 200.0 + 20_000.0 * (206.4 / 59.0)
        assert done.time_us == pytest.approx(expected, rel=1e-6)


class TestLivelockGuards:
    def test_yield_ping_pong_detected(self):
        kernel = make_kernel()

        def body(ctx):
            while True:
                yield Yield()

        kernel.spawn("a", body)
        kernel.spawn("b", body)
        with pytest.raises(RuntimeError):
            kernel.run(Q)

    def test_zero_compute_loop_detected(self):
        kernel = make_kernel()

        def body(ctx):
            while True:
                yield Compute(Work())

        kernel.spawn("spin0", body)
        with pytest.raises(RuntimeError):
            kernel.run(Q)


class TestDeterminism:
    def test_identical_runs_identical_results(self):
        def build():
            kernel = make_kernel()

            def body(ctx):
                for n in range(20):
                    yield Compute(cpu_work_us(3_000.0))
                    yield Sleep(7_000.0)

            kernel.spawn("p", body)
            return kernel.run(50 * Q)

        r1, r2 = build(), build()
        assert r1.utilizations() == r2.utilizations()
        assert r1.energy_joules() == pytest.approx(r2.energy_joules())
