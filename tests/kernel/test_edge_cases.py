"""Scheduler edge cases: wake ordering, run-end boundaries, spawn order,
and the zero-progress guards (on both kernel cores)."""

import pytest

from repro.hw.itsy import ItsyConfig, ItsyMachine
from repro.hw.work import Work
from repro.kernel.config import KernelConfig
from repro.kernel.fastpath import FastKernel
from repro.kernel.process import Compute, Exit, Sleep, SleepUntil, SpinUntil, Yield
from repro.kernel.scheduler import Kernel

Q = 10_000.0
CFG = KernelConfig(sched_overhead_us=0.0)


def make_kernel(fastpath: bool = False):
    machine = ItsyMachine(ItsyConfig())
    if fastpath:
        return FastKernel(machine, config=CFG)
    return Kernel(machine, config=CFG)


class TestWakeOrdering:
    def test_simultaneous_wakes_run_in_pid_order(self):
        order = []

        def sleeper(name):
            def body(ctx):
                yield SleepUntil(30_000.0)
                order.append(name)
                yield Exit()

            return body

        kernel = make_kernel()
        kernel.spawn("a", sleeper("a"))  # pid 1
        kernel.spawn("b", sleeper("b"))  # pid 2
        kernel.spawn("c", sleeper("c"))  # pid 3
        kernel.run(5 * Q)
        assert order == ["a", "b", "c"]

    def test_earlier_wake_runs_first(self):
        order = []

        def sleeper(name, wake):
            def body(ctx):
                yield SleepUntil(wake)
                order.append(name)
                yield Exit()

            return body

        kernel = make_kernel()
        kernel.spawn("late", sleeper("late", 40_000.0))
        kernel.spawn("early", sleeper("early", 20_000.0))
        kernel.run(6 * Q)
        assert order == ["early", "late"]


class TestRunEndBoundaries:
    def test_sleep_beyond_run_end_is_harmless(self):
        kernel = make_kernel()

        def body(ctx):
            yield Sleep(10 * Q)  # wake far past the 2-quantum run
            ctx.emit("woke")
            yield Exit()

        kernel.spawn("p", body)
        run = kernel.run(2 * Q)
        assert run.events_of_kind("woke") == []
        assert len(run.quanta) == 2

    def test_compute_truncated_at_run_end(self):
        kernel = make_kernel()

        def body(ctx):
            yield Compute(Work(cpu_cycles=206.4 * 100_000.0))  # 100 ms
            ctx.emit("done")
            yield Exit()

        kernel.spawn("p", body)
        run = kernel.run(3 * Q)
        assert run.events_of_kind("done") == []
        assert run.mean_utilization() == pytest.approx(1.0)

    def test_event_exactly_at_run_end_is_recorded(self):
        kernel = make_kernel()

        def body(ctx):
            yield Compute(Work(cpu_cycles=206.4 * 2 * Q))  # exactly 2 quanta
            ctx.emit("done")
            yield Exit()

        kernel.spawn("p", body)
        run = kernel.run(2 * Q)
        # The compute fills the run exactly; the emit would land at the
        # boundary -- whether it fires depends on float rounding, but the
        # accounting must be exact either way.
        assert run.mean_utilization() == pytest.approx(1.0)


@pytest.mark.parametrize("fastpath", [False, True], ids=["reference", "fastpath"])
class TestZeroProgressGuards:
    """`_MAX_ZERO_PROGRESS_ACTIONS` turns runaway bodies into clear errors.

    A buggy process body that never advances simulated time (empty compute
    requests, already-expired spins, or endless zero-duration yields) must
    not hang the simulator: the guard raises a RuntimeError naming the
    culprit and the simulated time.  Both kernel cores behave identically.
    """

    def test_empty_compute_storm_names_the_process(self, fastpath):
        kernel = make_kernel(fastpath)

        def body(ctx):
            while True:
                yield Compute(Work())  # zero cycles: no time can pass

        kernel.spawn("looper", body)
        with pytest.raises(
            RuntimeError,
            match=r"process looper \(pid 1\) makes no progress at t=0\.0 us",
        ):
            kernel.run(2 * Q)

    def test_expired_spin_storm_names_the_process(self, fastpath):
        kernel = make_kernel(fastpath)

        def body(ctx):
            while True:
                yield SpinUntil(0.0)  # already in the past: zero duration

        kernel.spawn("spinner", body)
        with pytest.raises(
            RuntimeError,
            match=r"process spinner \(pid 1\) makes no progress at t=0\.0 us",
        ):
            kernel.run(2 * Q)

    def test_yield_storm_trips_the_simulation_guard(self, fastpath):
        # A pure Yield loop bounces through the run queue without entering
        # the per-process action loop, so the outer simulation-level guard
        # catches it instead.
        kernel = make_kernel(fastpath)

        def body(ctx):
            while True:
                yield Yield()

        kernel.spawn("yielder", body)
        with pytest.raises(
            RuntimeError, match=r"simulation makes no progress at t=0\.0 us"
        ):
            kernel.run(2 * Q)

    def test_zero_duration_sleep_storm_trips_the_simulation_guard(self, fastpath):
        kernel = make_kernel(fastpath)

        def body(ctx):
            while True:
                yield Sleep(0.0)  # degenerates to a yield

        kernel.spawn("napper", body)
        with pytest.raises(
            RuntimeError, match=r"simulation makes no progress at t=0\.0 us"
        ):
            kernel.run(2 * Q)

    def test_guard_reports_the_simulated_time(self, fastpath):
        kernel = make_kernel(fastpath)

        def body(ctx):
            yield SleepUntil(3 * Q)
            while True:
                yield Compute(Work())

        kernel.spawn("late-looper", body)
        with pytest.raises(
            RuntimeError,
            match=r"process late-looper \(pid 1\) makes no progress "
                  r"at t=30000\.0 us",
        ):
            kernel.run(6 * Q)

    def test_bounded_zero_progress_is_tolerated(self, fastpath):
        # Fewer than the guard limit of empty actions is legal; the body
        # then proceeds and the run completes normally.
        kernel = make_kernel(fastpath)

        def body(ctx):
            for _ in range(100):
                yield Compute(Work())
            yield Compute(Work(cpu_cycles=206.4 * 100.0))
            ctx.emit("done")
            yield Exit()

        kernel.spawn("bursty", body)
        run = kernel.run(2 * Q)
        assert len(run.events_of_kind("done")) == 1


class LongSleep(Sleep):
    """A subclass of an action class, which makes it no action."""


NOT_AN_ACTION = object()


class TestActionDispatch:
    """Both kernel cores dispatch on the six action classes exactly, so
    anything else a process yields ends the run with the same error."""

    @pytest.mark.parametrize(
        "action", [LongSleep(Q), NOT_AN_ACTION], ids=["sleep-subclass", "object"]
    )
    def test_both_cores_reject_alike(self, action):
        errors = []
        for fastpath in (False, True):
            kernel = make_kernel(fastpath)

            def body(ctx):
                yield Compute(Work(cpu_cycles=206.4 * 100.0))
                yield action

            kernel.spawn("odd", body)
            with pytest.raises(TypeError) as info:
                kernel.run(4 * Q)
            errors.append((type(info.value), str(info.value)))
        assert errors == [(TypeError, f"unknown process action {action!r}")] * 2


class TestSpawnSemantics:
    def test_spawn_order_sets_pid_order(self):
        kernel = make_kernel()
        p1 = kernel.spawn("first", lambda ctx: iter(()))
        p2 = kernel.spawn("second", lambda ctx: iter(()))
        assert p1.pid == 1
        assert p2.pid == 2

    def test_empty_process_body_exits_cleanly(self):
        kernel = make_kernel()
        kernel.spawn("noop", lambda ctx: iter(()))
        run = kernel.run(2 * Q)
        assert run.mean_utilization() == 0.0

    def test_many_short_lived_processes(self):
        kernel = make_kernel()
        for i in range(50):
            def body(ctx, i=i):
                yield Compute(Work(cpu_cycles=206.4 * 100.0))
                ctx.emit("done", payload=float(i))
                yield Exit()

            kernel.spawn(f"p{i}", body)
        run = kernel.run(10 * Q)
        assert len(run.events_of_kind("done")) == 50
