"""Property-based tests for kernel invariants.

These drive the scheduler with randomized scripted workloads and check the
bookkeeping invariants that every run must satisfy: gap-free power
recording, utilization bounds, conservation of quanta, and the equality of
busy time and active power segments.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.itsy import ItsyConfig, ItsyMachine
from repro.hw.work import Work
from repro.kernel.config import KernelConfig
from repro.kernel.process import Compute, Exit, Sleep, SpinUntil
from repro.kernel.scheduler import Kernel

Q = 10_000.0

phases = st.lists(
    st.tuples(
        st.sampled_from(["compute", "sleep", "spin"]),
        st.floats(min_value=100.0, max_value=40_000.0),
    ),
    min_size=1,
    max_size=15,
)


def scripted(phase_list, mhz):
    def body(ctx):
        for kind, amount in phase_list:
            if kind == "compute":
                yield Compute(Work(cpu_cycles=amount * mhz))
            elif kind == "sleep":
                yield Sleep(amount)
            else:
                yield SpinUntil(ctx.now_us + amount)
        yield Exit()

    return body


def run_phases(phase_lists, quanta=60, mhz=206.4):
    kernel = Kernel(
        ItsyMachine(ItsyConfig(initial_mhz=mhz)),
        config=KernelConfig(sched_overhead_us=0.0),
    )
    for i, phase_list in enumerate(phase_lists):
        kernel.spawn(f"p{i}", scripted(phase_list, mhz))
    return kernel.run(quanta * Q)


class TestKernelInvariants:
    @settings(max_examples=25, deadline=None)
    @given(phase_lists=st.lists(phases, min_size=1, max_size=3))
    def test_power_timeline_has_no_gaps(self, phase_lists):
        run = run_phases(phase_lists)
        segments = list(run.timeline)
        assert segments[0][0] == 0.0
        for (s1, e1, _), (s2, _, _) in zip(segments, segments[1:]):
            assert abs(e1 - s2) < 1e-6
        assert abs(segments[-1][1] - run.duration_us) < 1e-6

    @settings(max_examples=25, deadline=None)
    @given(phase_lists=st.lists(phases, min_size=1, max_size=3))
    def test_utilizations_bounded(self, phase_lists):
        run = run_phases(phase_lists)
        for u in run.utilizations():
            assert 0.0 <= u <= 1.0

    @settings(max_examples=25, deadline=None)
    @given(phase_lists=st.lists(phases, min_size=1, max_size=3))
    def test_quanta_cover_duration(self, phase_lists):
        run = run_phases(phase_lists)
        assert len(run.quanta) * Q == run.duration_us
        ends = [q.end_us for q in run.quanta]
        assert ends == sorted(ends)

    @settings(max_examples=25, deadline=None)
    @given(phase_lists=st.lists(phases, min_size=1, max_size=2))
    def test_busy_time_never_exceeds_demand(self, phase_lists):
        """Total busy time is bounded by the scripted compute+spin time."""
        run = run_phases(phase_lists)
        demanded = sum(
            amount
            for phase_list in phase_lists
            for kind, amount in phase_list
            if kind in ("compute", "spin")
        )
        busy = sum(q.busy_us for q in run.quanta)
        assert busy <= demanded + 1.0

    @settings(max_examples=25, deadline=None)
    @given(phase_lists=st.lists(phases, min_size=1, max_size=2))
    def test_energy_bounded_by_extreme_powers(self, phase_lists):
        from repro.hw.power import CoreState

        run = run_phases(phase_lists)
        machine = ItsyMachine(ItsyConfig())
        lo = machine.power_w(CoreState.NAP)
        hi = machine.power_w(CoreState.ACTIVE)
        duration_s = run.duration_us * 1e-6
        assert lo * duration_s - 1e-9 <= run.energy_joules() <= hi * duration_s + 1e-9

    @settings(max_examples=15, deadline=None)
    @given(phase_lists=st.lists(phases, min_size=1, max_size=2), seed=st.integers(0, 3))
    def test_determinism(self, phase_lists, seed):
        r1 = run_phases(phase_lists)
        r2 = run_phases(phase_lists)
        assert r1.utilizations() == r2.utilizations()
        assert r1.energy_joules() == r2.energy_joules()
