"""Stress and scale tests: fairness, long runs, crowded systems."""

import pytest

from repro.core.catalog import best_policy, constant_speed
from repro.hw.itsy import ItsyConfig, ItsyMachine
from repro.hw.work import Work
from repro.kernel.config import KernelConfig
from repro.kernel.process import Compute, Exit, SpinUntil
from repro.kernel.scheduler import Kernel
from repro.measure.runner import run_workload
from repro.workloads.mpeg import MpegConfig, mpeg_workload

Q = 10_000.0


class TestFairness:
    def test_round_robin_shares_evenly_among_many(self):
        """Eight CPU-bound processes each get ~1/8 of the machine."""
        kernel = Kernel(
            ItsyMachine(ItsyConfig()), config=KernelConfig(sched_overhead_us=0.0)
        )
        finished = {}

        def make_body(name):
            def body(ctx):
                yield Compute(Work(cpu_cycles=206.4 * 100_000.0))  # 100 ms
                finished[name] = ctx.now_us
                yield Exit()

            return body

        for i in range(8):
            kernel.spawn(f"p{i}", make_body(f"p{i}"))
        kernel.run(1000 * Q)
        assert len(finished) == 8
        # All finish within one quantum of each other around 800 ms.
        times = sorted(finished.values())
        assert times[-1] - times[0] <= 8 * Q
        assert times[-1] == pytest.approx(800_000.0, abs=2 * Q)

    def test_spinners_cannot_starve_computers(self):
        kernel = Kernel(
            ItsyMachine(ItsyConfig()), config=KernelConfig(sched_overhead_us=0.0)
        )
        done = []

        def spinner(ctx):
            yield SpinUntil(100 * Q)
            yield Exit()

        def computer(ctx):
            yield Compute(Work(cpu_cycles=206.4 * 50_000.0))  # 50 ms
            done.append(ctx.now_us)
            yield Exit()

        kernel.spawn("spinner", spinner)
        kernel.spawn("computer", computer)
        kernel.run(100 * Q)
        # The computer gets every other quantum: 50 ms of demand completes
        # in ~100 ms of wall clock despite the spinner.
        assert done and done[0] == pytest.approx(10 * Q, abs=3 * Q)


class TestLongRuns:
    def test_five_minute_mpeg_under_best_policy(self):
        """Long-run stability: no drift, no misses, bounded accounting."""
        cfg = MpegConfig(duration_s=300.0)
        res = run_workload(mpeg_workload(cfg), best_policy, seed=0, use_daq=False)
        assert not res.missed
        assert len(res.run.quanta) == 30_000
        frames = res.run.events_of_kind("frame")
        assert len(frames) == cfg.n_frames
        # lateness stays bounded throughout (no slow drift)
        last_quarter = [e.lateness_us for e in frames[-1000:]]
        assert max(last_quarter) < cfg.sync_tolerance_us

    def test_energy_scales_linearly_with_duration(self):
        short = run_workload(
            mpeg_workload(MpegConfig(duration_s=15.0, run_scale_sigma=0.0)),
            lambda: constant_speed(206.4),
            seed=0,
            use_daq=False,
        )
        long = run_workload(
            mpeg_workload(MpegConfig(duration_s=60.0, run_scale_sigma=0.0)),
            lambda: constant_speed(206.4),
            seed=0,
            use_daq=False,
        )
        assert long.exact_energy_j == pytest.approx(4 * short.exact_energy_j, rel=0.02)


class TestCrowdedSystem:
    def test_all_four_workloads_share_one_machine(self):
        """Everything at once: the kernel stays sound under the union of
        all paper workloads on a single Itsy."""
        from repro.workloads.chess import ChessConfig, setup_chess
        from repro.workloads.editor import EditorConfig, setup_editor
        from repro.workloads.mpeg import setup_mpeg
        from repro.workloads.web import WebConfig, setup_web

        kernel = Kernel(ItsyMachine(ItsyConfig()), governor=best_policy())
        setup_mpeg(kernel, 0, MpegConfig(duration_s=30.0))
        setup_web(kernel, 0, WebConfig(duration_s=30.0))
        setup_chess(kernel, 0, ChessConfig(duration_s=30.0))
        setup_editor(kernel, 0, EditorConfig(duration_s=30.0))
        run = kernel.run(30_000_000.0)

        # accounting invariants hold under heavy contention
        assert all(0.0 <= q.utilization <= 1.0 for q in run.quanta)
        segments = list(run.timeline)
        for (s1, e1, _), (s2, _, __) in zip(segments, segments[1:]):
            assert abs(e1 - s2) < 1e-6
        # the machine is saturated: this much load cannot fit
        assert run.mean_utilization() > 0.9
