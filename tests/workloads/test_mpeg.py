"""Tests for the MPEG workload (short runs for speed)."""

import pytest

from repro.core.catalog import constant_speed
from repro.hw.itsy import ItsyConfig, ItsyMachine
from repro.kernel.scheduler import Kernel
from repro.measure.runner import run_workload
from repro.workloads.mpeg import MpegConfig, mpeg_workload, setup_mpeg

SHORT = MpegConfig(duration_s=6.0)


def run_at(mhz, cfg=SHORT, seed=1):
    return run_workload(
        mpeg_workload(cfg), lambda: constant_speed(mhz), seed=seed, use_daq=False
    )


class TestConfig:
    def test_frame_interval(self):
        assert MpegConfig().frame_interval_us == pytest.approx(1e6 / 15)
        assert MpegConfig(fps=30.0).frame_interval_us == pytest.approx(1e6 / 30)

    def test_n_frames(self):
        assert MpegConfig().n_frames == 900
        assert SHORT.n_frames == 90

    def test_gop_scales_average_to_one(self):
        cfg = MpegConfig()
        mean = (cfg.i_scale + (cfg.gop - 1) * cfg.p_scale) / cfg.gop
        assert mean == pytest.approx(1.0, abs=0.01)


class TestPlaybackBehaviour:
    def test_all_frames_rendered(self):
        res = run_at(206.4)
        frames = res.run.events_of_kind("frame")
        assert len(frames) == SHORT.n_frames

    def test_on_time_at_full_speed(self):
        res = run_at(206.4)
        assert not res.missed

    def test_feasible_at_132(self):
        res = run_at(132.7)
        assert not res.missed

    def test_infeasible_at_118(self):
        res = run_at(118.0)
        assert res.missed
        # and the drift grows: last frame is much later than the first miss
        lateness = [e.lateness_us for e in res.run.events_of_kind("frame")]
        assert lateness[-1] > 100_000

    def test_utilization_rises_as_clock_falls(self):
        utils = [run_at(mhz).run.mean_utilization() for mhz in (206.4, 176.9, 132.7)]
        assert utils[0] < utils[1] < utils[2]

    def test_audio_chunks_emitted(self):
        res = run_at(206.4)
        chunks = res.run.events_of_kind("audio_chunk")
        assert len(chunks) == int(SHORT.duration_s * 1e6 / 100_000)
        assert all(c.on_time for c in chunks)


class TestElasticPlayer:
    """Pering-style elasticity: a stale frame is dropped, not decoded late."""

    ELASTIC = MpegConfig(duration_s=6.0, elastic=True)

    def test_elastic_drops_instead_of_drifting(self):
        res = run_at(103.2, cfg=self.ELASTIC, seed=0)
        drops = res.run.events_of_kind("frame_drop")
        rendered = res.run.events_of_kind("frame")
        assert drops  # too slow: frames get dropped
        # every frame is accounted for (the final one may be cut off by
        # the end of the simulated run)
        assert len(drops) + len(rendered) >= self.ELASTIC.n_frames - 1
        # and the rendered frames never drift: none is a frame interval
        # later than an inelastic player's first miss would allow
        interval = self.ELASTIC.frame_interval_us
        assert res.run.deadline_misses(2 * interval) == []
        inelastic = run_at(103.2, cfg=MpegConfig(duration_s=6.0), seed=0)
        assert inelastic.run.deadline_misses(2 * interval)

    def test_elastic_drops_nothing_when_feasible(self):
        res = run_at(206.4, cfg=self.ELASTIC, seed=0)
        assert not res.run.events_of_kind("frame_drop")


class TestSpinHeuristic:
    def test_spin_raises_utilization_near_optimum(self):
        cfg_spin = MpegConfig(duration_s=6.0, spin_enabled=True)
        cfg_nospin = MpegConfig(duration_s=6.0, spin_enabled=False)
        u_spin = run_at(132.7, cfg_spin).run.mean_utilization()
        u_nospin = run_at(132.7, cfg_nospin).run.mean_utilization()
        assert u_spin > u_nospin + 0.02

    def test_spin_negligible_at_full_speed(self):
        # At 206.4 MHz slack is usually > 12 ms, so the player sleeps.
        cfg_spin = MpegConfig(duration_s=6.0, spin_enabled=True)
        cfg_nospin = MpegConfig(duration_s=6.0, spin_enabled=False)
        u_spin = run_at(206.4, cfg_spin).run.mean_utilization()
        u_nospin = run_at(206.4, cfg_nospin).run.mean_utilization()
        assert u_spin == pytest.approx(u_nospin, abs=0.04)


class TestSetup:
    def test_two_processes_spawned(self):
        kernel = Kernel(ItsyMachine(ItsyConfig()))
        setup_mpeg(kernel, seed=0, cfg=SHORT)
        names = {p.name for p in kernel._procs.values()}
        assert names == {"mpeg_play", "wav_play"}

    def test_workload_descriptor(self):
        wl = mpeg_workload()
        assert wl.name == "MPEG"
        assert wl.duration_s == 60.0
        assert wl.duration_us == 60e6
        assert wl.tolerance_us == 80_000.0
