"""Tests for workload building blocks."""

import math
import random

import pytest

from repro.hw.clocksteps import SA1100_CLOCK_TABLE
from repro.workloads.base import (
    AUDIO_CHUNK_PROFILE,
    FULL_SPEED,
    JAVA_PROFILE,
    MPEG_FRAME_PROFILE,
    WorkProfile,
    jitter_factor,
)

STEP_132 = SA1100_CLOCK_TABLE.step_for_mhz(132.7)
STEP_206 = SA1100_CLOCK_TABLE.max_step


class TestWorkProfile:
    def test_work_scales_components(self):
        p = WorkProfile(100.0, 10.0, 1.0)
        w = p.work(2.0)
        assert w.cpu_cycles == 200.0
        assert w.mem_refs == 20.0
        assert w.cache_refs == 2.0

    def test_work_for_duration_round_trips(self):
        p = JAVA_PROFILE
        w = p.work_for_duration(5_000.0, STEP_206)
        from repro.hw.memory import SA1100_MEMORY_TIMINGS

        assert w.duration_us(STEP_206, SA1100_MEMORY_TIMINGS) == pytest.approx(5_000.0)

    def test_work_for_duration_negative_rejected(self):
        with pytest.raises(ValueError):
            JAVA_PROFILE.work_for_duration(-1.0, STEP_206)

    def test_full_speed_is_206(self):
        assert FULL_SPEED.mhz == pytest.approx(206.4)


class TestProfileCalibration:
    """The work-mix calibrations DESIGN.md relies on."""

    def test_mpeg_frame_near_60ms_at_132(self):
        d = MPEG_FRAME_PROFILE.unit_duration_us(STEP_132)
        assert 58_000 < d < 63_000

    def test_mpeg_frame_near_47ms_at_206(self):
        d = MPEG_FRAME_PROFILE.unit_duration_us(STEP_206)
        assert 45_000 < d < 49_000

    def test_mpeg_memory_boundness(self):
        # Cycle inflation from 132.7 to 206.4 MHz should be ~15-25 %
        # (behind Figure 9's shape).
        from repro.hw.memory import SA1100_MEMORY_TIMINGS

        w = MPEG_FRAME_PROFILE.work(1.0)
        c132 = w.total_cycles(STEP_132, SA1100_MEMORY_TIMINGS)
        c206 = w.total_cycles(STEP_206, SA1100_MEMORY_TIMINGS)
        assert 1.15 < c206 / c132 < 1.25

    def test_audio_chunk_small(self):
        d = AUDIO_CHUNK_PROFILE.unit_duration_us(STEP_132)
        assert 1_500 < d < 3_500

    def test_java_most_memory_bound(self):
        from repro.hw.memory import SA1100_MEMORY_TIMINGS

        def inflation(profile):
            w = profile.work(1.0)
            return w.total_cycles(STEP_206, SA1100_MEMORY_TIMINGS) / w.total_cycles(
                STEP_132, SA1100_MEMORY_TIMINGS
            )

        assert inflation(JAVA_PROFILE) > inflation(MPEG_FRAME_PROFILE)


class TestJitter:
    def test_jitter_centred_and_small(self):
        rng = random.Random(0)
        samples = [jitter_factor(rng, 0.02) for _ in range(4000)]
        mean = sum(samples) / len(samples)
        assert mean == pytest.approx(1.0, abs=0.005)
        assert all(0.9 <= s <= 1.1 for s in samples)

    def test_jitter_clipped_at_4_sigma(self):
        rng = random.Random(0)
        samples = [jitter_factor(rng, 0.05) for _ in range(10000)]
        assert max(samples) <= 1.2 + 1e-12
        assert min(samples) >= 0.8 - 1e-12

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            jitter_factor(random.Random(0), -0.1)

    def test_zero_sigma_is_deterministic(self):
        rng = random.Random(0)
        assert jitter_factor(rng, 0.0) == 1.0

    @pytest.mark.parametrize("sigma", [0.0, 0.02, 0.1])
    def test_clip_is_exactly_max_of_min(self, sigma):
        # Random draws never land on a bound; a stub draw can.
        class Draw:
            def __init__(self, g):
                self.g = g

            def gauss(self, mu, sd):
                assert (mu, sd) == (1.0, sigma)
                return self.g

        lo, hi = 1.0 - 4.0 * sigma, 1.0 + 4.0 * sigma
        draws = [
            lo - 0.5, math.nextafter(lo, 0.0), lo, math.nextafter(lo, 2.0),
            (lo + hi) / 2, 1.0 + sigma, math.nextafter(hi, 0.0), hi,
            math.nextafter(hi, 2.0), hi + 0.5,
        ]
        for g in draws:
            got = jitter_factor(Draw(g), sigma)
            assert repr(got) == repr(max(lo, min(hi, g))), g

