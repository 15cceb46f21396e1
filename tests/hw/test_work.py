"""Tests for the Work demand model."""

import pickle
from dataclasses import FrozenInstanceError

import pytest

from repro.hw.clocksteps import SA1100_CLOCK_TABLE
from repro.hw.memory import SA1100_MEMORY_TIMINGS
from repro.hw.work import Work

STEP_59 = SA1100_CLOCK_TABLE.min_step
STEP_132 = SA1100_CLOCK_TABLE.step_for_mhz(132.7)
STEP_206 = SA1100_CLOCK_TABLE.max_step
T = SA1100_MEMORY_TIMINGS


class TestBasics:
    def test_negative_components_rejected(self):
        with pytest.raises(ValueError):
            Work(cpu_cycles=-1.0)
        with pytest.raises(ValueError):
            Work(mem_refs=-1.0)
        with pytest.raises(ValueError):
            Work(cache_refs=-1.0)

    def test_empty(self):
        assert Work().is_empty
        assert not Work(cpu_cycles=1.0).is_empty

    def test_add(self):
        w = Work(1.0, 2.0, 3.0) + Work(10.0, 20.0, 30.0)
        assert w == Work(11.0, 22.0, 33.0)

    def test_scaled(self):
        w = Work(2.0, 4.0, 6.0).scaled(0.5)
        assert w == Work(1.0, 2.0, 3.0)

    def test_scaled_negative_rejected(self):
        with pytest.raises(ValueError):
            Work(1.0).scaled(-0.1)


class TestScaledConstruction:
    """``scaled`` fills the frozen value's dict without re-validating it;
    the result must be indistinguishable from a constructed ``Work``."""

    @pytest.mark.parametrize("factor", [0.0, 0.5, 1.0, 3.0])
    def test_equals_constructed_work(self, factor):
        c, m, ca = 5.05e6, 7.8e4, 4.5e4
        got = Work(c, m, ca).scaled(factor)
        want = Work(c * factor, m * factor, ca * factor)
        assert type(got) is Work
        assert got == want
        assert vars(got) == vars(want)
        assert list(vars(got)) == list(vars(want))  # field order
        assert hash(got) == hash(want)
        assert repr(got) == repr(want)
        assert pickle.dumps(got) == pickle.dumps(want)
        assert pickle.loads(pickle.dumps(got)) == want
        with pytest.raises(FrozenInstanceError):
            got.cpu_cycles = 1.0

    @pytest.mark.parametrize("factor", [-0.5, -1e-300, float("-inf")])
    def test_negative_factor_still_raises(self, factor):
        with pytest.raises(ValueError, match="non-negative"):
            Work(1.0, 2.0, 3.0).scaled(factor)


class TestTiming:
    def test_pure_cpu_scales_linearly_with_frequency(self):
        w = Work(cpu_cycles=206.4e6)  # one second at full speed
        assert w.duration_us(STEP_206, T) == pytest.approx(1e6)
        assert w.duration_us(STEP_59, T) == pytest.approx(1e6 * 206.4 / 59.0)

    def test_memory_work_scales_sublinearly(self):
        w = Work(mem_refs=1e5)
        d206 = w.duration_us(STEP_206, T)
        d59 = w.duration_us(STEP_59, T)
        # Frequency ratio is 3.5x but memory speedup is only (20/11)x less.
        assert d59 / d206 == pytest.approx((11 / 59.0) / (20 / 206.4))
        assert d59 / d206 < 2.0

    def test_total_cycles_uses_table3(self):
        w = Work(cpu_cycles=1000.0, mem_refs=10.0, cache_refs=5.0)
        assert w.total_cycles(STEP_132, T) == pytest.approx(1000 + 10 * 14 + 5 * 42)
        assert w.total_cycles(STEP_206, T) == pytest.approx(1000 + 10 * 20 + 5 * 69)

    def test_duration_is_cycles_over_mhz(self):
        w = Work(cpu_cycles=1327.0)
        assert w.duration_us(STEP_132, T) == pytest.approx(10.0)


class TestSplit:
    def test_split_zero_elapsed(self):
        w = Work(1000.0, 10.0, 5.0)
        done, remaining = w.split_at_us(0.0, STEP_206, T)
        assert done.is_empty
        assert remaining == w

    def test_split_full_elapsed(self):
        w = Work(1000.0, 10.0, 5.0)
        d = w.duration_us(STEP_206, T)
        done, remaining = w.split_at_us(d, STEP_206, T)
        assert done == w
        assert remaining.is_empty

    def test_split_preserves_mass(self):
        w = Work(1000.0, 10.0, 5.0)
        d = w.duration_us(STEP_132, T)
        done, remaining = w.split_at_us(d * 0.37, STEP_132, T)
        total = done + remaining
        assert total.cpu_cycles == pytest.approx(w.cpu_cycles)
        assert total.mem_refs == pytest.approx(w.mem_refs)
        assert total.cache_refs == pytest.approx(w.cache_refs)

    def test_split_preserves_mix(self):
        w = Work(1000.0, 10.0, 5.0)
        d = w.duration_us(STEP_132, T)
        done, _ = w.split_at_us(d * 0.5, STEP_132, T)
        assert done.cpu_cycles / w.cpu_cycles == pytest.approx(0.5)
        assert done.mem_refs / w.mem_refs == pytest.approx(0.5)
        assert done.cache_refs / w.cache_refs == pytest.approx(0.5)

    def test_split_negative_elapsed_rejected(self):
        with pytest.raises(ValueError):
            Work(1.0).split_at_us(-1.0, STEP_206, T)

    def test_remaining_runs_to_completion_across_steps(self):
        # Work split at one frequency completes correctly at another.
        w = Work(1e6, 1e4, 1e3)
        _, remaining = w.split_at_us(1000.0, STEP_206, T)
        d_rem = remaining.duration_us(STEP_59, T)
        done2, rem2 = remaining.split_at_us(d_rem, STEP_59, T)
        assert rem2.is_empty
        assert done2.cpu_cycles == pytest.approx(remaining.cpu_cycles)

    def test_sub_nanosecond_tail_counts_as_complete(self):
        w = Work(cpu_cycles=1e6)
        d = w.duration_us(STEP_206, T)
        _, remaining = w.split_at_us(d - 1e-4, STEP_206, T)
        assert remaining.is_empty
