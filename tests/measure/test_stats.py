"""Tests for confidence-interval statistics."""

import math

import numpy as np
import pytest

from repro.measure.stats import (
    ConfidenceInterval,
    confidence_interval,
    mean_and_sem,
    t_ppf,
    t_sf,
)

#: Two-sided confidence levels the quantile is checked at; each gives
#: the upper and the lower quantile (1 ± level) / 2.
LEVELS = (0.5, 0.8, 0.9, 0.95, 0.99, 0.999)
PROBS = sorted({(1.0 + s * level) / 2.0 for level in LEVELS for s in (1, -1)})
ORACLE_DFS = (*range(1, 201), 500, 1000, 10_000)


class TestStudentT:
    def test_ppf_matches_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        bad = []
        for df in ORACLE_DFS:
            for p in PROBS:
                got, want = t_ppf(p, df), float(scipy_stats.t.ppf(p, df))
                if got != pytest.approx(want, rel=1e-10):
                    bad.append((df, p, got, want))
        assert not bad, bad[:5]

    @pytest.mark.parametrize("p", PROBS)
    def test_df1_is_cauchy(self, p):
        t = math.tan(math.pi * (p - 0.5))
        assert t_ppf(p, 1) == pytest.approx(t, rel=1e-12)
        assert t_sf(t, 1) == pytest.approx(1.0 - p, rel=1e-12)

    @pytest.mark.parametrize("p", PROBS)
    def test_df2_closed_form(self, p):
        t = (2.0 * p - 1.0) / math.sqrt(2.0 * p * (1.0 - p))
        assert t_ppf(p, 2) == pytest.approx(t, rel=1e-12)
        assert t_sf(t, 2) == pytest.approx(1.0 - p, rel=1e-12)

    @pytest.mark.parametrize("df", [1, 2, 3, 4.5, 7, 30, 200, 10_000])
    def test_sf_and_ppf_round_trip(self, df):
        for p in PROBS:
            assert t_sf(t_ppf(p, df), df) == pytest.approx(1.0 - p, rel=1e-11)
        for t in (1e-3, 0.5, 1.0, 2.5, 10.0):
            # ppf(sf(t)) is the lower quantile, -t, with no 1 - x to round.
            assert t_ppf(t_sf(t, df), df) == pytest.approx(-t, rel=1e-11)

    @pytest.mark.parametrize("df", [1, 2, 3, 9.5, 60, 10_000])
    def test_symmetric_about_zero(self, df):
        assert t_sf(0.0, df) == 0.5
        assert t_ppf(0.5, df) == 0.0
        for t in (0.1, 1.0, 3.0, 40.0):
            assert t_sf(-t, df) == pytest.approx(1.0 - t_sf(t, df), rel=1e-14)
        for p in PROBS:
            assert t_ppf(1.0 - p, df) == pytest.approx(-t_ppf(p, df), rel=1e-12)

    def test_infinite_t(self):
        assert t_sf(math.inf, 5) == 0.0
        assert t_sf(-math.inf, 5) == 1.0

    def test_validation(self):
        for p in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                t_ppf(p, 3)
        for df in (0, -1.0):
            with pytest.raises(ValueError):
                t_ppf(0.9, df)
            with pytest.raises(ValueError):
                t_sf(1.0, df)


class TestConfidenceInterval:
    def test_symmetric_around_mean(self):
        ci = confidence_interval([1.0, 2.0, 3.0])
        assert ci.mean == pytest.approx(2.0)
        assert ci.high - ci.mean == pytest.approx(ci.mean - ci.low)

    def test_known_t_value(self):
        # n=5, std=1 -> sem=1/sqrt(5), t(0.975, df=4)=2.7764
        values = [0.0, 1.0, 2.0, 3.0, 4.0]
        ci = confidence_interval(values)
        sem = np.std(values, ddof=1) / np.sqrt(5)
        assert ci.half_width == pytest.approx(2.7764 * sem, rel=1e-3)

    def test_tighter_with_more_samples(self):
        rng = np.random.default_rng(0)
        small = confidence_interval(rng.normal(10, 1, 5))
        large = confidence_interval(rng.normal(10, 1, 200))
        assert large.half_width < small.half_width

    def test_identical_values_give_zero_width(self):
        ci = confidence_interval([5.0, 5.0, 5.0])
        assert ci.low == ci.high == ci.mean == 5.0
        assert ci.relative_half_width == 0.0

    def test_relative_half_width(self):
        ci = ConfidenceInterval(mean=100.0, low=99.3, high=100.7, level=0.95, n=5)
        assert ci.relative_half_width == pytest.approx(0.007)

    def test_contains(self):
        ci = ConfidenceInterval(mean=2.0, low=1.0, high=3.0, level=0.95, n=3)
        assert ci.contains(2.5)
        assert not ci.contains(3.5)

    def test_overlaps(self):
        a = ConfidenceInterval(2.0, 1.0, 3.0, 0.95, 3)
        b = ConfidenceInterval(3.5, 2.5, 4.5, 0.95, 3)
        c = ConfidenceInterval(6.0, 5.0, 7.0, 0.95, 3)
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c) and not c.overlaps(a)

    def test_validation(self):
        with pytest.raises(ValueError):
            confidence_interval([1.0])
        with pytest.raises(ValueError):
            confidence_interval([1.0, 2.0], level=1.5)

    def test_level_changes_width(self):
        values = [1.0, 2.0, 3.0, 4.0]
        narrow = confidence_interval(values, level=0.80)
        wide = confidence_interval(values, level=0.99)
        assert wide.half_width > narrow.half_width


class TestMeanAndSem:
    """The pure-Python mean and standard error equal numpy's bit for bit,
    so intervals are unchanged from when numpy computed them."""

    @staticmethod
    def samples():
        # Every size from 2 to 600 covers all three branches of numpy's
        # pairwise summation: sequential below 8 values, 8 accumulators
        # up to 128, a recursive split above.  Magnitudes span 1e-3..1e6,
        # within a sample and across samples.
        rng = np.random.default_rng(2026)
        for n in range(2, 601):
            scale = 10.0 ** rng.uniform(-3.0, 6.0)
            yield scale * (1.0 + rng.uniform(0.0, 0.5) * rng.standard_normal(n))
            yield 10.0 ** rng.uniform(-3.0, 6.0, n)

    def test_bitwise_equal_to_numpy(self):
        for a in self.samples():
            mean, sem = mean_and_sem(a.tolist())
            assert mean == np.mean(a)
            assert sem == np.std(a, ddof=1) / np.sqrt(a.size)

    def test_interval_bitwise_equal_to_numpy_formula(self):
        for a in list(self.samples())[::50]:
            ci = confidence_interval(a)
            mean = float(np.mean(a))
            half = t_ppf(0.975, a.size - 1) * float(
                np.std(a, ddof=1) / np.sqrt(a.size)
            )
            assert (ci.mean, ci.low, ci.high) == (mean, mean - half, mean + half)

    def test_validation(self):
        with pytest.raises(ValueError):
            mean_and_sem([1.0])
