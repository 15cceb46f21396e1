"""Tests for Welch-test experiment comparison."""

import numpy as np
import pytest

from repro.measure.compare import welch_compare


class TestWelchCompare:
    def test_clearly_different_samples(self):
        rng = np.random.default_rng(0)
        a = rng.normal(86.0, 0.2, 8)
        b = rng.normal(80.3, 0.2, 8)
        cmp = welch_compare(a, b)
        assert cmp.significant
        assert cmp.p_value < 1e-6
        assert cmp.difference == pytest.approx(5.7, abs=0.5)
        assert cmp.relative_difference == pytest.approx(5.7 / 80.3, abs=0.01)

    def test_identical_distributions_not_significant(self):
        rng = np.random.default_rng(1)
        a = rng.normal(85.0, 0.3, 6)
        b = rng.normal(85.0, 0.3, 6)
        cmp = welch_compare(a, b)
        assert not cmp.significant

    def test_constant_equal_samples(self):
        cmp = welch_compare([5.0, 5.0], [5.0, 5.0])
        assert not cmp.significant
        assert cmp.p_value == 1.0

    def test_constant_unequal_samples(self):
        cmp = welch_compare([5.0, 5.0], [6.0, 6.0])
        assert cmp.significant
        assert cmp.p_value == 0.0

    def test_alpha_controls_verdict(self):
        rng = np.random.default_rng(2)
        a = rng.normal(85.0, 1.0, 4)
        b = rng.normal(85.9, 1.0, 4)
        loose = welch_compare(a, b, alpha=0.9)
        strict = welch_compare(a, b, alpha=1e-6)
        assert loose.significant or not strict.significant

    def test_matches_scipy_welch(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(2026)
        for _ in range(300):
            n_a, n_b = rng.integers(2, 13, size=2)
            a = rng.normal(rng.uniform(-2, 2), rng.uniform(0.1, 3), n_a)
            b = rng.normal(rng.uniform(-2, 2), rng.uniform(0.1, 3), n_b)
            cmp = welch_compare(a, b)
            ref = scipy_stats.ttest_ind(a, b, equal_var=False)
            assert cmp.t_statistic == pytest.approx(ref.statistic, rel=1e-10)
            assert cmp.p_value == pytest.approx(ref.pvalue, rel=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            welch_compare([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            welch_compare([1.0, 2.0], [1.0, 2.0], alpha=1.5)

    def test_matches_paper_style_ci_reasoning(self):
        """Welch agrees with Table 2's interval-overlap reasoning on the
        actual experiment data."""
        from repro.measure.compare import energies
        from repro.measure.parallel import (
            PolicySpec,
            WorkloadSpec,
            repeat_workload,
        )
        from repro.workloads.mpeg import MpegConfig

        wl = WorkloadSpec("mpeg", MpegConfig(duration_s=10.0))
        const = repeat_workload(wl, PolicySpec("const-206.4"), runs=3)
        slow = repeat_workload(wl, PolicySpec("const-132.7"), runs=3)
        cmp = welch_compare(energies(slow), energies(const))
        assert cmp.significant
        assert cmp.difference < 0  # 132.7 MHz uses less energy
