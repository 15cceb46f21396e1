"""Tests for utilization-series helpers (Figures 3/4)."""

import numpy as np
import pytest

from repro.analysis.utilization import (
    busy_idle_runs,
    moving_average,
    utilization_series,
)
from repro.core.catalog import constant_speed
from repro.measure.runner import run_workload
from repro.workloads.mpeg import MpegConfig, mpeg_workload


class TestMovingAverage:
    def test_window_one_is_identity(self):
        values = [0.1, 0.9, 0.4]
        assert list(moving_average(values, 1)) == pytest.approx(values)

    def test_trailing_average(self):
        out = moving_average([1.0, 0.0, 1.0, 1.0], 2)
        assert list(out) == pytest.approx([1.0, 0.5, 0.5, 1.0])

    def test_ramp_in_head(self):
        out = moving_average([1.0, 1.0, 1.0, 1.0], 10)
        assert list(out) == pytest.approx([1.0] * 4)

    def test_smoothing_reduces_variance(self):
        rng = np.random.default_rng(0)
        raw = rng.integers(0, 2, 500).astype(float)
        smooth = moving_average(raw, 10)
        assert np.var(smooth) < np.var(raw)

    def test_empty(self):
        assert len(moving_average([], 5)) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            moving_average([1.0], 0)


class TestBusyIdleRuns:
    def test_run_length_encoding(self):
        runs = busy_idle_runs([1.0, 1.0, 0.0, 1.0, 0.0, 0.0])
        assert runs == [(True, 2), (False, 1), (True, 1), (False, 2)]

    def test_empty(self):
        assert busy_idle_runs([]) == []

    def test_threshold(self):
        runs = busy_idle_runs([0.6, 0.4], busy_above=0.5)
        assert runs == [(True, 1), (False, 1)]


class TestFromKernelRun:
    def test_series_extraction(self):
        res = run_workload(
            mpeg_workload(MpegConfig(duration_s=3.0)),
            lambda: constant_speed(206.4),
            seed=0,
            use_daq=False,
        )
        times, utils = utilization_series(res.run)
        assert len(times) == len(utils) == len(res.run.quanta)
        assert np.all(np.diff(times) == pytest.approx(10_000.0))
        assert np.all((utils >= 0) & (utils <= 1))

    def test_mpeg_frame_periodicity_in_runs(self):
        """§5.1: each MPEG frame is rendered in just under 7 quanta."""
        res = run_workload(
            mpeg_workload(MpegConfig(duration_s=4.0)),
            lambda: constant_speed(206.4),
            seed=0,
            use_daq=False,
        )
        _, utils = utilization_series(res.run)
        runs = busy_idle_runs(utils, busy_above=0.5)
        busy_lengths = [length for busy, length in runs if busy]
        mean_busy = sum(busy_lengths) / len(busy_lengths)
        assert 3.5 < mean_busy < 7.5
