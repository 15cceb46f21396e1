"""Tests for the experiment runner (short synthetic workload for speed)."""

import pytest

from repro.core.catalog import best_policy, constant_speed
from repro.measure.parallel import PolicySpec, WorkloadSpec, repeat_workload
from repro.measure.runner import default_machine, run_workload
from repro.workloads.mpeg import MpegConfig, mpeg_workload

SHORT = mpeg_workload(MpegConfig(duration_s=4.0))
SHORT_SPEC = WorkloadSpec("mpeg", MpegConfig(duration_s=4.0))
FULL_SPEED = PolicySpec("const-206.4")


class TestRunWorkload:
    def test_daq_energy_close_to_exact(self):
        res = run_workload(SHORT, lambda: constant_speed(206.4), seed=0)
        assert res.energy_j == pytest.approx(res.exact_energy_j, rel=0.01)
        assert res.capture is not None

    def test_daq_disabled(self):
        res = run_workload(
            SHORT, lambda: constant_speed(206.4), seed=0, use_daq=False
        )
        assert res.capture is None
        assert res.energy_j == res.exact_energy_j

    def test_missed_flag(self):
        ok = run_workload(SHORT, lambda: constant_speed(206.4), seed=0, use_daq=False)
        bad = run_workload(SHORT, lambda: constant_speed(59.0), seed=0, use_daq=False)
        assert not ok.missed
        assert bad.missed

    def test_default_machine_boots_fast(self):
        machine = default_machine()
        assert machine.step.mhz == pytest.approx(206.4)

    def test_fresh_governor_per_run(self):
        created = []

        def factory():
            gov = best_policy()
            created.append(gov)
            return gov

        run_workload(SHORT, factory, seed=0, use_daq=False)
        run_workload(SHORT, factory, seed=0, use_daq=False)
        assert len(created) == 2
        assert created[0] is not created[1]


class TestRepeatWorkload:
    def test_ci_over_runs(self):
        agg = repeat_workload(SHORT_SPEC, FULL_SPEED, runs=3, use_daq=False)
        assert agg.energy_ci.n == 3
        assert agg.energy_ci.low <= agg.mean_energy_j <= agg.energy_ci.high
        assert not agg.any_missed
        assert agg.total_misses == 0

    def test_runs_differ_by_seed(self):
        agg = repeat_workload(SHORT_SPEC, FULL_SPEED, runs=3, use_daq=False)
        energies = [r.energy_j for r in agg.results]
        assert len(set(energies)) > 1  # seeded jitter makes runs distinct

    def test_repeatability_tight(self):
        """The paper's §4.1: the 95 % CI is under 0.7 % of the mean."""
        agg = repeat_workload(SHORT_SPEC, FULL_SPEED, runs=5, use_daq=False)
        assert agg.energy_ci.relative_half_width < 0.007

    def test_minimum_two_runs(self):
        with pytest.raises(ValueError):
            repeat_workload(SHORT_SPEC, FULL_SPEED, runs=1)
