"""Tests for kernel configuration and run-record conveniences."""

import pytest

from repro.kernel.config import KernelConfig


class TestKernelConfigValidation:
    def test_defaults(self):
        cfg = KernelConfig()
        assert cfg.quantum_us == 10_000.0
        assert cfg.sched_overhead_us == 6.0
        assert cfg.record_sched_log is False

    def test_quantum_must_be_positive(self):
        with pytest.raises(ValueError):
            KernelConfig(quantum_us=0.0)
        with pytest.raises(ValueError):
            KernelConfig(quantum_us=-10.0)

    def test_overhead_must_be_non_negative(self):
        with pytest.raises(ValueError):
            KernelConfig(sched_overhead_us=-1.0)

    def test_overhead_below_quantum(self):
        with pytest.raises(ValueError):
            KernelConfig(quantum_us=100.0, sched_overhead_us=100.0)
        KernelConfig(quantum_us=100.0, sched_overhead_us=99.0)

    def test_frozen(self):
        cfg = KernelConfig()
        with pytest.raises(Exception):
            cfg.quantum_us = 5_000.0  # type: ignore[misc]


class TestRunRecordViews:
    @pytest.fixture(scope="class")
    def run(self):
        from repro.core.catalog import best_policy
        from repro.measure.runner import run_workload
        from repro.workloads.mpeg import MpegConfig, mpeg_workload

        return run_workload(
            mpeg_workload(MpegConfig(duration_s=5.0)),
            best_policy,
            seed=0,
            use_daq=False,
        ).run

    def test_series_views_consistent(self, run):
        assert len(run.utilizations()) == len(run.quanta)
        assert len(run.mhz_series()) == len(run.quanta)
        assert run.mean_utilization() == pytest.approx(
            sum(run.utilizations()) / len(run.quanta)
        )

    def test_events_of_kind_partitions(self, run):
        kinds = {e.kind for e in run.events}
        total = sum(len(run.events_of_kind(k)) for k in kinds)
        assert total == len(run.events)

    def test_deadline_misses_tolerance_monotone(self, run):
        strict = len(run.deadline_misses(tolerance_us=0.0))
        loose = len(run.deadline_misses(tolerance_us=100_000.0))
        assert loose <= strict

    def test_energy_equals_timeline_integral(self, run):
        assert run.energy_joules() == pytest.approx(run.timeline.energy_joules())

    def test_version_exposed(self):
        import repro

        assert repro.__version__ == "1.0.0"
