"""Tests for the kernel's recording modes.

The contract that matters is bitwise equivalence: minimal recording must
report exactly the numbers full recording reports (energy, mean power,
mean utilization, final step), because the sweep cache deliberately keys
results without the recording mode.
"""

import pytest

from repro.hw.itsy import ItsyConfig, ItsyMachine
from repro.kernel.config import KernelConfig
from repro.kernel.governor import Governor, GovernorRequest
from repro.kernel.process import Sleep, SpinUntil
from repro.kernel.recorders import (
    RECORDING_FULL,
    RECORDING_MINIMAL,
    EnergyTotals,
    check_recording,
    stats_from_rows,
)
from repro.kernel.scheduler import Kernel

Q = 10_000.0


class Zigzag(Governor):
    """Bounces across the clock table to exercise freq/volt machinery."""

    def __init__(self):
        self.tick = 0

    def on_tick(self, info):
        self.tick += 1
        return GovernorRequest(step_index=0 if self.tick % 2 else 10)


def busy_body(ctx):
    yield SpinUntil(2 * Q)
    yield Sleep(Q)
    yield SpinUntil(6 * Q)


def run_with(recording=RECORDING_FULL, config=None):
    config = config if config is not None else KernelConfig()
    kernel = Kernel(
        ItsyMachine(ItsyConfig()), Zigzag(), config, recording=recording
    )
    kernel.spawn("busy", busy_body)
    return kernel.run(8 * Q)


class TestRecorderSets:
    def test_default_set_populates_everything(self):
        run = run_with()
        assert len(run.quanta) == 8
        assert len(run.timeline) > 0
        assert run.freq_changes, "zigzag governor must log clock changes"
        assert run.volt_changes == []  # 1.5 V is safe at every step

    def test_minimal_set_skips_logs(self):
        run = run_with(RECORDING_MINIMAL)
        assert run.quanta == []
        assert len(run.timeline) == 0
        assert run.freq_changes == []
        assert run.energy is not None
        assert run.quantum_stats is not None

    def test_sched_log_only_when_configured(self):
        assert run_with().sched_log == []
        assert run_with(RECORDING_MINIMAL).sched_log == []
        config = KernelConfig(record_sched_log=True)
        for mode in (RECORDING_FULL, RECORDING_MINIMAL):
            run = run_with(mode, config=config)
            assert run.sched_log, mode
            assert run.sched_log[0].time_us == 0.0

    def test_recorders_for_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown recording mode"):
            check_recording("verbose")
        with pytest.raises(ValueError, match="unknown recording mode"):
            Kernel(ItsyMachine(ItsyConfig()), recording="verbose")


class TestBitwiseEquivalence:
    def test_energy_and_means_bitwise_equal(self):
        full = run_with()
        minimal = run_with(RECORDING_MINIMAL)
        assert minimal.energy_joules() == full.energy_joules()
        assert minimal.mean_power_w() == full.mean_power_w()
        assert minimal.mean_utilization() == full.mean_utilization()
        assert minimal.duration_us == full.duration_us

    def test_quantum_stats_match_full_log(self):
        full = run_with()
        stats = run_with(RECORDING_MINIMAL).quantum_stats
        assert full.quantum_stats == stats
        assert stats.count == len(full.quanta)
        # Left to right, not sum(): from CPython 3.12 on, sum() compensates
        # float rounding and could disagree with the kernels' running sum.
        usum = 0.0
        for q in full.quanta:
            usum += q.utilization
        assert stats.utilization_sum == usum
        assert stats.final_step_index == full.quanta[-1].step_index
        assert stats.final_mhz == full.quanta[-1].mhz
        by_step = {}
        for q in full.quanta:
            by_step[q.step_index] = by_step.get(q.step_index, 0) + 1
        assert stats.quanta_by_step == by_step
        assert stats.mhz_by_step == {
            q.step_index: q.mhz for q in full.quanta
        }

    def test_counters_identical_across_modes(self):
        full = run_with()
        minimal = run_with(RECORDING_MINIMAL)
        assert minimal.clock_changes == full.clock_changes
        assert minimal.clock_stall_us == full.clock_stall_us
        assert minimal.voltage_changes == full.voltage_changes
        assert minimal.busy_us_by_pid == full.busy_us_by_pid


class TestStreamingMeters:
    def test_energy_meter_replicates_timeline_merge(self):
        full = run_with()
        energy = run_with(RECORDING_MINIMAL).energy
        assert energy.energy_j == full.timeline.energy_joules()
        assert energy.start_us == full.timeline.start_us
        assert energy.end_us == full.timeline.end_us

    def test_empty_meters_are_benign(self):
        totals = EnergyTotals(energy_j=0.0, start_us=0.0, end_us=0.0)
        assert totals.mean_power_w() == 0.0
        stats = stats_from_rows([])
        assert stats.count == 0
        assert stats.mean_utilization() == 0.0
