"""Tests for the hypothetical SA-2 machine (the paper's intro example)."""

import pytest

from repro.hw.clocksteps import SA2_CLOCK_TABLE, SA2_FREQUENCIES_MHZ
from repro.hw.power import CoreState
from repro.hw.rails import VoltageError
from repro.hw.sa2 import (
    Sa2Machine,
    sa2_energy_for_instructions,
    sa2_power_w,
    sa2_volts_for_step,
)


class TestClockTable:
    def test_range(self):
        assert SA2_CLOCK_TABLE.min_step.mhz == 150.0
        assert SA2_CLOCK_TABLE.max_step.mhz == 600.0
        assert len(SA2_CLOCK_TABLE) == 11

    def test_uniform_increments(self):
        freqs = SA2_FREQUENCIES_MHZ
        assert all(b - a == pytest.approx(45.0) for a, b in zip(freqs, freqs[1:]))


class TestVoltageSchedule:
    def test_endpoints(self):
        assert sa2_volts_for_step(SA2_CLOCK_TABLE.max_step) == pytest.approx(1.8)
        assert sa2_volts_for_step(SA2_CLOCK_TABLE.min_step) == pytest.approx(
            1.018, abs=0.01
        )

    def test_monotone(self):
        volts = [sa2_volts_for_step(s) for s in SA2_CLOCK_TABLE]
        assert volts == sorted(volts)


class TestPaperNumbers:
    def test_500mw_at_600mhz(self):
        assert sa2_power_w(SA2_CLOCK_TABLE.max_step) == pytest.approx(0.500, rel=1e-6)

    def test_40mw_at_150mhz(self):
        assert sa2_power_w(SA2_CLOCK_TABLE.min_step) == pytest.approx(0.040, rel=0.01)

    def test_12x_power_for_4x_speed(self):
        ratio = sa2_power_w(SA2_CLOCK_TABLE.max_step) / sa2_power_w(
            SA2_CLOCK_TABLE.min_step
        )
        assert ratio == pytest.approx(12.5, rel=0.01)

    def test_worked_example_600m_instructions(self):
        """1 s / 500 mJ at 600 MHz; 4 s / 160 mJ at 150 MHz (paper §2.1)."""
        t_fast, e_fast = sa2_energy_for_instructions(600e6, SA2_CLOCK_TABLE.max_step)
        t_slow, e_slow = sa2_energy_for_instructions(600e6, SA2_CLOCK_TABLE.min_step)
        assert t_fast == pytest.approx(1.0)
        assert e_fast == pytest.approx(0.500, rel=1e-6)
        assert t_slow == pytest.approx(4.0)
        assert e_slow == pytest.approx(0.160, rel=0.01)
        # "a four-fold savings assuming that an idle computer consumes no
        # energy"
        assert e_fast / e_slow == pytest.approx(3.125, rel=0.01)

    def test_idle_is_free(self):
        assert sa2_power_w(SA2_CLOCK_TABLE.max_step, CoreState.NAP) == 0.0


class TestSa2Machine:
    def test_boots_at_top_step_and_voltage(self):
        machine = Sa2Machine()
        assert machine.step.mhz == 600.0
        assert machine.volts == pytest.approx(1.8)

    def test_auto_volts_follows_schedule_both_directions(self):
        machine = Sa2Machine()
        low = machine.clock_table.min_step
        assert machine.auto_volts_for(low) == pytest.approx(
            sa2_volts_for_step(low)
        )
        # Drop after decrease: frequency first, then the scheduled voltage.
        machine.set_step_index(0)
        machine.set_voltage(machine.auto_volts_for(low))
        high = machine.clock_table.max_step
        assert machine.auto_volts_for(high) == pytest.approx(1.8)

    def test_auto_volts_none_when_already_scheduled(self):
        machine = Sa2Machine()
        assert machine.auto_volts_for(machine.step) is None

    def test_rail_rejects_undervolted_step(self):
        machine = Sa2Machine()
        low_volts = sa2_volts_for_step(machine.clock_table.min_step)
        with pytest.raises(VoltageError):
            machine.set_voltage(low_volts)  # still at 600 MHz

    def test_power_tracks_schedule(self):
        machine = Sa2Machine()
        full = machine.power_w(CoreState.ACTIVE)
        assert full == pytest.approx(0.500, rel=1e-6)
        machine.set_step_index(0)
        machine.set_voltage(machine.auto_volts_for(machine.step))
        assert machine.power_w(CoreState.ACTIVE) == pytest.approx(0.040, rel=0.01)


class TestCpuModel:
    def test_cpu_uses_sa2_table(self):
        cpu = Sa2Machine().cpu
        assert cpu.step.mhz == 600.0
        cpu.set_step_index(0)
        assert cpu.step.mhz == 150.0

    def test_work_timing_on_sa2(self):
        from repro.hw.work import Work

        cpu = Sa2Machine().cpu
        work = Work(cpu_cycles=600e6)
        assert cpu.duration_us(work) == pytest.approx(1e6)
        cpu.set_step_index(0)
        assert cpu.duration_us(work) == pytest.approx(4e6)
