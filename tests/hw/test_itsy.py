"""Tests for whole-machine composition."""

import pytest

from repro.hw.itsy import ItsyConfig, ItsyMachine
from repro.hw.power import CoreState
from repro.hw.rails import VOLTAGE_HIGH, VOLTAGE_LOW


class TestPresets:
    def test_default_boots_fast_and_high(self):
        machine = ItsyMachine()
        assert machine.step.mhz == 206.4
        assert machine.volts == VOLTAGE_HIGH

    def test_boot_at_other_frequency(self):
        machine = ItsyMachine(ItsyConfig(initial_mhz=132.7))
        assert machine.step.mhz == pytest.approx(132.7)

    def test_boot_at_low_voltage(self):
        machine = ItsyMachine(
            ItsyConfig(initial_mhz=132.7, initial_volts=VOLTAGE_LOW)
        )
        assert machine.volts == VOLTAGE_LOW

    def test_unknown_boot_frequency_rejected(self):
        with pytest.raises(KeyError):
            ItsyMachine(ItsyConfig(initial_mhz=100.0))

    def test_stock_unit_has_no_low_rail(self):
        machine = ItsyMachine(
            ItsyConfig(initial_mhz=59.0, low_voltage_available=False)
        )
        with pytest.raises(ValueError):
            machine.set_voltage(VOLTAGE_LOW)

    def test_stock_unit_cannot_boot_low(self):
        with pytest.raises(ValueError):
            ItsyMachine(
                ItsyConfig(initial_volts=VOLTAGE_LOW, low_voltage_available=False)
            )


class TestBehaviour:
    def test_power_states_ordered(self):
        machine = ItsyMachine()
        assert machine.power_w(CoreState.ACTIVE) > machine.power_w(CoreState.NAP)

    def test_step_change_passthrough(self):
        machine = ItsyMachine()
        stall = machine.set_step_index(0)
        assert stall == pytest.approx(200.0)
        assert machine.step.mhz == 59.0

    def test_voltage_change_passthrough(self):
        machine = ItsyMachine(ItsyConfig(initial_mhz=132.7))
        settle = machine.set_voltage(VOLTAGE_LOW)
        assert settle == pytest.approx(250.0)
        assert machine.volts == VOLTAGE_LOW

    def test_power_drops_after_voltage_scale(self):
        machine = ItsyMachine(ItsyConfig(initial_mhz=132.7))
        before = machine.power_w(CoreState.ACTIVE)
        machine.set_voltage(VOLTAGE_LOW)
        after = machine.power_w(CoreState.ACTIVE)
        assert after < before

    def test_clock_table_exposed(self):
        machine = ItsyMachine()
        assert len(machine.clock_table) == 11
