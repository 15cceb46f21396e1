"""Tests for the KiBaM pulsed-discharge model."""

import pytest

from repro.battery.pulsed import PulsedDischargeModel


def make_battery(**kwargs):
    defaults = dict(capacity_c=1000.0, c_fraction=0.5, k_rate=1e-3, volts=3.0)
    defaults.update(kwargs)
    return PulsedDischargeModel(**defaults)


class TestBasics:
    def test_initial_state(self):
        b = make_battery()
        assert b.available == 500.0
        assert b.bound == 500.0
        assert b.remaining == 1000.0
        assert not b.dead

    def test_drain_conserves_charge(self):
        b = make_battery()
        delivered = b.step(power_w=3.0, dt_s=100.0)
        assert delivered == pytest.approx(100.0)  # 1 A for 100 s
        assert b.remaining == pytest.approx(1000.0 - delivered)

    def test_death_when_available_exhausted(self):
        b = make_battery(k_rate=1e-9)  # effectively no recovery
        b.step(power_w=3.0, dt_s=600.0)
        assert b.dead
        assert b.delivered < 520.0  # only the available well (plus dribble)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_battery(capacity_c=0.0)
        with pytest.raises(ValueError):
            make_battery(c_fraction=1.0)
        with pytest.raises(ValueError):
            make_battery(k_rate=0.0)
        with pytest.raises(ValueError):
            make_battery().step(power_w=-1.0, dt_s=1.0)

    def test_reset(self):
        b = make_battery()
        b.step(3.0, 100.0)
        b.reset()
        assert b.remaining == 1000.0
        assert b.delivered == 0.0
        assert not b.dead


class TestRecoveryEffect:
    def test_rest_recovers_available_charge(self):
        b = make_battery()
        b.step(3.0, 150.0)
        before = b.available
        b.step(0.0, 500.0)  # rest
        assert b.available > before

    def test_pulsed_discharge_outlives_constant(self):
        """§2.1: interspersing high demand with rest increases capacity."""
        const = make_battery()
        const.time_to_death_s(power_w=6.0)
        pulsed = make_battery()
        pulsed.time_to_death_s(
            power_w=6.0, rest_power_w=0.0, pulse_s=30.0, rest_s=30.0
        )
        # Compare time spent *under load*: the pulsed battery delivers more.
        assert pulsed.delivered > const.delivered

    def test_dead_battery_delivers_nothing(self):
        b = make_battery(k_rate=1e-9)
        b.step(6.0, 1000.0)
        assert b.dead
        assert b.step(1.0, 10.0) == 0.0
