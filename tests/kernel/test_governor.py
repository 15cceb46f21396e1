"""Tests for the governor interface and voltage/frequency sequencing."""

import pytest

from repro.hw.itsy import ItsyConfig, ItsyMachine
from repro.hw.rails import VOLTAGE_HIGH, VOLTAGE_LOW
from repro.kernel.config import KernelConfig
from repro.kernel.governor import ConstantGovernor, Governor, GovernorRequest, TickInfo
from repro.kernel.scheduler import Kernel

Q = 10_000.0
CFG = KernelConfig(sched_overhead_us=0.0)


def tick_info(**overrides):
    base = dict(
        now_us=Q,
        utilization=0.5,
        busy_us=5_000.0,
        quantum_us=Q,
        step_index=10,
        mhz=206.4,
        volts=VOLTAGE_HIGH,
        max_step_index=10,
    )
    base.update(overrides)
    return TickInfo(**base)


class ScriptedGovernor(Governor):
    """Issues a fixed list of requests, one per tick."""

    def __init__(self, requests):
        self.requests = list(requests)
        self._i = 0

    def on_tick(self, info):
        if self._i < len(self.requests):
            req = self.requests[self._i]
            self._i += 1
            return req
        return None

    def reset(self):
        self._i = 0


class TestGovernorRequest:
    def test_noop_detection(self):
        assert GovernorRequest().is_noop
        assert not GovernorRequest(step_index=3).is_noop
        assert not GovernorRequest(volts=VOLTAGE_LOW).is_noop


class TestConstantGovernor:
    def test_requests_once_then_silent(self):
        gov = ConstantGovernor(step_index=5)
        first = gov.on_tick(tick_info())
        assert first == GovernorRequest(step_index=5, volts=None)
        assert gov.on_tick(tick_info()) is None

    def test_reset_rearms(self):
        gov = ConstantGovernor(step_index=5)
        gov.on_tick(tick_info())
        gov.reset()
        assert gov.on_tick(tick_info()) is not None


class TestVoltageSequencing:
    def test_scale_down_then_voltage_drop(self):
        gov = ScriptedGovernor([GovernorRequest(step_index=0, volts=VOLTAGE_LOW)])
        kernel = Kernel(ItsyMachine(ItsyConfig()), gov, CFG)
        run = kernel.run(3 * Q)
        assert run.clock_changes == 1
        assert run.voltage_changes == 1
        assert run.volt_changes[0].to_volts == VOLTAGE_LOW
        assert run.volt_changes[0].settle_us == pytest.approx(250.0)
        assert kernel.machine.volts == VOLTAGE_LOW

    def test_scale_up_raises_voltage_first(self):
        # Start low and slow; a single request for fast+high must succeed
        # because the kernel raises the voltage before the frequency.
        gov = ScriptedGovernor(
            [
                GovernorRequest(step_index=0, volts=VOLTAGE_LOW),
                GovernorRequest(step_index=10, volts=VOLTAGE_HIGH),
            ]
        )
        kernel = Kernel(ItsyMachine(ItsyConfig()), gov, CFG)
        run = kernel.run(4 * Q)
        assert kernel.machine.step.mhz == pytest.approx(206.4)
        assert kernel.machine.volts == VOLTAGE_HIGH
        assert run.voltage_changes == 2
        # the upward transition is instantaneous
        assert run.volt_changes[1].settle_us == 0.0

    def test_rail_sag_keeps_old_voltage_power_briefly(self):
        # After a voltage drop the power stays at the 1.5 V level for the
        # 250 us sag window.
        gov = ScriptedGovernor([GovernorRequest(step_index=0, volts=VOLTAGE_LOW)])
        kernel = Kernel(ItsyMachine(ItsyConfig()), gov, CFG)
        run = kernel.run(3 * Q)
        from repro.hw.power import CoreState, PowerModel

        model = PowerModel()
        step_59 = kernel.machine.clock_table.min_step
        nap_hi = model.total_w(step_59, VOLTAGE_HIGH, CoreState.NAP)
        nap_lo = model.total_w(step_59, VOLTAGE_LOW, CoreState.NAP)
        # Power right after the change (during sag): still the 1.5 V level.
        t_change = run.volt_changes[0].time_us
        assert run.timeline.power_at(t_change + 100.0) == pytest.approx(nap_hi)
        # After the sag window: the 1.23 V level.
        assert run.timeline.power_at(t_change + 300.0) == pytest.approx(nap_lo)


class TestTickInfo:
    def test_fields_reflect_machine_and_quantum(self):
        captured = []

        class Spy(Governor):
            def on_tick(self, info):
                captured.append(info)
                return None

        kernel = Kernel(ItsyMachine(ItsyConfig(initial_mhz=132.7)), Spy(), CFG)
        kernel.run(2 * Q)
        assert captured[0].mhz == pytest.approx(132.7)
        assert captured[0].step_index == 5
        assert captured[0].max_step_index == 10
        assert captured[0].quantum_us == Q
        assert captured[0].now_us == Q
