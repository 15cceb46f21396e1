"""Whole-machine composition: the Itsy pocket computer.

:class:`ItsyMachine` bundles the CPU model, the power model and the battery
interface into the object the kernel simulator drives.  It also carries the
configuration presets used throughout the evaluation (initial clock step,
initial voltage, whether the below-spec 1.23 V rail setting is available).
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.hw.clocksteps import SA1100_CLOCK_TABLE, ClockTable
from repro.hw.cpu import CpuModel
from repro.hw.machine import Machine
from repro.hw.power import PowerModel
from repro.hw.rails import VOLTAGE_HIGH, VOLTAGE_LOW


@dataclass(frozen=True)
class ItsyConfig:
    """Configuration preset for an Itsy unit.

    Attributes:
        initial_mhz: clock frequency at boot (default: fastest step).
        initial_volts: core voltage at boot.
        low_voltage_available: whether the modified 1.23 V rail setting
            exists on this unit (stock units: no).
    """

    initial_mhz: float = 206.4
    initial_volts: float = VOLTAGE_HIGH
    low_voltage_available: bool = True

    def validate(self, table: ClockTable) -> None:
        """Check the preset against a clock table; raise ValueError if bad."""
        table.step_for_mhz(self.initial_mhz)  # raises KeyError -> surfaced
        if self.initial_volts == VOLTAGE_LOW and not self.low_voltage_available:
            raise ValueError("1.23 V requested but unavailable on this unit")


class ItsyMachine(Machine):
    """An Itsy unit: CPU + power model, as the kernel simulator sees it.

    The machine does not advance time itself; the kernel tells it what the
    core is doing and asks for the instantaneous power.  Transition methods
    return their time cost for the kernel to account.
    """

    def __init__(self, config: ItsyConfig = ItsyConfig()):
        config.validate(SA1100_CLOCK_TABLE)
        self.config = config
        # The CPU model's defaults are the Itsy's: the SA-1100 clock table,
        # the Table 3 memory timings and the 1.5 V / 1.23 V core rail.
        cpu = CpuModel(step=SA1100_CLOCK_TABLE.step_for_mhz(config.initial_mhz))
        if config.initial_volts != cpu.volts:
            cpu.rail.set_voltage(config.initial_volts, cpu.step)
        super().__init__(cpu, PowerModel())

    def set_voltage(self, volts: float) -> float:
        """Change the core voltage; returns the settle duration in us.

        Raises:
            ValueError: if the low rail setting is requested on a unit
                without the modification.
        """
        if volts == VOLTAGE_LOW and not self.config.low_voltage_available:
            raise ValueError("this Itsy unit does not support 1.23 V operation")
        return self.cpu.set_voltage(volts)
