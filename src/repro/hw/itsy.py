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
from repro.hw.memory import SA1100_MEMORY_TIMINGS, MemoryTimings
from repro.hw.power import PowerModel, PowerParameters
from repro.hw.rails import CoreRail, VOLTAGE_HIGH, VOLTAGE_LOW


@dataclass(frozen=True)
class ItsyConfig:
    """Configuration preset for an Itsy unit.

    Attributes:
        initial_mhz: clock frequency at boot (default: fastest step).
        initial_volts: core voltage at boot.
        low_voltage_available: whether the modified 1.23 V rail setting
            exists on this unit (stock units: no).
        low_voltage_max_mhz: fastest clock considered safe at 1.23 V.
    """

    initial_mhz: float = 206.4
    initial_volts: float = VOLTAGE_HIGH
    low_voltage_available: bool = True
    low_voltage_max_mhz: float = 162.2

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

    def __init__(
        self,
        config: ItsyConfig = ItsyConfig(),
        power_params: PowerParameters = PowerParameters(),
        clock_table: ClockTable = SA1100_CLOCK_TABLE,
        timings: MemoryTimings = SA1100_MEMORY_TIMINGS,
    ):
        config.validate(clock_table)
        self.config = config
        rail = CoreRail(low_voltage_max_mhz=config.low_voltage_max_mhz)
        initial_step = clock_table.step_for_mhz(config.initial_mhz)
        cpu = CpuModel(
            clock_table=clock_table,
            timings=timings,
            rail=rail,
            step=initial_step,
        )
        if config.initial_volts != rail.volts:
            rail.set_voltage(config.initial_volts, initial_step)
        super().__init__(cpu, PowerModel(power_params))

    def set_voltage(self, volts: float) -> float:
        """Change the core voltage; returns the settle duration in us.

        Raises:
            ValueError: if the low rail setting is requested on a unit
                without the modification.
        """
        if volts == VOLTAGE_LOW and not self.config.low_voltage_available:
            raise ValueError("this Itsy unit does not support 1.23 V operation")
        return self.cpu.set_voltage(volts)
