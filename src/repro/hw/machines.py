"""Machine presets addressable by name: the spec layer for the machine axis.

:class:`MachineSpec` is the machine-side sibling of
:class:`~repro.measure.parallel.WorkloadSpec` and ``PolicySpec``: a frozen,
picklable value naming a machine preset plus optional parameter overrides.
Specs — unlike machine instances — pickle cleanly and digest stably, which
is what lets sweep cells carry the machine axis to worker processes and
into content-addressed cache keys.

The named presets (also printed by ``python -m repro list-machines``):

- ``itsy`` — the WRL-modified Itsy of the evaluation (1.5 V core
  switchable to 1.23 V);
- ``itsy-stock`` — an unmodified Itsy (1.5 V only);
- ``sa2`` — the hypothetical StrongARM SA-2 of the introduction, with a
  full per-step voltage schedule;
- ``itsy-reconf`` / ``sa2-reconf`` — the same machines with *costly*
  reconfiguration: clock changes stall longer and draw extra power, and
  voltage drops sag for longer, after Rottleuthner et al.'s measurements
  of non-free clock reconfiguration on constrained IoT parts.

``<name>@<volts>`` selects a boot voltage, e.g. ``itsy@1.23`` boots a
modified Itsy already on the reduced rail (at the fastest clock step that
is safe there).  Programmatic construction can further override the clock
table, the low-voltage frequency bound, power-model constants, and the
per-transition reconfiguration costs (``clock_stall_us`` /
``volt_settle_us`` / ``reconf_power_w``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from repro.hw.clocksteps import SA1100_CLOCK_TABLE, SA2_CLOCK_TABLE, ClockTable
from repro.hw.memory import SA1100_MEMORY_TIMINGS, fixed_latency_timings
from repro.hw.rails import VOLTAGE_HIGH

# The machine models load only when a spec builds a machine, so sweep
# cells and cache keys name machines without loading the simulator.
if TYPE_CHECKING:
    from repro.hw.machine import Machine
    from repro.hw.power import PowerParameters

#: Effective wall-clock DRAM latencies matching Table 3 at the fastest
#: SA-1100 step; used to synthesize timing tables for overridden Itsy
#: clock tables (the measured Table 3 only covers the stock frequencies).
ITSY_MEM_LATENCY_NS = 96.0
ITSY_CACHE_LATENCY_NS = 330.0


@dataclass(frozen=True)
class MachineSpec:
    """A machine named by preset plus optional overrides.

    Attributes:
        name: preset name (see :data:`MACHINE_PRESETS`).
        initial_mhz: boot clock frequency; must match a table step.
        initial_volts: boot core voltage (presets with a voltage schedule
            reject this).
        frequencies_mhz: replacement clock table, ascending MHz.
        low_voltage_max_mhz: override of the Itsy 1.23 V frequency bound.
        power: power-model constant overrides as ``((field, value), ...)``
            pairs naming :class:`~repro.hw.power.PowerParameters` fields.
        clock_stall_us: override of the per-clock-change stall duration.
        volt_settle_us: override of the rail's downward settle (sag)
            duration after a voltage drop.
        reconf_power_w: extra power drawn during clock-change stall
            windows (see :attr:`repro.hw.machine.Machine.reconf_extra_w`).
    """

    name: str = "itsy"
    initial_mhz: Optional[float] = None
    initial_volts: Optional[float] = None
    frequencies_mhz: Optional[Tuple[float, ...]] = None
    low_voltage_max_mhz: Optional[float] = None
    power: Optional[Tuple[Tuple[str, float], ...]] = None
    clock_stall_us: Optional[float] = None
    volt_settle_us: Optional[float] = None
    reconf_power_w: Optional[float] = None

    def __post_init__(self) -> None:
        if self.frequencies_mhz is not None:
            object.__setattr__(
                self, "frequencies_mhz", tuple(self.frequencies_mhz)
            )
        if self.power is not None:
            items = (
                sorted(self.power.items())
                if isinstance(self.power, dict)
                else self.power
            )
            object.__setattr__(self, "power", tuple(tuple(p) for p in items))
        for name in ("clock_stall_us", "volt_settle_us", "reconf_power_w"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")

    @classmethod
    def parse(cls, text: str) -> "MachineSpec":
        """Parse ``<preset>`` or ``<preset>@<volts>`` (e.g. ``itsy@1.23``).

        Raises:
            ValueError: for unknown presets or a malformed voltage.
        """
        name, sep, volts = text.partition("@")
        _preset(name)  # unknown names raise here
        if not sep:
            return cls(name=name)
        try:
            return cls(name=name, initial_volts=float(volts))
        except ValueError:
            raise ValueError(
                f"bad machine spec {text!r}: expected <name>[@<volts>]"
            ) from None

    @property
    def label(self) -> str:
        """A short human-readable name: the ``--machine`` grammar, plus a
        ``*`` marker when programmatic overrides make the spec unnameable
        on the command line."""
        text = self.name
        if self.initial_volts is not None:
            text += f"@{self.initial_volts:g}"
        if (
            self.initial_mhz is not None
            or self.frequencies_mhz is not None
            or self.low_voltage_max_mhz is not None
            or self.power
            or self.clock_stall_us is not None
            or self.volt_settle_us is not None
            or self.reconf_power_w is not None
        ):
            text += "*"
        return text

    def clock_table(self) -> ClockTable:
        """The clock table this machine will have once built."""
        if self.frequencies_mhz is not None:
            return ClockTable(self.frequencies_mhz)
        return _preset(self.name).clock_table

    def power_parameters(self, base: PowerParameters) -> PowerParameters:
        """``base`` with this spec's power overrides applied."""
        if not self.power:
            return base
        try:
            return dataclasses.replace(base, **dict(self.power))
        except TypeError:
            known = ", ".join(f.name for f in dataclasses.fields(base))
            raise ValueError(
                f"unknown power parameter in {self.power!r}; known: {known}"
            ) from None

    def build(self) -> Machine:
        """Construct a fresh machine instance from this spec.

        Raises:
            ValueError: for unknown presets, frequencies not in the clock
                table, or overrides the preset does not support.
        """
        machine = _preset(self.name).builder(self)
        if self.power:
            from repro.hw.power import PowerModel

            machine.power = PowerModel(
                self.power_parameters(machine.power.params)
            )
        # Reconfiguration-cost overrides are applied after the preset
        # builder, so an explicit spec value wins over a preset's family
        # default (the *-reconf builders set all three).
        if self.clock_stall_us is not None:
            machine.cpu.clock_change_stall_us = self.clock_stall_us
        if self.volt_settle_us is not None:
            machine.cpu.rail.down_settle_us = self.volt_settle_us
        if self.reconf_power_w is not None:
            machine.reconf_extra_w = self.reconf_power_w
        return machine

    # A spec is directly usable wherever a zero-argument machine factory
    # is expected (``machine_factory=spec``).
    def __call__(self) -> Machine:
        return self.build()


@dataclass(frozen=True)
class MachinePreset:
    """A machine preset: how to build it, its clock table, and the line
    ``list-machines`` prints for it."""

    builder: Callable[[MachineSpec], Machine]
    clock_table: ClockTable
    description: str = ""


def _fastest_safe_mhz(table: ClockTable, max_mhz: float) -> float:
    safe = [s.mhz for s in table if s.mhz <= max_mhz + 1e-9]
    if not safe:
        raise ValueError(
            f"no clock step at or below {max_mhz:.1f} MHz for the boot voltage"
        )
    return safe[-1]


def _build_itsy(spec: MachineSpec, low_voltage_available: bool = True) -> Machine:
    from repro.hw.itsy import ItsyConfig, ItsyMachine

    table = spec.clock_table()
    if spec.frequencies_mhz is None:
        timings = SA1100_MEMORY_TIMINGS
    else:
        timings = fixed_latency_timings(
            spec.frequencies_mhz, ITSY_MEM_LATENCY_NS, ITSY_CACHE_LATENCY_NS
        )
    low_max = (
        ItsyConfig.low_voltage_max_mhz
        if spec.low_voltage_max_mhz is None
        else spec.low_voltage_max_mhz
    )
    volts = VOLTAGE_HIGH if spec.initial_volts is None else spec.initial_volts
    if spec.initial_mhz is not None:
        mhz = spec.initial_mhz
    elif volts < VOLTAGE_HIGH:
        # Booting on the reduced rail: default to the fastest safe step.
        mhz = _fastest_safe_mhz(table, low_max)
    else:
        mhz = table.max_step.mhz
    config = ItsyConfig(
        initial_mhz=mhz,
        initial_volts=volts,
        low_voltage_available=low_voltage_available,
        low_voltage_max_mhz=low_max,
    )
    try:
        return ItsyMachine(config, clock_table=table, timings=timings)
    except KeyError as exc:
        raise ValueError(str(exc)) from None


def _build_itsy_stock(spec: MachineSpec) -> Machine:
    return _build_itsy(spec, low_voltage_available=False)


def _build_sa2(spec: MachineSpec) -> Machine:
    from repro.hw.sa2 import Sa2Machine

    if spec.initial_volts is not None:
        raise ValueError(
            "sa2 follows a per-step voltage schedule; it takes no boot voltage"
        )
    if spec.low_voltage_max_mhz is not None:
        raise ValueError("sa2 has no low-voltage frequency bound to override")
    try:
        return Sa2Machine(
            clock_table=spec.clock_table(), initial_mhz=spec.initial_mhz
        )
    except KeyError as exc:
        raise ValueError(str(exc)) from None


#: Family defaults of the ``*-reconf`` presets: a frequency change costs a
#: millisecond-scale PLL/relock stall that additionally draws regulator
#: power, and a voltage drop sags for longer before settling — the
#: constrained-IoT reconfiguration regime of Rottleuthner et al., scaled
#: to the 10 ms quantum of this simulator.  ``MachineSpec`` fields
#: override any of them (``MachineSpec("itsy-reconf", reconf_power_w=0)``).
RECONF_CLOCK_STALL_US = 1_000.0
RECONF_VOLT_SETTLE_US = 500.0
RECONF_POWER_W = 0.12


def _with_reconf_costs(machine: Machine) -> Machine:
    machine.cpu.clock_change_stall_us = RECONF_CLOCK_STALL_US
    machine.cpu.rail.down_settle_us = RECONF_VOLT_SETTLE_US
    machine.reconf_extra_w = RECONF_POWER_W
    return machine


def _build_itsy_reconf(spec: MachineSpec) -> Machine:
    return _with_reconf_costs(_build_itsy(spec))


def _build_sa2_reconf(spec: MachineSpec) -> Machine:
    return _with_reconf_costs(_build_sa2(spec))


#: Machine presets by stable name.  Names are part of the sweep cache-key
#: schema: renaming one invalidates cached results built through it, so
#: the set is fixed here and never changes at run time.
MACHINE_PRESETS: Dict[str, MachinePreset] = {
    "itsy": MachinePreset(
        builder=_build_itsy,
        clock_table=SA1100_CLOCK_TABLE,
        description=(
            "WRL-modified Itsy (SA-1100): 59.0-206.4 MHz, "
            "1.5 V core switchable to 1.23 V"
        ),
    ),
    "itsy-stock": MachinePreset(
        builder=_build_itsy_stock,
        clock_table=SA1100_CLOCK_TABLE,
        description="unmodified Itsy (SA-1100): 59.0-206.4 MHz, 1.5 V core only",
    ),
    "sa2": MachinePreset(
        builder=_build_sa2,
        clock_table=SA2_CLOCK_TABLE,
        description=(
            "hypothetical StrongARM SA-2: 150-600 MHz, "
            "per-step voltage schedule 1.018-1.8 V"
        ),
    ),
    "itsy-reconf": MachinePreset(
        builder=_build_itsy_reconf,
        clock_table=SA1100_CLOCK_TABLE,
        description=(
            "modified Itsy with costly reconfiguration: 1 ms clock-change "
            "stall at +0.12 W, 500 us voltage sag"
        ),
    ),
    "sa2-reconf": MachinePreset(
        builder=_build_sa2_reconf,
        clock_table=SA2_CLOCK_TABLE,
        description=(
            "SA-2 with costly reconfiguration: 1 ms clock-change "
            "stall at +0.12 W, 500 us voltage sag"
        ),
    ),
}


def _preset(name: str) -> MachinePreset:
    try:
        return MACHINE_PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown machine {name!r}; see 'list-machines'"
        ) from None
