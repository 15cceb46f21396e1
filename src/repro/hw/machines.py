"""Machine presets addressable by name: the spec layer for the machine axis.

:class:`MachineSpec` is the machine-side sibling of
:class:`~repro.measure.parallel.WorkloadSpec` and ``PolicySpec``: a frozen,
picklable value naming a machine preset and its boot voltage, exactly as
``--machine`` spells it.  Specs — unlike machine instances — pickle
cleanly and digest stably, which is what lets sweep cells carry the
machine axis to worker processes and into content-addressed cache keys.

The named presets (also printed by ``python -m repro list-machines``) are
every machine a spec can name:

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
is safe there).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.hw.clocksteps import SA1100_CLOCK_TABLE, SA2_CLOCK_TABLE, ClockTable
from repro.hw.rails import DEFAULT_LOW_VOLTAGE_MAX_MHZ, VOLTAGE_HIGH

# The machine models load only when a spec builds a machine, so sweep
# cells and cache keys name machines without loading the simulator.
if TYPE_CHECKING:
    from repro.hw.machine import Machine


@dataclass(frozen=True)
class MachineSpec:
    """A machine named by preset and boot voltage.

    Attributes:
        name: preset name (see :data:`MACHINE_PRESETS`).
        initial_volts: boot core voltage (presets with a voltage schedule
            reject this).
    """

    name: str = "itsy"
    initial_volts: Optional[float] = None

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
        """The spec as ``--machine`` spells it."""
        if self.initial_volts is None:
            return self.name
        return f"{self.name}@{self.initial_volts:g}"

    def clock_table(self) -> ClockTable:
        """The clock table this machine will have once built."""
        return _preset(self.name).clock_table

    def build(self) -> Machine:
        """Construct a fresh machine instance from this spec.

        Raises:
            ValueError: for unknown presets, or a boot voltage the preset
                does not support.
        """
        return _preset(self.name).builder(self)

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


def _build_itsy(spec: MachineSpec, low_voltage_available: bool = True) -> Machine:
    from repro.hw.itsy import ItsyConfig, ItsyMachine

    volts = VOLTAGE_HIGH if spec.initial_volts is None else spec.initial_volts
    if volts < VOLTAGE_HIGH:
        # Booting on the reduced rail: its frequency bound is a Table 3
        # step, the fastest one that is safe there.
        mhz = DEFAULT_LOW_VOLTAGE_MAX_MHZ
    else:
        mhz = SA1100_CLOCK_TABLE.max_step.mhz
    return ItsyMachine(ItsyConfig(
        initial_mhz=mhz,
        initial_volts=volts,
        low_voltage_available=low_voltage_available,
    ))


def _build_itsy_stock(spec: MachineSpec) -> Machine:
    return _build_itsy(spec, low_voltage_available=False)


def _build_sa2(spec: MachineSpec) -> Machine:
    from repro.hw.sa2 import Sa2Machine

    if spec.initial_volts is not None:
        raise ValueError(
            "sa2 follows a per-step voltage schedule; it takes no boot voltage"
        )
    return Sa2Machine()


#: Family defaults of the ``*-reconf`` presets: a frequency change costs a
#: millisecond-scale PLL/relock stall that additionally draws regulator
#: power, and a voltage drop sags for longer before settling — the
#: constrained-IoT reconfiguration regime of Rottleuthner et al., scaled
#: to the 10 ms quantum of this simulator.
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
