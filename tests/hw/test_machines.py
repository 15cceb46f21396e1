"""Tests for the machine-spec layer (named presets and boot voltages)."""

import dataclasses
import pickle

import pytest

from repro.hw.itsy import ItsyMachine
from repro.hw.machines import MACHINE_PRESETS, MachineSpec
from repro.hw.sa2 import Sa2Machine


class TestParse:
    def test_bare_preset(self):
        assert MachineSpec.parse("itsy") == MachineSpec()
        assert MachineSpec.parse("sa2") == MachineSpec(name="sa2")

    def test_boot_voltage(self):
        spec = MachineSpec.parse("itsy@1.23")
        assert spec.name == "itsy"
        assert spec.initial_volts == 1.23

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown machine"):
            MachineSpec.parse("sa3")

    def test_malformed_voltage_rejected(self):
        with pytest.raises(ValueError, match="bad machine spec"):
            MachineSpec.parse("itsy@fast")


class TestPresets:
    def test_registry_names(self):
        assert {"itsy", "itsy-stock", "sa2"} <= set(MACHINE_PRESETS)

    def test_default_is_modified_itsy(self):
        machine = MachineSpec().build()
        assert isinstance(machine, ItsyMachine)
        assert machine.step.mhz == 206.4
        assert machine.volts == 1.5

    def test_itsy_low_voltage_boots_fastest_safe_step(self):
        machine = MachineSpec.parse("itsy@1.23").build()
        assert machine.volts == 1.23
        assert machine.step.mhz == pytest.approx(162.2)

    def test_stock_itsy_rejects_low_voltage(self):
        with pytest.raises(ValueError):
            MachineSpec(name="itsy-stock", initial_volts=1.23).build()

    def test_sa2_builds_with_schedule(self):
        machine = MachineSpec(name="sa2").build()
        assert isinstance(machine, Sa2Machine)
        assert machine.step.mhz == 600.0
        assert machine.volts == pytest.approx(1.8)

    def test_sa2_rejects_boot_voltage(self):
        with pytest.raises(ValueError, match="voltage schedule"):
            MachineSpec(name="sa2", initial_volts=1.5).build()

    def test_spec_is_a_machine_factory(self):
        spec = MachineSpec()
        assert isinstance(spec(), ItsyMachine)
        assert spec() is not spec()


class TestSpecProperties:
    def test_pickles(self):
        spec = MachineSpec.parse("sa2")
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert isinstance(clone.build(), Sa2Machine)

    def test_fields_are_preset_and_boot_voltage(self):
        assert [f.name for f in dataclasses.fields(MachineSpec)] == [
            "name", "initial_volts",
        ]
        with pytest.raises(TypeError):
            MachineSpec(**{"power": ()})

    def test_label_is_the_machine_spelling(self):
        for text in ("itsy", "itsy@1.23", "itsy-stock", "sa2",
                     "itsy-reconf", "sa2-reconf"):
            assert MachineSpec.parse(text).label == text

    def test_clock_table_matches_built_machine(self):
        for name in ("itsy", "itsy-stock", "sa2"):
            spec = MachineSpec(name=name)
            assert [s.mhz for s in spec.clock_table()] == [
                s.mhz for s in spec.build().clock_table
            ]


class TestReconfPresets:
    """The *-reconf family: frequency/voltage changes that cost something."""

    def test_registered(self):
        assert {"itsy-reconf", "sa2-reconf"} <= set(MACHINE_PRESETS)

    @pytest.mark.parametrize("name,base_type", [
        ("itsy-reconf", ItsyMachine), ("sa2-reconf", Sa2Machine),
    ])
    def test_build_sets_costs(self, name, base_type):
        from repro.hw.machines import (
            RECONF_CLOCK_STALL_US,
            RECONF_POWER_W,
            RECONF_VOLT_SETTLE_US,
        )

        machine = MachineSpec(name=name).build()
        assert isinstance(machine, base_type)
        assert machine.cpu.clock_change_stall_us == RECONF_CLOCK_STALL_US
        assert machine.cpu.rail.down_settle_us == RECONF_VOLT_SETTLE_US
        assert machine.reconf_extra_w == RECONF_POWER_W

    def test_measured_machines_have_zero_extra_power(self):
        for name in ("itsy", "itsy-stock", "sa2"):
            assert MachineSpec(name=name).build().reconf_extra_w == 0.0

    def test_reconf_cells_get_distinct_cache_keys(self):
        from repro.measure.parallel import PolicySpec, SweepCell, cache_key
        from repro.measure.parallel import WorkloadSpec as SweepWorkloadSpec

        def key(machine):
            return cache_key(SweepCell(
                workload=SweepWorkloadSpec("mpeg"),
                policy=PolicySpec("best"),
                machine=MachineSpec(name=machine),
            ))

        assert key("itsy") != key("itsy-reconf")
        assert key("sa2") != key("sa2-reconf")

    def test_reconf_run_costs_more_energy(self):
        from repro.core.catalog import resolve_policy
        from repro.measure.runner import run_workload
        from repro.workloads.mpeg import MpegConfig, mpeg_workload

        def energy(machine):
            return run_workload(
                mpeg_workload(MpegConfig(duration_s=2.0)),
                resolve_policy("best"),
                machine_factory=MachineSpec(name=machine),
                use_daq=False,
            ).exact_energy_j

        assert energy("itsy-reconf") > energy("itsy")
