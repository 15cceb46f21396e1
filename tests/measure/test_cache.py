"""Cache-key and result-cache tests for the sweep engine.

The cache key must be a pure function of the cell's *values* — any change
to the policy (predictor decay N, speed setter, thresholds), the workload
config, the seed, or the kernel config must move the key, while
irrelevancies (spelling a default config explicitly, process restarts)
must not.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.hw.machines import MachineSpec
from repro.kernel.config import KernelConfig
from repro.measure.parallel import (
    CACHE_SCHEMA_VERSION,
    PolicySpec,
    ResultCache,
    SweepCell,
    SweepEngine,
    WorkloadSpec,
    cache_key,
    constant_step_cells,
)
from repro.workloads.fuzz import FuzzSpec
from repro.workloads.mpeg import MpegConfig
from repro.workloads.web import WebConfig


def cell(**overrides) -> SweepCell:
    defaults = dict(
        workload=WorkloadSpec("mpeg", MpegConfig(duration_s=0.4)),
        policy=PolicySpec("avg3-one"),
        seed=0,
    )
    defaults.update(overrides)
    return SweepCell(**defaults)


class TestKeySensitivity:
    """Every axis of the experiment grid must move the key."""

    def test_seed(self):
        assert cache_key(cell(seed=0)) != cache_key(cell(seed=1))

    def test_daq_seed_and_use_daq(self):
        assert cache_key(cell(daq_seed=7)) != cache_key(cell())
        assert cache_key(cell(use_daq=False)) != cache_key(cell())

    def test_decay_n(self):
        assert cache_key(cell(policy=PolicySpec("avg3-one"))) != cache_key(
            cell(policy=PolicySpec("avg5-one"))
        )

    def test_speed_setter(self):
        assert cache_key(cell(policy=PolicySpec("avg3-one"))) != cache_key(
            cell(policy=PolicySpec("avg3-peg"))
        )

    def test_thresholds(self):
        pering = PolicySpec("avg3-one-70-50")
        tighter = PolicySpec("avg3-one-98-93")
        assert cache_key(cell(policy=pering)) != cache_key(cell(policy=tighter))

    def test_constant_voltage(self):
        assert cache_key(cell(policy=PolicySpec("const-132.7"))) != cache_key(
            cell(policy=PolicySpec("const-132.7@1.23"))
        )

    def test_workload_name_and_config(self):
        assert cache_key(
            cell(workload=WorkloadSpec("web", WebConfig(duration_s=0.4)))
        ) != cache_key(cell())
        assert cache_key(
            cell(workload=WorkloadSpec("mpeg", MpegConfig(duration_s=0.5)))
        ) != cache_key(cell())

    def test_machine_preset(self):
        assert cache_key(cell(machine=MachineSpec(name="sa2"))) != cache_key(cell())

    def test_machine_boot_voltage(self):
        assert cache_key(
            cell(machine=MachineSpec.parse("itsy@1.23"))
        ) != cache_key(cell())

    def test_machine_power_override(self):
        assert cache_key(
            cell(machine=MachineSpec(power=(("fixed_w", 0.5),)))
        ) != cache_key(cell())

    def test_every_kernel_config_field(self):
        base = cache_key(cell())
        assert cache_key(cell(kernel_config=KernelConfig(quantum_us=5_000.0))) != base
        assert cache_key(
            cell(kernel_config=KernelConfig(sched_overhead_us=0.0))
        ) != base
        assert cache_key(
            cell(kernel_config=KernelConfig(record_sched_log=True))
        ) != base


class TestKeyStability:
    """Irrelevant differences must NOT move the key."""

    def test_default_config_spelled_out(self):
        assert cache_key(
            cell(workload=WorkloadSpec("mpeg", MpegConfig()))
        ) == cache_key(cell(workload=WorkloadSpec("mpeg")))

    def test_default_kernel_config_spelled_out(self):
        assert cache_key(cell(kernel_config=KernelConfig())) == cache_key(
            cell(kernel_config=None)
        )

    def test_default_machine_spelled_out(self):
        assert cache_key(cell(machine=MachineSpec())) == cache_key(
            cell(machine=MachineSpec(name="itsy"))
        )

    def test_recording_mode_does_not_move_key(self):
        """Recording modes are bitwise-equivalent, so they share entries."""
        assert cache_key(cell(recording="minimal")) == cache_key(
            cell(recording="full")
        )

    @pytest.mark.parametrize(
        "the_cell,key",
        [
            (
                SweepCell(
                    workload=WorkloadSpec("mpeg"),
                    policy=PolicySpec("best"),
                    seed=1000,
                    machine=MachineSpec.parse("itsy"),
                ),
                "c6d374308e975262186e779377715296b5b3c3b01be5e673b9e07a87d59e5891",
            ),
            (
                SweepCell(
                    workload=WorkloadSpec("mpeg"),
                    policy=PolicySpec("const-132.7@1.23"),
                    seed=2000,
                    machine=MachineSpec.parse("itsy"),
                ),
                "ce4cce9f7774b55b117cc3beb70ee123fb29d85844d4f27820b4437e4481e06a",
            ),
            (
                SweepCell(
                    workload=WorkloadSpec("web", WebConfig(duration_s=20.0)),
                    policy=PolicySpec("avg3-one"),
                    seed=3,
                    machine=MachineSpec.parse("sa2"),
                ),
                "0933ce4c2080085718d3ef12ecee5364f149647df14a1a42c68bc7894af5e4fb",
            ),
            (
                SweepCell(
                    workload=WorkloadSpec("fuzz", FuzzSpec(seed=7, duration_s=1.0)),
                    policy=PolicySpec("best"),
                    machine=MachineSpec.parse("itsy-reconf"),
                ),
                "35a30637b0821e088ecde58d8e753dafb43c1464d8c1fdd3673ef0eb5b3cfa7d",
            ),
            (
                constant_step_cells(
                    WorkloadSpec("mpeg", MpegConfig(duration_s=5.0))
                )[5],
                "09ce46127a20219bba84fdf3e556b03d6c9f8de71d2c177c5426af0e1bd5ded3",
            ),
        ],
        ids=["table2-best", "table2-const-1.23v", "sa2-avg3-web",
             "itsy-reconf-fuzz", "constant-step-baseline"],
    )
    def test_pinned_digest(self, the_cell, key):
        """Keys are pinned across commits: a digest that moves orphans
        every cached result and run-log ``run_id`` written before it."""
        assert cache_key(the_cell) == key

    def test_stable_across_process_restarts(self):
        """The key depends on values only — never on hash randomization."""
        here = cache_key(cell())
        src = Path(repro.__file__).resolve().parents[1]
        code = (
            "from repro.measure.parallel import SweepCell, WorkloadSpec, "
            "PolicySpec, cache_key\n"
            "from repro.workloads.mpeg import MpegConfig\n"
            "print(cache_key(SweepCell(workload=WorkloadSpec('mpeg', "
            "MpegConfig(duration_s=0.4)), policy=PolicySpec('avg3-one'), "
            "seed=0)))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        for salt in ("0", "1", "random"):
            env["PYTHONHASHSEED"] = salt
            out = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            assert out.stdout.strip() == here


class TestResultCache:
    def test_round_trip_exact(self, tmp_path):
        result = cell(use_daq=False).run()
        cache = ResultCache(tmp_path)
        key = cache_key(cell(use_daq=False))
        cache.put(key, result)
        assert cache.get(key) == result
        assert len(cache) == 1

    def test_miss_on_absent_key(self, tmp_path):
        assert ResultCache(tmp_path).get("0" * 64) is None

    def test_miss_on_corrupt_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "1" * 64
        cache.path_for(key).parent.mkdir(parents=True, exist_ok=True)
        cache.path_for(key).write_text("{not json")
        assert cache.get(key) is None

    @pytest.mark.parametrize(
        "payload",
        [
            "null",
            "[]",
            '"x"',
            json.dumps({"schema": CACHE_SCHEMA_VERSION, "result": [[1, 2, 3]]}),
        ],
        ids=["null", "list", "string", "result-not-pairs"],
    )
    def test_damaged_entry_is_a_miss_and_resimulates(self, tmp_path, payload):
        the_cell = cell(use_daq=False)
        key = cache_key(the_cell)
        cache = ResultCache(tmp_path)
        cache.path_for(key).parent.mkdir(parents=True, exist_ok=True)
        cache.path_for(key).write_text(payload)
        assert cache.get(key) is None

        engine = SweepEngine(cache=cache)
        assert engine.run([the_cell]) == [the_cell.run()]
        assert engine.stats.executed == 1
        assert cache.get(key) == the_cell.run()

    def test_miss_on_schema_change(self, tmp_path):
        result = cell(use_daq=False).run()
        cache = ResultCache(tmp_path)
        key = cache_key(cell(use_daq=False))
        cache.put(key, result)
        payload = json.loads(cache.path_for(key).read_text())
        payload["schema"] = CACHE_SCHEMA_VERSION + 1
        cache.path_for(key).write_text(json.dumps(payload))
        assert cache.get(key) is None

    def test_no_temp_droppings(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("2" * 64, cell(use_daq=False).run())
        assert not list(tmp_path.glob("*.tmp"))

    def test_old_schema_entries_reexecute_cleanly(self, tmp_path):
        """An engine over a cache of old-schema entries must miss and
        re-simulate — never error out or serve stale numbers."""
        the_cell = cell(use_daq=False)
        key = cache_key(the_cell)
        stale = ResultCache(tmp_path)
        stale.put(key, the_cell.run())
        payload = json.loads(stale.path_for(key).read_text())
        payload["schema"] = CACHE_SCHEMA_VERSION - 1
        stale.path_for(key).write_text(json.dumps(payload))

        engine = SweepEngine(cache=ResultCache(tmp_path))
        results = engine.run([the_cell])
        assert engine.stats.executed == 1
        assert engine.stats.cache_hits == 0
        assert results == [the_cell.run()]
        # The refreshed entry is keyed under the current schema again.
        refreshed = json.loads(stale.path_for(key).read_text())
        assert refreshed["schema"] == CACHE_SCHEMA_VERSION
