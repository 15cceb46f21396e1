"""Execution-backend equivalence: fastpath ≡ reference, bitwise.

The fast-path backend (:mod:`repro.kernel.fastpath`) is only allowed to
be faster — never different.  These tests drive every catalog policy ×
workload × machine through both backends and assert bitwise equality of
everything a run records: energies (exact and DAQ-sampled), deadline
misses, the quantum log and its statistics, the power timeline,
clock/voltage transition logs and counters, per-pid busy accounting,
and application events.
Exception behaviour must match too (e.g. the stock Itsy rejecting the
1.23 V request of ``best-voltage``) — same type, same message.  The
observed grid re-runs the whole grid keeping the scheduler log, and
demands identical Chrome trace exports and diagnoses from both backends,
not just identical runs.
"""

import pytest

from repro.core.catalog import resolve_policy
from repro.hw.machines import MachineSpec
from repro.kernel.config import KernelConfig
from repro.kernel.fastpath import FastKernel
from repro.kernel.process import SleepUntil
from repro.kernel.recorders import RECORDING_MINIMAL
from repro.kernel.scheduler import Kernel
from repro.measure.parallel import (
    PolicySpec,
    ResultCache,
    SweepCell,
    SweepEngine,
    WorkloadSpec,
)
from repro.measure.runner import run_workload
from repro.obs.diagnose import diagnose
from repro.obs.trace import chrome_trace
from repro.workloads.chess import ChessConfig, chess_workload
from repro.workloads.editor import EditorConfig, editor_workload
from repro.workloads.mpeg import MpegConfig, mpeg_workload
from repro.workloads.web import WebConfig, web_workload

DURATION_S = 2.0

MACHINES = ["itsy", "itsy-stock", "sa2", "itsy@1.23", "itsy-reconf", "sa2-reconf"]

#: Every policy family in the catalog grammar.  ``const-min``/``const-max``
#: are placeholders resolved against each machine's own clock table.
POLICY_KEYS = [
    "best",
    "best-voltage",
    "past-one",
    "past-double",
    "past-peg",
    "past-peg-98-93",
    "avg3-double",
    "avg9-peg",
    "cycleavg",
    "synth",
    "const-min",
    "const-max",
]

WORKLOAD_BUILDERS = {
    "mpeg": lambda s: mpeg_workload(MpegConfig(duration_s=s)),
    "web": lambda s: web_workload(WebConfig(duration_s=s)),
    "chess": lambda s: chess_workload(ChessConfig(duration_s=s)),
    "editor": lambda s: editor_workload(EditorConfig(duration_s=s)),
}


def policy_name(key: str, spec: MachineSpec) -> str:
    table = spec.clock_table()
    if key == "const-min":
        return f"const-{table.min_step.mhz:.1f}"
    if key == "const-max":
        return f"const-{table.max_step.mhz:.1f}"
    return key


def run_one(
    workload_name,
    policy,
    spec,
    backend,
    recording="full",
    use_daq=False,
    seed=0,
    duration_s=DURATION_S,
    kernel_config=None,
):
    workload = WORKLOAD_BUILDERS[workload_name](duration_s)
    factory = resolve_policy(policy, clock_table=spec.clock_table())
    return run_workload(
        workload,
        factory,
        machine_factory=spec,
        seed=seed,
        use_daq=use_daq,
        recording=recording,
        kernel_config=kernel_config,
        backend=backend,
    )


def assert_bitwise_equal(ref, fast):
    """Every recorded number must match exactly — no tolerances."""
    assert fast.energy_j == ref.energy_j
    assert fast.exact_energy_j == ref.exact_energy_j
    assert fast.mean_power_w == ref.mean_power_w
    assert fast.misses == ref.misses
    rr, fr = ref.run, fast.run
    assert fr.duration_us == rr.duration_us
    assert fr.quanta == rr.quanta
    assert fr.quantum_stats == rr.quantum_stats
    assert fr.timeline._segments == rr.timeline._segments
    assert fr.freq_changes == rr.freq_changes
    assert fr.volt_changes == rr.volt_changes
    assert fr.events == rr.events
    assert fr.busy_us_by_pid == rr.busy_us_by_pid
    assert fr.process_names == rr.process_names
    assert fr.clock_changes == rr.clock_changes
    assert fr.clock_stall_us == rr.clock_stall_us
    assert fr.voltage_changes == rr.voltage_changes
    assert fr.voltage_settle_us == rr.voltage_settle_us


class TestCatalogGrid:
    """The acceptance grid: every policy × workload × machine, both backends."""

    @pytest.mark.parametrize("machine", MACHINES)
    @pytest.mark.parametrize("workload", sorted(WORKLOAD_BUILDERS))
    @pytest.mark.parametrize("key", POLICY_KEYS)
    def test_backends_bitwise_equal(self, key, workload, machine):
        spec = MachineSpec.parse(machine)
        policy = policy_name(key, spec)
        ref = fast = ref_exc = fast_exc = None
        try:
            ref = run_one(workload, policy, spec, backend="reference")
        except Exception as exc:  # noqa: BLE001 - parity check below
            ref_exc = exc
        try:
            fast = run_one(workload, policy, spec, backend="fastpath")
        except Exception as exc:  # noqa: BLE001 - parity check below
            fast_exc = exc
        if ref_exc is not None or fast_exc is not None:
            # Both backends must fail identically (e.g. best-voltage on
            # the stock Itsy: "this Itsy unit does not support 1.23 V").
            assert type(fast_exc) is type(ref_exc)
            assert str(fast_exc) == str(ref_exc)
            return
        assert_bitwise_equal(ref, fast)


def observed_run(workload, policy, spec, backend, duration_s):
    """One observed run on ``backend``: its trace export and diagnosis."""
    result = run_one(
        workload, policy, spec, backend=backend, duration_s=duration_s,
        kernel_config=KernelConfig(record_sched_log=True),
    )
    diagnosis = diagnose(
        result,
        policy=policy,
        workload=workload,
        machine=spec,
        machine_label=spec.label,
    )
    return result, chrome_trace(result.run), diagnosis


class TestObservedGrid:
    """The same grid, observed: runs that keep their scheduler log must
    stay bitwise-identical across backends and export identical traces
    and diagnoses."""

    OBSERVED_DURATION_S = 1.0

    @pytest.mark.parametrize("machine", MACHINES)
    @pytest.mark.parametrize("workload", sorted(WORKLOAD_BUILDERS))
    @pytest.mark.parametrize("key", POLICY_KEYS)
    def test_observers_identical_across_backends(self, key, workload, machine):
        spec = MachineSpec.parse(machine)
        policy = policy_name(key, spec)
        outcomes = {}
        errors = {}
        for backend in ("reference", "fastpath"):
            try:
                outcomes[backend] = observed_run(
                    workload, policy, spec, backend, self.OBSERVED_DURATION_S
                )
            except Exception as exc:  # noqa: BLE001 - parity check below
                errors[backend] = exc
        if errors:
            ref_exc = errors.get("reference")
            fast_exc = errors.get("fastpath")
            assert type(fast_exc) is type(ref_exc)
            assert str(fast_exc) == str(ref_exc)
            return
        ref, ref_trace, ref_diag = outcomes["reference"]
        fast, fast_trace, fast_diag = outcomes["fastpath"]
        assert_bitwise_equal(ref, fast)
        assert fast.run.sched_rows == ref.run.sched_rows
        # The trace export: every event, field for field.
        assert fast_trace == ref_trace
        # Diagnosis: the full report, field for field.
        assert fast_diag.to_json() == ref_diag.to_json()


class TestRecordingModes:
    @pytest.mark.parametrize("key", POLICY_KEYS)
    def test_minimal_recording_matches_reference(self, key):
        spec = MachineSpec.parse("itsy")
        policy = policy_name(key, spec)
        ref = run_one(
            "mpeg", policy, spec, "reference", recording=RECORDING_MINIMAL
        )
        fast = run_one(
            "mpeg", policy, spec, "fastpath", recording=RECORDING_MINIMAL
        )
        assert fast.exact_energy_j == ref.exact_energy_j
        assert fast.run.energy == ref.run.energy
        assert fast.run.quantum_stats == ref.run.quantum_stats
        assert fast.run.busy_us_by_pid == ref.run.busy_us_by_pid

    def test_minimal_equals_full_on_fastpath(self):
        spec = MachineSpec.parse("itsy")
        full = run_one("mpeg", "best", spec, "fastpath")
        minimal = run_one(
            "mpeg", "best", spec, "fastpath", recording=RECORDING_MINIMAL
        )
        assert minimal.exact_energy_j == full.exact_energy_j
        assert minimal.run.quantum_stats.count == len(full.run.quanta)
        usum = 0.0  # left to right, as the kernel sums; not sum()
        for q in full.run.quanta:
            usum += q.utilization
        assert minimal.run.quantum_stats.utilization_sum == usum

    def test_unknown_recording_mode_rejected(self):
        spec = MachineSpec.parse("itsy")
        with pytest.raises(ValueError, match="unknown recording mode"):
            FastKernel(spec(), recording="verbose")


def test_a_nan_wake_time_fails_alike():
    """SleepUntil sleeps until ``max(wake_us, now)`` on both kernels, so
    a NaN wake time reaches the tick rounding and raises the same error
    on both, rather than sleeping one tick on one of them."""

    def body(ctx):
        yield SleepUntil(float("nan"))

    errors = []
    for kernel_class in (Kernel, FastKernel):
        kernel = kernel_class(MachineSpec.parse("itsy")())
        kernel.spawn("sleeper", body)
        with pytest.raises(ValueError) as info:
            kernel.run(30_000.0)
        errors.append(str(info.value))
    assert errors[0] == errors[1]


def test_fast_kernel_keeps_only_its_hot_loop():
    """Everything but the loop is the reference kernel's own code: power
    recording and its watts, action dispatch, the run lifecycle and the
    run record."""
    own = {name for name in vars(FastKernel) if not name.startswith("__")}
    assert own == {"run", "_run_impl"}


class TestDaqPath:
    @pytest.mark.parametrize("workload", sorted(WORKLOAD_BUILDERS))
    def test_daq_energy_bitwise_equal(self, workload):
        spec = MachineSpec.parse("itsy")
        ref = run_one(workload, "best", spec, "reference", use_daq=True)
        fast = run_one(workload, "best", spec, "fastpath", use_daq=True)
        assert fast.energy_j == ref.energy_j
        assert fast.mean_power_w == ref.mean_power_w


class TestLongRuns:
    """Longer runs exercise DVFS settling, sag windows and preemption."""

    @pytest.mark.parametrize("policy", ["best", "best-voltage"])
    def test_30s_mpeg_bitwise_equal(self, policy):
        spec = MachineSpec.parse("itsy")
        ref = run_one("mpeg", policy, spec, "reference", duration_s=30.0)
        fast = run_one("mpeg", policy, spec, "fastpath", duration_s=30.0)
        assert_bitwise_equal(ref, fast)

    def test_sched_log_matches(self):
        from repro.kernel.config import KernelConfig

        spec = MachineSpec.parse("itsy")
        cfg = KernelConfig(record_sched_log=True)
        workload = WORKLOAD_BUILDERS["mpeg"](DURATION_S)
        factory = resolve_policy("best", clock_table=spec.clock_table())
        ref = run_workload(
            workload, factory, machine_factory=spec, use_daq=False,
            kernel_config=cfg, backend="reference",
        )
        fast = run_workload(
            workload, factory, machine_factory=spec, use_daq=False,
            kernel_config=cfg, backend="fastpath",
        )
        assert fast.run.sched_log == ref.run.sched_log


class TestSweepIntegration:
    def test_fastpath_cell_result_bitwise_equal(self):
        base = dict(
            workload=WorkloadSpec("mpeg", MpegConfig(duration_s=0.4)),
            policy=PolicySpec("best"),
        )
        fast = SweepCell(backend="fastpath", **base).run()
        ref = SweepCell(backend="reference", **base).run()
        assert fast == ref

    def test_backends_share_cache(self, tmp_path):
        base = dict(
            workload=WorkloadSpec("mpeg", MpegConfig(duration_s=0.4)),
            policy=PolicySpec("best"),
        )
        cache = ResultCache(tmp_path)
        cold = SweepEngine(cache=cache)
        cold.run([SweepCell(backend="fastpath", **base)])
        assert cold.stats.executed == 1
        warm = SweepEngine(cache=cache)
        warm.run([SweepCell(backend="reference", **base)])
        assert warm.stats.cache_hits == 1
        assert warm.stats.executed == 0
