"""Tests for the differential fuzz harness (and the backend-agnostic
run records it leans on)."""

import io
from contextlib import redirect_stderr
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.catalog import resolve_policy
from repro.hw.machines import MachineSpec
from repro.kernel.config import KernelConfig
from repro.measure.differential import (
    RESIDUAL_TOLERANCE_J,
    DifferentialOutcome,
    check_scenario,
    compare_results,
    counterexample_entry,
    shrink_fuzz_spec,
)
from repro.measure.parallel import (
    PolicySpec,
    SweepCell,
    SweepEngine,
    WorkloadSpec,
)
from repro.measure.runner import run_workload
from repro.obs.profile import SweepTimeline
from repro.obs.trace import chrome_trace
from repro.traces.corpus import load_entry, save_entry
from repro.workloads.fuzz import FuzzSpec, fuzz_family
from repro.workloads.mpeg import MpegConfig, mpeg_workload

MACHINES = ["itsy", "itsy-reconf", "sa2", "sa2-reconf"]


class TestCompareResults:
    def run_pair(self, seed=0):
        gov = resolve_policy("best")
        wl = mpeg_workload(MpegConfig(duration_s=0.5))
        ref = run_workload(wl, gov, seed=seed, use_daq=False,
                           backend="reference")
        fast = run_workload(wl, gov, seed=seed, use_daq=False,
                            backend="fastpath")
        return ref, fast

    def test_identical_runs_have_no_mismatches(self):
        ref, fast = self.run_pair()
        assert compare_results(ref, fast) == []

    def test_differing_runs_are_named(self):
        ref, _ = self.run_pair(seed=0)
        other, _ = self.run_pair(seed=1)
        mismatches = compare_results(ref, other)
        assert "quanta" in mismatches
        assert "quantum_stats" in mismatches
        assert "energy_j" in mismatches


class TestCheckFuzzSpec:
    @pytest.mark.parametrize("machine", MACHINES)
    def test_cores_agree_on_every_machine(self, machine):
        outcome = check_scenario(
            FuzzSpec(seed=21, duration_s=0.5),
            policy="past-peg",
            machine=MachineSpec.parse(machine),
        )
        assert outcome.ok, outcome.describe()
        assert outcome.mismatches == ()

    @pytest.mark.parametrize("machine", MACHINES)
    def test_energy_decomposition_closes(self, machine):
        outcome = check_scenario(
            FuzzSpec(seed=22, duration_s=0.5, processes=2),
            policy="best",
            machine=MachineSpec.parse(machine),
        )
        assert outcome.residual_j is not None
        assert outcome.residual_j <= RESIDUAL_TOLERANCE_J

    def test_exception_parity_counts_as_ok(self):
        # best-voltage requests 1.23 V, which the stock Itsy rejects in
        # both cores with the same message: parity, so no failure.
        outcome = check_scenario(
            FuzzSpec(seed=1, duration_s=0.4),
            policy="best-voltage",
            machine=MachineSpec("itsy-stock"),
        )
        assert outcome.ok
        assert outcome.reference is None  # the run never completed
        assert outcome.raised.startswith("ValueError: ")
        assert "both backends raised ValueError" in outcome.describe()

    def test_family_batch_is_clean(self):
        for spec in fuzz_family(4, master_seed=17, duration_s=0.5):
            outcome = check_scenario(spec, "best", MachineSpec("itsy-reconf"))
            assert outcome.ok, outcome.describe()

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        burstiness=st.floats(min_value=0.0, max_value=1.0),
        idle_storm=st.floats(min_value=0.0, max_value=1.0),
        tightness=st.floats(min_value=0.0, max_value=1.0),
        processes=st.integers(min_value=1, max_value=3),
    )
    def test_property_cores_bitwise_equal(
        self, seed, burstiness, idle_storm, tightness, processes
    ):
        spec = FuzzSpec(
            seed=seed,
            duration_s=0.3,
            phases=2,
            burstiness=burstiness,
            idle_storm=idle_storm,
            deadline_tightness=tightness,
            processes=processes,
        )
        outcome = check_scenario(spec, "past-double", MachineSpec("itsy-reconf"))
        assert outcome.ok, outcome.describe()


class TestShrinking:
    def test_passing_spec_returned_unchanged(self):
        spec = FuzzSpec(seed=2, duration_s=0.4)
        shrunk, outcome = shrink_fuzz_spec(spec, "best", MachineSpec("itsy"))
        assert shrunk == spec
        assert outcome.ok

    def test_shrinks_toward_minimal_failing_spec(self, monkeypatch):
        # Fake a failure that persists while processes > 1, so the
        # shrinker must simplify every other knob and keep that one.
        import repro.measure.differential as differential

        real_check = differential.check_scenario

        def fake_check(spec, policy="best", machine=None, seed=0,
                       backend="fastpath"):
            outcome = real_check(spec, policy, machine, seed)
            if spec.processes > 1:
                return replace(outcome, mismatches=("energy_j",))
            return outcome

        monkeypatch.setattr(differential, "check_scenario", fake_check)
        start = FuzzSpec(seed=3, duration_s=0.8, phases=4, processes=2,
                         burstiness=0.5, ramp=0.5, idle_storm=0.25)
        shrunk, outcome = differential.shrink_fuzz_spec(
            start, "best", MachineSpec("itsy")
        )
        assert not outcome.ok
        assert shrunk.processes == 2  # the knob the failure depends on
        assert shrunk.duration_s < start.duration_s
        assert shrunk.phases < start.phases
        assert shrunk.burstiness == 0.0
        assert shrunk.idle_storm == 0.0

    def test_counterexample_round_trips_through_corpus(self, tmp_path):
        outcome = check_scenario(
            FuzzSpec(seed=4, duration_s=0.4), "best", MachineSpec("itsy")
        )
        entry = counterexample_entry(outcome)
        assert entry is not None
        path = save_entry(tmp_path, entry)
        loaded = load_entry(path)
        assert loaded == entry
        provenance = dict(loaded.provenance)
        assert provenance["policy"] == "best"
        assert "FuzzSpec" in provenance["fuzz_spec"]

    def test_no_counterexample_without_reference(self):
        outcome = DifferentialOutcome(
            spec=FuzzSpec(), policy="best", machine="itsy", seed=0,
            exception_mismatch="reference ValueError(x) vs fastpath ok(None)",
        )
        assert counterexample_entry(outcome) is None


class TestObservedBackends:
    """Runs that keep their scheduler log stay on the requested backend."""

    def _observed_run(self, backend):
        result = run_workload(
            mpeg_workload(MpegConfig(duration_s=0.3)),
            resolve_policy("best"),
            kernel_config=KernelConfig(record_sched_log=True),
            use_daq=False,
            backend=backend,
        )
        return result, chrome_trace(result.run)

    def test_no_fallback_note_on_either_backend(self):
        buf = io.StringIO()
        with redirect_stderr(buf):
            self._observed_run("fastpath")
            self._observed_run("reference")
        assert buf.getvalue() == ""

    def test_observed_fastpath_bitwise_equal_to_plain(self):
        observed, _ = self._observed_run("fastpath")
        plain = run_workload(
            mpeg_workload(MpegConfig(duration_s=0.3)),
            resolve_policy("best"),
            use_daq=False,
            backend="fastpath",
        )
        assert compare_results(plain, observed) == []

    def test_observed_trace_identical_across_backends(self):
        fast_result, fast_trace = self._observed_run("fastpath")
        ref_result, ref_trace = self._observed_run("reference")
        assert compare_results(ref_result, fast_result) == []
        assert fast_trace == ref_trace

    def test_observed_sweep_stays_on_requested_backend(self):
        cell = SweepCell(
            workload=WorkloadSpec("mpeg", MpegConfig(duration_s=0.3)),
            policy=PolicySpec("best"),
            machine=MachineSpec("itsy"),
            use_daq=False,
            backend="fastpath",
        )
        buf = io.StringIO()
        with redirect_stderr(buf):
            with SweepEngine(jobs=1, timeline=SweepTimeline()) as engine:
                engine.run([cell])
        assert buf.getvalue() == ""
        assert not hasattr(engine.stats, "fastpath_fallbacks")
        assert "fastpath" not in engine.stats.summary()
