"""Tests for the per-run policy diagnostics engine."""

import json
import math
import subprocess
import sys

import pytest

from repro.cli import workload_spec
from repro.core.catalog import predictor_decay_n, resolve_policy
from repro.hw.machines import MachineSpec
from repro.measure.parallel import (
    PolicySpec,
    ResultCache,
    SweepCell,
    SweepEngine,
    WorkloadSpec,
    find_ideal_constant,
)
from repro.measure.runner import run_workload
from repro.obs.diagnose import (
    ATTRIBUTION_WINDOW_US,
    CAUSE_CAPACITY,
    CAUSE_POLICY,
    DIAGNOSIS_VERSION,
    ENERGY_SUM_TOLERANCE_J,
    SETTLE_CHURN_PER_QUANTUM,
    PolicyDiagnosis,
    attribute_misses,
    diagnose,
    energy_decomposition,
    prediction_errors,
    prediction_ledger,
    read_diagnoses,
    settling_report,
)
from repro.obs.runlog import DiagnosisWriter
from repro.workloads.mpeg import MpegConfig


def run(policy: str, workload: str, duration_s: float, seed: int = 0):
    return run_workload(
        workload_spec(workload, duration_s).build(),
        resolve_policy(policy),
        seed=seed,
        use_daq=False,
    )


def diagnosis_for(policy: str, workload: str, duration_s: float, seed: int = 0):
    result = run(policy, workload, duration_s, seed)
    try:
        baseline = find_ideal_constant(
            workload_spec(workload, duration_s), seed=seed
        ).exact_energy_j
    except ValueError:
        baseline = None
    return diagnose(
        result, policy=policy, workload=workload, seed=seed
    ).against(baseline)


class TestImportOrder:
    def test_obs_imports_standalone(self):
        """repro.obs must import cleanly before repro.measure.

        repro.measure.parallel imports repro.obs.diagnose for worker-side
        diagnosis; diagnose must not import repro.measure back at module
        level or a first `import repro.obs` dies on the half-initialised
        cycle.  Run in a fresh interpreter so this test's own imports
        cannot mask the ordering.
        """
        proc = subprocess.run(
            [sys.executable, "-c", "import repro.obs"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr


class TestSettling:
    """The paper's headline diagnostic: AVG_N never settles; PAST/peg does."""

    def test_avg3_on_mpeg_never_settles(self):
        result = run("avg3-one", "mpeg", 20.0)
        report = settling_report(result.run, predictor_decay_n("avg3-one"))
        assert not report.settled
        assert report.churn_per_quantum > SETTLE_CHURN_PER_QUANTUM
        # Figure 7: AVG_3 re-decides about every eighth quantum, forever.
        assert report.dominant_period_quanta is not None
        assert 4.0 < report.dominant_period_quanta < 10.0
        assert report.dominant_power_fraction > 0.0

    def test_best_policy_settles_on_interactive_workloads(self):
        for workload in ("editor", "web"):
            result = run("past-peg-98-93", workload, 20.0)
            report = settling_report(
                result.run, predictor_decay_n("past-peg-98-93")
            )
            assert report.settled, workload
            assert report.churn_per_quantum <= SETTLE_CHURN_PER_QUANTUM

    def test_constant_policy_is_perfectly_settled(self):
        result = run("const-132.7", "mpeg", 5.0)
        report = settling_report(result.run, None)
        assert report.settled
        assert report.changes_in_tail == 0
        assert report.amplitude_steps == 0
        assert report.dominant_period_quanta is None
        assert report.dominant_power_fraction == 0.0

    def test_predictor_attenuation_positive_but_below_unity(self):
        # The low-pass filter attenuates the oscillation, never kills it.
        result = run("avg3-one", "mpeg", 20.0)
        report = settling_report(result.run, predictor_decay_n("avg3-one"))
        assert report.predictor_alpha is not None
        assert report.attenuation_at_dominant is not None
        assert 0.0 < report.attenuation_at_dominant < 1.0

    def test_rejects_minimal_recording(self):
        result = run_workload(
            workload_spec("mpeg", 2.0).build(),
            resolve_policy("best"),
            use_daq=False,
            recording="minimal",
        )
        with pytest.raises(ValueError, match="full-recording"):
            settling_report(result.run)


class TestPredictionLedger:
    def test_replays_the_avg_recurrence(self):
        # W' = (N*W + u)/(N+1) with W starting at 0; entry t predicts t+1.
        pairs = prediction_errors([1.0, 0.0, 1.0], decay_n=1)
        assert pairs[0] == (0.5, 0.0)
        assert pairs[1] == (0.25, 1.0)

    def test_past_is_decay_zero(self):
        pairs = prediction_errors([0.2, 0.8, 0.4], decay_n=0)
        assert pairs == [(0.2, 0.8), (0.8, 0.4)]

    def test_rejects_negative_decay(self):
        with pytest.raises(ValueError):
            prediction_errors([0.5], decay_n=-1)

    def test_ledger_none_without_predictor(self):
        result = run("const-132.7", "mpeg", 2.0)
        assert prediction_ledger(result.run, None) is None

    def test_ledger_summarizes_run(self):
        result = run("avg3-one", "mpeg", 10.0)
        ledger = prediction_ledger(result.run, 3)
        assert ledger is not None
        assert ledger.decay_n == 3
        assert ledger.count == len(result.run.quanta) - 1
        assert ledger.max_abs_error >= ledger.mean_abs_error
        assert ledger.rms_error >= ledger.mean_abs_error - 1e-12
        assert 1 <= len(ledger.worst) <= 5
        worst_errors = [abs(r - p) for _, p, r in ledger.worst]
        assert math.isclose(worst_errors[0], ledger.max_abs_error)


class TestMissAttribution:
    def test_no_misses_no_attributions(self):
        result = run("best", "mpeg", 5.0)
        assert result.misses == []
        assert attribute_misses(result.run, tolerance_us=result.tolerance_us) == []

    def test_slow_constant_misses_are_policy_misses(self):
        # const-59.0 misses while faster steps exist: the policy's fault.
        result = run("const-59.0", "mpeg", 5.0)
        assert result.misses
        attributions = attribute_misses(
            result.run, tolerance_us=result.tolerance_us, max_step_index=10
        )
        assert len(attributions) == len(result.misses)
        for attribution in attributions:
            assert attribution.cause == CAUSE_POLICY
            assert attribution.lateness_us > 0
            assert attribution.window_start_us <= attribution.deadline_us
            assert (
                attribution.deadline_us - attribution.window_start_us
                <= ATTRIBUTION_WINDOW_US
            )
            assert attribution.min_mhz <= attribution.mean_mhz <= attribution.max_mhz

    def test_top_step_misses_are_capacity_misses(self):
        # Same run, but told the machine tops out at the step it ran:
        # flat-out was still too slow, so the policy is blameless.
        result = run("const-59.0", "mpeg", 5.0)
        attributions = attribute_misses(
            result.run, tolerance_us=result.tolerance_us, max_step_index=0
        )
        assert attributions
        assert all(a.cause == CAUSE_CAPACITY for a in attributions)


class TestEnergyDecomposition:
    def test_components_sum_to_measured(self):
        for policy in ("avg3-one", "past-peg-98-93", "best-voltage"):
            result = run(policy, "mpeg", 10.0)
            baseline = find_ideal_constant(
                workload_spec("mpeg", 10.0), seed=0
            ).exact_energy_j
            decomposition = energy_decomposition(
                result.run, MachineSpec().build()
            ).against(baseline)
            assert (
                abs(decomposition.components_sum_j() - decomposition.measured_j)
                <= ENERGY_SUM_TOLERANCE_J
            )
            assert decomposition.baseline_feasible
            assert decomposition.measured_j == result.run.energy_joules()

    def test_sag_component_only_with_voltage_scaling(self):
        baseline = find_ideal_constant(
            workload_spec("mpeg", 10.0), seed=0
        ).exact_energy_j
        flat = energy_decomposition(
            run("best", "mpeg", 10.0).run, MachineSpec().build()
        ).against(baseline)
        scaled = energy_decomposition(
            run("best-voltage", "mpeg", 10.0).run, MachineSpec().build()
        ).against(baseline)
        assert flat.sag_j == 0.0
        assert scaled.sag_j > 0.0

    def test_stall_component_positive_when_clock_changes(self):
        result = run("avg3-one", "mpeg", 10.0)
        assert result.run.clock_changes > 0
        decomposition = energy_decomposition(result.run, MachineSpec().build())
        assert decomposition.stall_j > 0.0
        assert not decomposition.baseline_feasible
        assert decomposition.baseline_j == 0.0

    def test_rejects_runs_without_timeline(self):
        result = run_workload(
            workload_spec("mpeg", 2.0).build(),
            resolve_policy("best"),
            use_daq=False,
            recording="minimal",
        )
        with pytest.raises(ValueError, match="full-recording"):
            energy_decomposition(result.run, MachineSpec().build())


class TestDiagnose:
    def test_acceptance_verdicts(self):
        # The acceptance pair: AVG_3 on mpeg oscillates; the paper's best
        # policy settles (on the interactive workloads) without missing.
        oscillating = diagnosis_for("avg3-one", "mpeg", 20.0)
        assert not oscillating.settling.settled
        settled = diagnosis_for("past-peg-98-93", "editor", 20.0)
        assert settled.settling.settled or settled.misses > 0
        assert settled.settling.settled  # it actually settles, too

    def test_labels_and_counts(self):
        diagnosis = diagnosis_for("avg3-one", "mpeg", 10.0, seed=3)
        assert diagnosis.policy == "avg3-one"
        assert diagnosis.workload == "mpeg"
        assert diagnosis.machine == "itsy"
        assert diagnosis.seed == 3
        assert diagnosis.quanta == 1000
        assert diagnosis.misses == len(diagnosis.miss_attributions)
        assert diagnosis.ledger is not None
        assert diagnosis.energy.baseline_feasible

    def test_diagnosing_is_pure(self):
        # Diagnosis is a function of a finished run: running it must not
        # perturb the result it explains.
        first = run("best-voltage", "mpeg", 5.0)
        diagnose(first, policy="best-voltage", workload="mpeg")
        second = run("best-voltage", "mpeg", 5.0)
        assert first.run.quanta == second.run.quanta
        assert first.run.freq_changes == second.run.freq_changes
        assert first.run.volt_changes == second.run.volt_changes
        assert list(first.run.timeline) == list(second.run.timeline)
        assert first.exact_energy_j == second.exact_energy_j

    def test_json_round_trip_exact(self):
        diagnosis = diagnosis_for("avg3-one", "mpeg", 10.0)
        rebuilt = PolicyDiagnosis.from_json(diagnosis.to_json())
        assert rebuilt == diagnosis

    def test_json_version_guard(self):
        payload = diagnosis_for("const-132.7", "mpeg", 2.0).to_json()
        payload["v"] = DIAGNOSIS_VERSION + 1
        with pytest.raises(ValueError, match="schema version"):
            PolicyDiagnosis.from_json(payload)


class TestDiagnosisLog:
    def test_writer_round_trip(self, tmp_path):
        diagnosis = diagnosis_for("const-132.7", "mpeg", 2.0)
        path = tmp_path / "diag.jsonl"
        with DiagnosisWriter(path) as log:
            log.append(diagnosis)
            log.append(diagnosis)
        assert log.written == 2
        assert read_diagnoses(path) == [diagnosis, diagnosis]

    def test_writer_is_lazy(self, tmp_path):
        path = tmp_path / "never.jsonl"
        DiagnosisWriter(path).close()
        assert not path.exists()

    def test_reader_rejects_garbage(self, tmp_path):
        """Damaged lines are skipped with a file:line warning, never raised:
        a torn write costs one diagnosis, not the whole log."""
        diagnosis = diagnosis_for("const-132.7", "mpeg", 2.0)
        newer = {**diagnosis.to_json(), "v": DIAGNOSIS_VERSION + 1}
        path = tmp_path / "diag.jsonl"
        path.write_text(
            "not json\n[1]\n{}\n"
            + json.dumps(newer) + "\n"
            + json.dumps(diagnosis.to_json()) + "\n"
            + json.dumps(diagnosis.to_json())[:40]
        )
        loaded = read_diagnoses(path)
        assert loaded == [diagnosis]
        assert [w.split(": ")[0] for w in loaded.warnings] == [
            f"{path}:{n}" for n in (1, 2, 3, 4, 6)
        ]
        assert "schema version" in loaded.warnings[3]


MPEG = WorkloadSpec("mpeg", MpegConfig(duration_s=2.0))


class TestEngineIntegration:
    def cells(self, workload=MPEG):
        return [
            SweepCell(workload=workload, policy=PolicySpec(name), use_daq=False)
            for name in ("avg3-one", "past-peg-98-93")
        ]

    # The default-length run too: with compensated float summation
    # (builtin sum() from CPython 3.12) short runs can agree by chance.
    @pytest.mark.parametrize(
        "workload",
        [MPEG, WorkloadSpec("mpeg", MpegConfig())],
        ids=["mpeg-2s", "mpeg-60s"],
    )
    def test_diagnosed_results_bitwise_equal_plain(self, workload):
        plain = SweepEngine(jobs=1).run(self.cells(workload))
        diagnosed = SweepEngine(jobs=1, diagnose=True).run(self.cells(workload))
        assert diagnosed == plain

    def test_engine_collects_one_diagnosis_per_cell(self):
        engine = SweepEngine(jobs=1, diagnose=True)
        engine.run(self.cells())
        assert len(engine.diagnoses) == 2
        policies = {d.policy for d in engine.diagnoses.values()}
        assert policies == {"avg3-one", "past-peg-98-93"}
        for diagnosis in engine.diagnoses.values():
            assert diagnosis.energy.baseline_feasible
            assert (
                abs(
                    diagnosis.energy.components_sum_j()
                    - diagnosis.energy.measured_j
                )
                <= ENERGY_SUM_TOLERANCE_J
            )

    def test_parallel_diagnoses_match_serial(self, tmp_path):
        serial = SweepEngine(jobs=1, diagnose=True)
        serial.run(self.cells())
        pooled = SweepEngine(jobs=2, diagnose=True)
        pooled.run(self.cells())
        assert pooled.diagnoses == serial.diagnoses

    def test_diagnosis_log_written_per_executed_cell(self, tmp_path):
        log = DiagnosisWriter(tmp_path / "diag.jsonl")
        engine = SweepEngine(jobs=1, diagnose=True, observers=[log])
        assert engine.diagnosing
        engine.run(self.cells())
        log.close()
        assert [d.policy for d in read_diagnoses(tmp_path / "diag.jsonl")] == [
            "avg3-one",
            "past-peg-98-93",
        ]

    def test_cache_hits_are_not_rediagnosed(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        SweepEngine(jobs=1, cache=cache).run(self.cells())
        engine = SweepEngine(jobs=1, cache=cache, diagnose=True)
        results = engine.run(self.cells())
        assert all(r is not None for r in results)
        assert engine.diagnoses == {}
        assert engine.stats.cache_hits == 2
