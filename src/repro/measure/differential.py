"""Differential testing: fuzzed workloads drive two execution backends.

This is the fuzzer's consumer side.  :func:`check_scenario` runs one
scenario — a fuzzed :class:`~repro.workloads.fuzz.FuzzSpec` or a stored
:class:`~repro.traces.corpus.CorpusEntry` — through the ``"reference"``
execution backend and a backend under test (the ``"fastpath"`` core by
default) and demands:

- **bitwise identity** of everything a run records — the same contract as
  ``tests/kernel/test_fastpath.py``, field for field;
- **exception parity** — when one backend raises, the other must raise
  the same type with the same message;
- a **closed energy decomposition** — the diagnostics engine's
  overshoot/stall/sag components must reconstruct the measured energy to
  within :data:`RESIDUAL_TOLERANCE_J` on the reference run.

Any violation is shrunk (:func:`shrink_fuzz_spec` greedily simplifies the
spec while the failure reproduces) and can be persisted into the trace
corpus (:mod:`repro.traces.corpus`) as a permanent regression fixture —
``repro fuzz`` and the CI fuzz-smoke job both run on this module.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple, Union

from repro.core.catalog import resolve_policy
from repro.hw.machines import MachineSpec
from repro.kernel.recorders import RECORDING_FULL
from repro.measure.runner import ExperimentResult, run_workload
from repro.obs.diagnose import energy_decomposition
from repro.traces.corpus import CorpusEntry, entry_from_run
from repro.workloads.fuzz import FuzzSpec, fuzz_workload

#: Largest acceptable |measured − (baseline+overshoot+stall+sag)| on a
#: fuzzed run.  The decomposition is computed from the same timeline the
#: measurement integrates, so anything beyond float accumulation noise
#: means the accounting lost energy.
RESIDUAL_TOLERANCE_J = 1e-9

#: Most simplification rounds :func:`shrink_fuzz_spec` tries.
SHRINK_MAX_STEPS = 40

#: What a differential check runs: a generated scenario, or a stored
#: corpus trace replayed.
Scenario = Union[FuzzSpec, CorpusEntry]


def compare_results(ref: ExperimentResult, fast: ExperimentResult) -> List[str]:
    """Names of every recorded field where the two backends disagree.

    Mirrors the bitwise-equality contract of the fast-path test suite:
    an empty list means the runs are indistinguishable.
    """
    mismatches = []
    for field in ("energy_j", "exact_energy_j", "mean_power_w", "misses"):
        if getattr(fast, field) != getattr(ref, field):
            mismatches.append(field)
    rr, fr = ref.run, fast.run
    if fr.duration_us != rr.duration_us:
        mismatches.append("duration_us")
    if fr.quanta != rr.quanta:
        mismatches.append("quanta")
    if fr.timeline._segments != rr.timeline._segments:
        mismatches.append("timeline")
    for field in (
        "freq_changes",
        "volt_changes",
        "events",
        "busy_us_by_pid",
        "process_names",
        "clock_changes",
        "clock_stall_us",
        "voltage_changes",
        "voltage_settle_us",
    ):
        if getattr(fr, field) != getattr(rr, field):
            mismatches.append(field)
    return mismatches


@dataclass(frozen=True)
class DifferentialOutcome:
    """The verdict on one scenario.

    Attributes:
        spec: the scenario checked: a fuzz spec or a corpus entry.
        policy: catalog policy name it ran under.
        machine: machine spec label it ran on.
        seed: run seed.
        mismatches: recorded fields where the backends disagreed (empty
            when bitwise-identical).
        exception_mismatch: human-readable description when exactly one
            backend raised, or both raised differently; None otherwise.
        raised: ``"Type: message"`` of the exception both backends raised
            alike; None when the run completed.
        residual_j: |measured − components| of the reference run's energy
            decomposition, or None when the run raised.
        reference: the reference run, kept for corpus capture; None when
            it raised.

    ``ok`` is True only when every check passed.
    """

    spec: Scenario
    policy: str
    machine: str
    seed: int
    mismatches: Tuple[str, ...] = ()
    exception_mismatch: Optional[str] = None
    raised: Optional[str] = None
    residual_j: Optional[float] = None
    reference: Optional[ExperimentResult] = None

    @property
    def ok(self) -> bool:
        if self.mismatches or self.exception_mismatch:
            return False
        if self.residual_j is not None and self.residual_j > RESIDUAL_TOLERANCE_J:
            return False
        return True

    def describe(self) -> str:
        """One line naming the scenario and what (if anything) failed."""
        scenario = (
            f"corpus {self.spec.name}"
            if isinstance(self.spec, CorpusEntry)
            else f"fuzz seed={self.spec.seed}"
        )
        where = (
            f"{scenario} policy={self.policy} "
            f"machine={self.machine} run-seed={self.seed}"
        )
        if self.exception_mismatch:
            return f"{where}: exception parity broken: {self.exception_mismatch}"
        if self.mismatches:
            return (
                f"{where}: backends diverge on {', '.join(self.mismatches)}"
            )
        if self.residual_j is not None and self.residual_j > RESIDUAL_TOLERANCE_J:
            return f"{where}: energy decomposition residual {self.residual_j:.3e} J"
        if self.raised:
            return f"{where}: both backends raised {self.raised}"
        return f"{where}: ok"


def _run(
    scenario: Scenario, policy: str, machine: MachineSpec, seed: int, backend: str
) -> ExperimentResult:
    return run_workload(
        (
            scenario.workload()
            if isinstance(scenario, CorpusEntry)
            else fuzz_workload(scenario)
        ),
        resolve_policy(policy, clock_table=machine.clock_table()),
        machine_factory=machine,
        seed=seed,
        use_daq=False,
        recording=RECORDING_FULL,
        backend=backend,
    )


def check_scenario(
    scenario: Scenario,
    policy: str = "best",
    machine: Optional[MachineSpec] = None,
    seed: int = 0,
    backend: str = "fastpath",
) -> DifferentialOutcome:
    """Run one scenario on reference and ``backend``; judge it.

    Backends are named explicitly (never ``None``) so the comparison
    stays reference-vs-``backend`` even under ``REPRO_FORCE_BACKEND``.
    ``repro fuzz`` checks its generated specs and, with ``--corpus``,
    every stored entry here; the committed corpus's regression tests
    replay through it too.
    """
    machine = machine if machine is not None else MachineSpec("itsy")
    ref = fast = ref_exc = fast_exc = None
    try:
        ref = _run(scenario, policy, machine, seed, backend="reference")
    except Exception as exc:  # noqa: BLE001 - parity checked below
        ref_exc = exc
    try:
        fast = _run(scenario, policy, machine, seed, backend=backend)
    except Exception as exc:  # noqa: BLE001 - parity checked below
        fast_exc = exc

    label = machine.label
    if ref_exc is not None or fast_exc is not None:
        if type(ref_exc) is type(fast_exc) and str(ref_exc) == str(fast_exc):
            return DifferentialOutcome(
                scenario, policy, label, seed,
                raised=f"{type(ref_exc).__name__}: {ref_exc}",
            )
        return DifferentialOutcome(
            scenario,
            policy,
            label,
            seed,
            exception_mismatch=(
                f"reference {type(ref_exc).__name__ if ref_exc else 'ok'}"
                f"({ref_exc}) vs {backend} "
                f"{type(fast_exc).__name__ if fast_exc else 'ok'}({fast_exc})"
            ),
        )

    # Left against no oracle, the check is measured == 0 + overshoot +
    # stall + sag without paying for an ideal-constant search per scenario.
    decomp = energy_decomposition(ref.run, machine.build())
    return DifferentialOutcome(
        scenario,
        policy,
        label,
        seed,
        mismatches=tuple(compare_results(ref, fast)),
        residual_j=abs(decomp.measured_j - decomp.components_sum_j()),
        reference=ref,
    )


def _shrink_candidates(spec: FuzzSpec) -> List[FuzzSpec]:
    """Simpler variants of ``spec``, most aggressive first."""
    candidates = []
    if spec.duration_s > 0.2:
        candidates.append(replace(spec, duration_s=max(0.2, spec.duration_s / 2)))
    if spec.phases > 1:
        candidates.append(replace(spec, phases=max(1, spec.phases // 2)))
    if spec.processes > 1:
        candidates.append(replace(spec, processes=1))
    for knob in ("burstiness", "ramp", "idle_storm"):
        if getattr(spec, knob) > 0.0:
            candidates.append(replace(spec, **{knob: 0.0}))
    if spec.deadline_tightness > 0.0:
        candidates.append(replace(spec, deadline_tightness=0.0))
    return candidates


def shrink_fuzz_spec(
    spec: FuzzSpec,
    policy: str = "best",
    machine: Optional[MachineSpec] = None,
    seed: int = 0,
    backend: str = "fastpath",
) -> Tuple[FuzzSpec, DifferentialOutcome]:
    """Greedily simplify a failing spec while the failure reproduces.

    Returns the smallest failing spec found and its outcome.  ``spec``
    must already fail; a passing spec is returned unchanged with its
    (ok) outcome.
    """
    outcome = check_scenario(spec, policy, machine, seed, backend=backend)
    if outcome.ok:
        return spec, outcome
    for _ in range(SHRINK_MAX_STEPS):
        for candidate in _shrink_candidates(spec):
            cand_outcome = check_scenario(
                candidate, policy, machine, seed, backend=backend
            )
            if not cand_outcome.ok:
                spec, outcome = candidate, cand_outcome
                break
        else:
            break  # no simpler variant still fails: minimal
    return spec, outcome


def counterexample_entry(outcome: DifferentialOutcome) -> Optional[CorpusEntry]:
    """A corpus entry reproducing a failing fuzz spec's reference trace.

    Carries the full scenario coordinates as provenance so the failure
    can be re-fuzzed exactly, not just replayed.  None when the reference
    run itself raised (there is no trace to save).
    """
    if outcome.reference is None:
        return None
    spec = outcome.spec
    return entry_from_run(
        name=f"fuzz-{spec.seed}-{outcome.policy}-{outcome.machine}",
        run=outcome.reference.run,
        tolerance_us=spec.tolerance_us,
        provenance=(
            ("kind", "fuzz-counterexample"),
            ("policy", outcome.policy),
            ("machine", outcome.machine),
            ("run_seed", str(outcome.seed)),
            ("fuzz_spec", repr(spec)),
            ("failure", outcome.describe()),
        ),
    )
