"""Per-run policy diagnostics: explain every joule and every missed deadline.

The paper's headline result is diagnostic, not numeric: every
implementable policy either misses deadlines or saves almost no energy,
because AVG_N is a low-pass filter that attenuates but never eliminates
oscillation (Figures 5-7).  The raw observability layer records *what*
happened; this module computes *why*, as one frozen
:class:`PolicyDiagnosis` per run:

- :class:`SettlingReport` — did the clock-step signal settle, and if not,
  at what amplitude and dominant period does it oscillate?  Ties the
  measured spectrum back to the predictor's analytic frequency response
  (:mod:`repro.analysis.fourier`), quantifying "AVG_N cannot settle" as a
  measurable artifact.
- :class:`PredictionLedger` — per-interval prediction error: the weighted
  utilization the predictor carried into each interval versus the
  utilization that interval actually delivered.
- :class:`MissAttribution` — each deadline miss mapped back to the speed
  decisions in its preceding window, and classified as a *policy* miss
  (the window ran below full speed, so a better decision existed) or a
  *capacity* miss (even flat-out the machine was too slow).
- :class:`EnergyDecomposition` — measured energy split against the
  ideal-constant oracle baseline into overshoot, clock-change stall, and
  rail-sag components that sum back to the measured total exactly.

Everything here is a pure, frozen function of an already-finished run:
diagnosing can never change a result, and every dataclass pickles (for
pool transport) and round-trips through JSON (for diagnosis logs).
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import (
    IO, TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.analysis.fourier import alpha_for_avg_n, fourier_magnitude
from repro.analysis.oscillation import oscillation_stats
from repro.core.catalog import predictor_decay_n
from repro.hw.machine import Machine
from repro.hw.machines import MachineSpec
from repro.hw.power import CoreState
from repro.kernel.scheduler import KernelRun
from repro.obs.profile import SweepObserver
from repro.obs.runlog import RunLogRecords

if TYPE_CHECKING:  # import cycle: repro.measure.parallel imports this module
    from repro.measure.runner import ExperimentResult

#: JSONL schema version for serialized diagnoses; bump on field changes.
DIAGNOSIS_VERSION = 1

#: A run "settled" when its steady-state tail averages at most this many
#: clock-step changes per quantum.  The paper's best policy (PAST/peg
#: 98/93) sits well below this on the interactive workloads; AVG_N on
#: mpeg sits an order of magnitude above it (it re-decides roughly every
#: eighth quantum, forever).
SETTLE_CHURN_PER_QUANTUM = 0.02

#: How far back a deadline miss looks for the speed decisions that caused
#: it.  Half a second spans ~50 quanta: enough to cover the ramp-up lag of
#: the largest AVG_N the paper sweeps.
ATTRIBUTION_WINDOW_US = 500_000.0

#: Energy components must reconstruct the measured total at least this
#: tightly (the property tests pin it).
ENERGY_SUM_TOLERANCE_J = 1e-9


# ---------------------------------------------------------------------------
# settling / oscillation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SettlingReport:
    """Does the clock-step signal settle, and how does it oscillate if not?

    All statistics are over the steady-state *tail* (the second half) of
    the per-quantum clock-step series, so start-up transients do not count
    against a policy that does converge.

    Attributes:
        settled: True when tail churn is at most
            :data:`SETTLE_CHURN_PER_QUANTUM`.
        churn_per_quantum: clock-step changes per tail quantum.
        tail_quanta: number of quanta in the analysed tail.
        changes_in_tail: clock-step changes within the tail.
        last_change_us: time of the final clock change of the whole run
            (None if the clock never changed).
        amplitude_steps / amplitude_mhz: oscillation band width of the
            tail, in table steps and in MHz.
        mean_mhz: average tail clock frequency.
        crossings_per_quantum: how often the tail MHz series crosses its
            own mean (0 for a settled run).
        dominant_period_quanta: period of the strongest oscillation
            component of the mean-removed tail step signal (None when the
            tail is constant).
        dominant_power_fraction: fraction of the tail signal's AC power in
            that component (0 when the tail is constant).
        predictor_alpha: the continuous decay rate matching the policy's
            AVG_N predictor (None when the policy has no AVG_N predictor
            or N = 0, where the idealization degenerates).
        attenuation_at_dominant: the predictor's normalized frequency
            response ``|X(w)|/|X(0)|`` at the dominant oscillation
            frequency — strictly positive, which is the paper's point:
            the filter attenuates but never eliminates the oscillation.
    """

    settled: bool
    churn_per_quantum: float
    tail_quanta: int
    changes_in_tail: int
    last_change_us: Optional[float]
    amplitude_steps: int
    amplitude_mhz: float
    mean_mhz: float
    crossings_per_quantum: float
    dominant_period_quanta: Optional[float]
    dominant_power_fraction: float
    predictor_alpha: Optional[float]
    attenuation_at_dominant: Optional[float]


def settling_report(
    run: KernelRun, decay_n: Optional[int] = None
) -> SettlingReport:
    """Analyse the settling behaviour of a full-recording run.

    Args:
        run: a kernel run recorded with the full recorder set (needs the
            per-quantum log).
        decay_n: the policy's AVG_N decay length (see
            :func:`repro.core.catalog.predictor_decay_n`), for the
            frequency-response tie-in; None skips it.

    Raises:
        ValueError: if the run has no per-quantum log.
    """
    if not run.quanta:
        raise ValueError("settling analysis needs a full-recording run")
    steps = np.asarray([q.step_index for q in run.quanta], dtype=float)
    mhz = np.asarray([q.mhz for q in run.quanta], dtype=float)
    tail_start = steps.size // 2
    tail = steps[tail_start:]
    tail_mhz = mhz[tail_start:]
    changes_in_tail = int(np.sum(tail[1:] != tail[:-1]))
    churn = changes_in_tail / max(1, tail.size - 1)

    all_change_idx = np.flatnonzero(steps[1:] != steps[:-1])
    last_change_us: Optional[float] = None
    if all_change_idx.size:
        # The change took effect in quantum i+1; stamp its start.
        last_change_us = run.quanta[int(all_change_idx[-1]) + 1].start_us

    osc = oscillation_stats(mhz, settle_fraction=0.5)

    dominant_period: Optional[float] = None
    dominant_fraction = 0.0
    ac = tail - tail.mean()
    if tail.size >= 4 and np.any(ac != 0.0):
        spectrum = np.abs(np.fft.rfft(ac)) ** 2
        spectrum[0] = 0.0  # mean already removed; guard residue
        peak = int(np.argmax(spectrum))
        total = float(np.sum(spectrum))
        if peak >= 1 and total > 0.0:
            dominant_period = tail.size / peak
            dominant_fraction = float(spectrum[peak] / total)

    alpha: Optional[float] = None
    attenuation: Optional[float] = None
    if decay_n is not None and decay_n >= 1:
        interval_s = run.quanta[0].quantum_us * 1e-6
        alpha = alpha_for_avg_n(decay_n, interval_s=interval_s)
        if dominant_period is not None:
            omega = 2.0 * np.pi / (dominant_period * interval_s)
            attenuation = float(fourier_magnitude(omega, alpha) * alpha)

    return SettlingReport(
        settled=churn <= SETTLE_CHURN_PER_QUANTUM,
        churn_per_quantum=churn,
        tail_quanta=int(tail.size),
        changes_in_tail=changes_in_tail,
        last_change_us=last_change_us,
        amplitude_steps=int(tail.max() - tail.min()),
        amplitude_mhz=float(tail_mhz.max() - tail_mhz.min()),
        mean_mhz=float(tail_mhz.mean()),
        crossings_per_quantum=osc.crossings_per_step,
        dominant_period_quanta=dominant_period,
        dominant_power_fraction=dominant_fraction,
        predictor_alpha=alpha,
        attenuation_at_dominant=attenuation,
    )


# ---------------------------------------------------------------------------
# prediction-error ledger
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PredictionLedger:
    """Summary of the per-interval prediction error of an AVG_N predictor.

    For each interval the predictor carries a weighted utilization ``W``
    into the next interval as its prediction; the error is the realized
    utilization minus that prediction.  Positive bias means the predictor
    ran behind demand (under-prediction -> late speed-ups); negative
    means it over-predicted (wasted speed).

    Attributes:
        decay_n: the AVG_N decay length the ledger was computed with.
        count: number of predicted intervals (quanta - 1).
        mean_error: signed bias of the prediction.
        mean_abs_error / rms_error / max_abs_error: error magnitudes.
        worst: the ``(end_us, predicted, realized)`` triples of the
            largest-error intervals, worst first (at most five).
    """

    decay_n: int
    count: int
    mean_error: float
    mean_abs_error: float
    rms_error: float
    max_abs_error: float
    worst: Tuple[Tuple[float, float, float], ...]


def prediction_errors(
    utilizations: Sequence[float], decay_n: int
) -> List[Tuple[float, float]]:
    """Replay AVG_N over a utilization series.

    Returns one ``(predicted, realized)`` pair per predicted interval:
    entry ``t`` predicts interval ``t+1`` from intervals ``0..t`` using
    the same recurrence the live predictor runs
    (``W' = (N * W + u) / (N + 1)``, ``W`` starting at zero; ``N = 0``
    is PAST).

    Raises:
        ValueError: for a negative ``decay_n``.
    """
    if decay_n < 0:
        raise ValueError("decay_n must be non-negative")
    pairs: List[Tuple[float, float]] = []
    weighted = 0.0
    for i, u in enumerate(utilizations):
        weighted = (decay_n * weighted + u) / (decay_n + 1)
        if i + 1 < len(utilizations):
            pairs.append((weighted, utilizations[i + 1]))
    return pairs


def prediction_ledger(
    run: KernelRun, decay_n: Optional[int]
) -> Optional[PredictionLedger]:
    """The prediction-error summary of a run, or None.

    None when the policy has no AVG_N predictor (``decay_n`` None) or the
    run is too short to predict anything.
    """
    if decay_n is None or len(run.quanta) < 2:
        return None
    pairs = prediction_errors(run.utilizations(), decay_n)
    errors = [realized - predicted for predicted, realized in pairs]
    arr = np.asarray(errors, dtype=float)
    order = np.argsort(-np.abs(arr))[:5]
    worst = tuple(
        (run.quanta[int(i) + 1].end_us, pairs[int(i)][0], pairs[int(i)][1])
        for i in order
    )
    return PredictionLedger(
        decay_n=decay_n,
        count=len(errors),
        mean_error=float(arr.mean()),
        mean_abs_error=float(np.abs(arr).mean()),
        rms_error=float(np.sqrt(np.mean(arr**2))),
        max_abs_error=float(np.abs(arr).max()),
        worst=worst,
    )


# ---------------------------------------------------------------------------
# deadline-miss attribution
# ---------------------------------------------------------------------------

#: Miss causes.
CAUSE_POLICY = "policy"
CAUSE_CAPACITY = "capacity"


@dataclass(frozen=True)
class MissAttribution:
    """One deadline miss mapped back to its preceding speed decisions.

    Attributes:
        kind / pid / time_us / deadline_us / lateness_us: the missed
            event, as recorded by the workload.
        window_start_us: start of the attribution window (the
            :data:`ATTRIBUTION_WINDOW_US` before the deadline).
        mean_mhz / min_mhz / max_mhz: clock statistics over the window.
        up_changes / down_changes: clock changes applied in the window.
        cause: :data:`CAUSE_POLICY` when any window quantum ran below the
            machine's top step (a faster decision existed), else
            :data:`CAUSE_CAPACITY` (flat-out was still too slow).
    """

    kind: str
    pid: int
    time_us: float
    deadline_us: float
    lateness_us: float
    window_start_us: float
    mean_mhz: float
    min_mhz: float
    max_mhz: float
    up_changes: int
    down_changes: int
    cause: str


def attribute_misses(
    run: KernelRun,
    tolerance_us: float = 0.0,
    max_step_index: Optional[int] = None,
) -> List[MissAttribution]:
    """Map each perceptible deadline miss to its preceding speed window.

    Args:
        run: a full-recording kernel run.
        tolerance_us: the workload's perceptibility tolerance.
        max_step_index: the machine's top clock step (None: the largest
            step index seen anywhere in the run).

    Raises:
        ValueError: if the run misses deadlines but has no quantum log to
            attribute them against.
    """
    misses = run.deadline_misses(tolerance_us=tolerance_us)
    if not misses:
        return []
    if not run.quanta:
        raise ValueError("miss attribution needs a full-recording run")
    if max_step_index is None:
        max_step_index = max(q.step_index for q in run.quanta)
    ends = [q.end_us for q in run.quanta]
    out: List[MissAttribution] = []
    for miss in misses:
        deadline = miss.deadline_us if miss.deadline_us is not None else miss.time_us
        start = max(0.0, deadline - ATTRIBUTION_WINDOW_US)
        lo = bisect_right(ends, start)
        hi = bisect_right(ends, deadline)
        window = run.quanta[lo : max(hi + 1, lo + 1)]
        if not window:
            window = run.quanta[-1:]
        mhz = [q.mhz for q in window]
        below_max = any(q.step_index < max_step_index for q in window)
        ups = sum(
            1
            for c in run.freq_changes
            if start <= c.time_us <= deadline and c.to_mhz > c.from_mhz
        )
        downs = sum(
            1
            for c in run.freq_changes
            if start <= c.time_us <= deadline and c.to_mhz < c.from_mhz
        )
        out.append(
            MissAttribution(
                kind=miss.kind,
                pid=miss.pid,
                time_us=miss.time_us,
                deadline_us=deadline,
                lateness_us=miss.lateness_us,
                window_start_us=start,
                mean_mhz=sum(mhz) / len(mhz),
                min_mhz=min(mhz),
                max_mhz=max(mhz),
                up_changes=ups,
                down_changes=downs,
                cause=CAUSE_POLICY if below_max else CAUSE_CAPACITY,
            )
        )
    return out


# ---------------------------------------------------------------------------
# excess-energy decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnergyDecomposition:
    """Measured energy split against the ideal-constant oracle baseline.

    The identity the decomposition maintains (and the property tests pin
    to within :data:`ENERGY_SUM_TOLERANCE_J`)::

        measured_j == baseline_j + overshoot_j + stall_j + sag_j

    Attributes:
        measured_j: the run's exact analytic energy.
        baseline_j: energy of the cheapest *feasible* constant step for
            the same workload (the paper's oracle), or 0.0 when no
            constant step meets the deadlines.
        baseline_feasible: whether such a baseline exists.
        overshoot_j: energy attributable to running a different (usually
            faster) schedule than the oracle, net of transition costs.
            Signed: a policy that undershoots the oracle *and* misses
            deadlines can come out negative.
        stall_j: energy drawn during clock-change stall windows, where
            the CPU burns time without executing.
        sag_j: extra energy drawn during rail-sag windows after voltage
            drops, versus the same execution at the settled voltage.
    """

    measured_j: float
    baseline_j: float
    baseline_feasible: bool
    overshoot_j: float
    stall_j: float
    sag_j: float

    @property
    def excess_j(self) -> float:
        """Energy above the oracle baseline."""
        return self.measured_j - self.baseline_j

    def components_sum_j(self) -> float:
        """The reconstruction ``baseline + overshoot + stall + sag``."""
        return self.baseline_j + self.overshoot_j + self.stall_j + self.sag_j


def _window_energy_j(
    segments: Sequence[Tuple[float, float, float]],
    windows: Sequence[Tuple[float, float]],
) -> float:
    """Integral of a piecewise-constant power signal over sorted windows."""
    total = 0.0
    i = 0
    n = len(segments)
    for window_start, window_end in windows:
        while i < n and segments[i][1] <= window_start:
            i += 1
        j = i
        while j < n and segments[j][0] < window_end:
            seg_start, seg_end, watts = segments[j]
            overlap = min(seg_end, window_end) - max(seg_start, window_start)
            if overlap > 0:
                total += watts * overlap * 1e-6
            j += 1
    return total


def _sag_excess_j(run: KernelRun, machine: Machine) -> float:
    """Extra energy of rail-sag windows vs the settled voltage.

    During a sag the kernel records power at the *old* voltage; the
    counterfactual replays the same execution states at the new voltage.
    Core state is inferred by matching each recorded segment's watts
    against the power model at the sagged rail — exact float equality,
    because the kernel computed those watts from the same model with the
    same arguments.  Unmatched segments contribute nothing (their energy
    stays in the overshoot residual).
    """
    sags = run.sag_windows()
    if not sags:
        return 0.0
    segments = list(run.timeline)
    ends = [q.end_us for q in run.quanta]
    table = machine.clock_table
    total = 0.0
    i = 0
    n = len(segments)
    for window_start, window_end, from_volts, to_volts in sags:
        # The sag starts inside the quantum whose tick applied the drop;
        # that quantum already carries the post-change step.
        qi = min(bisect_right(ends, window_start), len(run.quanta) - 1)
        step = table[run.quanta[qi].step_index]
        active_w = machine.power.total_w(step, from_volts, CoreState.ACTIVE)
        nap_w = machine.power.total_w(step, from_volts, CoreState.NAP)
        while i < n and segments[i][1] <= window_start:
            i += 1
        j = i
        while j < n and segments[j][0] < window_end:
            seg_start, seg_end, watts = segments[j]
            overlap = min(seg_end, window_end) - max(seg_start, window_start)
            if overlap > 0:
                if watts == active_w:
                    settled = machine.power.total_w(
                        step, to_volts, CoreState.ACTIVE
                    )
                elif watts == nap_w:
                    settled = machine.power.total_w(
                        step, to_volts, CoreState.NAP
                    )
                else:
                    settled = watts
                total += (watts - settled) * overlap * 1e-6
            j += 1
    return total


def energy_decomposition(
    run: KernelRun,
    machine: Machine,
    baseline_j: Optional[float],
) -> EnergyDecomposition:
    """Decompose a run's measured energy against the oracle baseline.

    Args:
        run: a full-recording kernel run (needs the power timeline).
        machine: the machine the run executed on (for the power model the
            sag counterfactual replays).
        baseline_j: exact energy of the ideal feasible constant step, or
            None when no constant step meets the deadlines.

    Raises:
        ValueError: if the run has no power timeline.
    """
    if len(run.timeline) == 0:
        raise ValueError("energy decomposition needs a full-recording run")
    measured = run.energy_joules()
    segments = list(run.timeline)
    stall = _window_energy_j(segments, run.stall_windows())
    sag = _sag_excess_j(run, machine)
    feasible = baseline_j is not None
    base = baseline_j if feasible else 0.0
    # The residual closes the identity exactly: whatever the windows did
    # not claim is schedule overshoot relative to the oracle.
    overshoot = measured - base - stall - sag
    return EnergyDecomposition(
        measured_j=measured,
        baseline_j=base,
        baseline_feasible=feasible,
        overshoot_j=overshoot,
        stall_j=stall,
        sag_j=sag,
    )


# ---------------------------------------------------------------------------
# the full diagnosis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolicyDiagnosis:
    """Everything the diagnostics engine can say about one run.

    Attributes:
        policy / workload / machine / seed: the experiment cell.
        duration_us: simulated duration.
        quanta: number of scheduling quanta.
        mean_utilization: average per-quantum utilization.
        misses: perceptible deadline misses.
        settling: the clock-step settling/oscillation analysis.
        ledger: prediction-error summary (None for policies without an
            AVG_N predictor).
        miss_attributions: one entry per perceptible miss.
        energy: the excess-energy decomposition.
    """

    policy: str
    workload: str
    machine: str
    seed: int
    duration_us: float
    quanta: int
    mean_utilization: float
    misses: int
    settling: SettlingReport
    ledger: Optional[PredictionLedger]
    miss_attributions: Tuple[MissAttribution, ...]
    energy: EnergyDecomposition

    def to_json(self) -> dict:
        """A JSON-safe dict, ``"v"``-tagged with the schema version."""
        payload = asdict(self)
        payload["ledger"] = (
            None
            if self.ledger is None
            else {
                **asdict(self.ledger),
                "worst": [list(w) for w in self.ledger.worst],
            }
        )
        payload["miss_attributions"] = [asdict(m) for m in self.miss_attributions]
        return {"v": DIAGNOSIS_VERSION, **payload}

    @classmethod
    def from_json(cls, payload: dict) -> "PolicyDiagnosis":
        """Rebuild a diagnosis from :meth:`to_json` output.

        Raises:
            ValueError: for payloads of an unknown schema version.
        """
        version = payload.get("v")
        if version != DIAGNOSIS_VERSION:
            raise ValueError(
                f"unknown diagnosis schema version {version!r} "
                f"(expected {DIAGNOSIS_VERSION})"
            )
        data = {k: v for k, v in payload.items() if k != "v"}
        ledger = data["ledger"]
        data["settling"] = SettlingReport(**data["settling"])
        data["ledger"] = (
            None
            if ledger is None
            else PredictionLedger(
                **{
                    **ledger,
                    "worst": tuple(tuple(w) for w in ledger["worst"]),
                }
            )
        )
        data["miss_attributions"] = tuple(
            MissAttribution(**m) for m in data["miss_attributions"]
        )
        data["energy"] = EnergyDecomposition(**data["energy"])
        return cls(**data)


def diagnose(
    result: ExperimentResult,
    policy: str,
    workload: str,
    machine: Union[Machine, "object", None] = None,
    machine_label: str = "",
    seed: int = 0,
    baseline_j: Optional[float] = None,
) -> PolicyDiagnosis:
    """Diagnose one finished experiment.

    Args:
        result: a full-recording experiment result.
        policy: the policy's catalog name (drives the predictor tie-in).
        workload: the workload's catalog name (for labelling).
        machine: the machine (or a zero-argument factory / spec for one)
            the run executed on; None uses the default ``MachineSpec()``.
        machine_label: label for the diagnosis record (defaults to the
            spec's label when ``machine`` has one).
        seed: the run's workload seed (for labelling).
        baseline_j: exact energy of the ideal feasible constant step (see
            :func:`repro.measure.parallel.find_ideal_constant`), or None
            when no constant step is feasible.

    Raises:
        ValueError: if the result was recorded without the full recorder
            set (diagnosis needs the quantum log and power timeline).
    """
    if machine is None:
        machine = MachineSpec()
    if not machine_label:
        machine_label = getattr(machine, "label", "") or "itsy"
    if not isinstance(machine, Machine):
        machine = machine()  # a MachineSpec or factory callable
    run = result.run
    decay_n = predictor_decay_n(policy)
    return PolicyDiagnosis(
        policy=policy,
        workload=workload,
        machine=machine_label,
        seed=seed,
        duration_us=run.duration_us,
        quanta=len(run.quanta),
        mean_utilization=run.mean_utilization(),
        misses=len(result.misses),
        settling=settling_report(run, decay_n),
        ledger=prediction_ledger(run, decay_n),
        miss_attributions=tuple(
            attribute_misses(
                run,
                tolerance_us=result.tolerance_us,
                max_step_index=machine.clock_table.max_index,
            )
        ),
        energy=energy_decomposition(run, machine, baseline_j),
    )


# ---------------------------------------------------------------------------
# JSONL persistence (mirrors obs.runlog)
# ---------------------------------------------------------------------------


class DiagnosisWriter(SweepObserver):
    """Appends diagnoses to a JSONL file, one object per line.

    Lazily opens on first write, so constructing a writer for a path that
    is never used leaves no file behind.  As a sweep observer it appends
    the diagnosis of every cell a diagnosing engine executes.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._fh: Optional[IO[str]] = None
        self.written = 0

    def write(self, diagnosis: PolicyDiagnosis) -> None:
        """Append one diagnosis record."""
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("a")
        json.dump(diagnosis.to_json(), self._fh)
        self._fh.write("\n")
        self._fh.flush()
        self.written += 1

    def on_cell_done(self, cell, key, outcome, ordinal) -> None:
        if outcome.diagnosis is not None:
            self.write(outcome.diagnosis)

    def close(self) -> None:
        """Close the underlying file (no-op if nothing was written)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "DiagnosisWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def read_diagnoses(path: Union[str, Path]) -> RunLogRecords:
    """Load every diagnosis from a JSONL file written by
    :class:`DiagnosisWriter`.

    Tolerant like :func:`~repro.obs.runlog.read_run_log`: a line that
    does not parse or does not rebuild a :class:`PolicyDiagnosis` (an
    unknown schema version included) is skipped, and each skip is
    reported with its ``file:line`` in the returned list's ``warnings``.
    """
    out: List[PolicyDiagnosis] = []
    warnings: List[str] = []
    with Path(path).open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
                if not isinstance(payload, dict):
                    raise ValueError("line is not a JSON object")
                out.append(PolicyDiagnosis.from_json(payload))
            except (KeyError, TypeError, ValueError) as exc:
                warnings.append(
                    f"{path}:{lineno}: skipped unreadable diagnosis line: "
                    f"{type(exc).__name__}: {exc}"
                )
    return RunLogRecords(out, warnings)
