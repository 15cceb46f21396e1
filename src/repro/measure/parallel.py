"""Parallel sweep execution with a content-addressed result cache.

The paper's evaluation is an exhaustive grid — predictor × speed setter ×
thresholds × workload, repeated for confidence intervals — and every
simulation the CLI runs is one cell of such a grid.  This module is the one
way to run cells, and it makes large grids cheap:

- a :class:`SweepCell` names one simulation by *value* (policy name and
  parameters, workload name and config, seed, kernel config) instead of by
  closures, so cells pickle cleanly to worker processes and digest stably
  into cache keys;
- :class:`SweepEngine` runs cells in-process (``jobs=1``, the serial
  path) or fans them out over a
  :class:`~concurrent.futures.ProcessPoolExecutor`, and memoizes each
  :class:`CellResult` in an on-disk :class:`ResultCache` keyed by a SHA-256
  digest of the cell plus :data:`CACHE_SCHEMA_VERSION`, so unchanged cells
  are free on re-run;
- :func:`repeat_workload` and :func:`find_ideal_constant` batch the
  paper's repeated runs and its ideal-constant oracle through an engine.

Throughput plumbing keeps grid wall-time dominated by simulation rather
than dispatch: cells ship to workers in contiguous *chunks* (one pool task
per chunk amortizes pickling and future bookkeeping), the pool is *warm*
(spawned once per engine, workers preimport the simulator via an
initializer, and the pool is reused across batches until :meth:`close`),
and :class:`CellResult` pickles as a compact field tuple.  None of it is
observable in the numbers: chunks preserve submission order, and every
cell, in-process or pooled, runs through the one worker entry point,
which returns a :class:`CellOutcome`.

The engine is *provably* deterministic: a pool worker runs the very same
:func:`repro.measure.runner.run_workload` the in-process path runs, with
the very same seeds, so parallel results are bitwise-equal to serial ones, and
cached results round-trip through JSON without losing a bit (Python's
``json`` serializes floats via ``repr``, which is exact for doubles).
``tests/measure/test_parallel.py`` and ``tests/measure/test_cache.py``
lock this in.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import inspect
import json
import os
import queue as queue_module
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    IO,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.hw.clocksteps import ClockTable
from repro.hw.machines import MachineSpec
from repro.kernel.governor import Governor
from repro.kernel.recorders import (
    RECORDING_FULL,
    RECORDING_MINIMAL,
    RunRecorder,
)
from repro.kernel.scheduler import KernelConfig
from repro.obs.calibrate import host_score
from repro.obs.fleet import FleetRecord, git_sha, new_sweep_id
from repro.obs.profile import (
    PHASE_CACHE,
    PHASE_COMPUTE,
    PHASE_DIAGNOSE,
    PHASE_IPC,
    PHASE_REDUCE,
    PHASE_SPINUP,
    PHASE_SUBMIT,
    PHASE_WORKER_START,
    PhaseProfile,
    arm_worker_stamps,
    drain_worker_stamps,
)
from repro.obs.runlog import RunLogRecord, RunLogWriter, now_unix
from repro.kernel.backend import resolve_backend
from repro.measure.stats import ConfidenceInterval, confidence_interval
from repro.workloads.base import Workload
from repro.workloads.chess import ChessConfig, chess_workload
from repro.workloads.editor import EditorConfig, editor_workload
from repro.workloads.fuzz import FuzzSpec, fuzz_workload
from repro.workloads.mpeg import MpegConfig, mpeg_workload
from repro.workloads.replay import ReplayConfig, replay_config_workload
from repro.workloads.web import WebConfig, web_workload

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

    from repro.obs.diagnose import DiagnosisWriter, PolicyDiagnosis
    from repro.obs.metrics import MetricsRegistry, MetricsSnapshot
    from repro.obs.telemetry import (
        ProgressModel,
        ProgressRenderer,
        SweepTelemetry,
    )

#: Bump when the simulator's observable numbers change (kernel model,
#: power model, workload calibration, or the :class:`CellResult` schema):
#: every cached result keyed under the old version is then ignored.
#: Version 2 added the machine axis to the key.
#: Version 3 added the fuzz/replay workload axes and the machine
#: reconfiguration-cost fields (which change every machine digest).
CACHE_SCHEMA_VERSION = 3

#: Workload builders by CLI name.  Each entry is ``(builder, config_type)``
#: where ``builder(config)`` returns a :class:`Workload`.
WORKLOAD_BUILDERS: Dict[str, Tuple[Callable[..., Workload], type]] = {
    "mpeg": (mpeg_workload, MpegConfig),
    "web": (web_workload, WebConfig),
    "chess": (chess_workload, ChessConfig),
    "editor": (editor_workload, EditorConfig),
    "fuzz": (fuzz_workload, FuzzSpec),
    "replay": (replay_config_workload, ReplayConfig),
}


def register_workload(
    name: str, builder: Callable[..., Workload], config_type: type
) -> None:
    """Register an additional named workload for sweep specs.

    Args:
        name: spec name (must be new).
        builder: ``builder(config)`` returning a :class:`Workload`.
        config_type: the (dataclass) config the builder accepts.

    Raises:
        ValueError: if the name is already taken.
    """
    if name in WORKLOAD_BUILDERS:
        raise ValueError(f"workload {name!r} is already registered")
    WORKLOAD_BUILDERS[name] = (builder, config_type)


@dataclass(frozen=True)
class WorkloadSpec:
    """A workload named by value: picklable and stably digestible.

    Attributes:
        name: key into :data:`WORKLOAD_BUILDERS`
            (mpeg/web/chess/editor/fuzz/replay).
        config: workload config dataclass, or None for the default.  A
            ``None`` config digests identically to an explicitly passed
            default-constructed config.
    """

    name: str
    config: Optional[object] = None

    def _entry(self) -> Tuple[Callable[..., Workload], type]:
        try:
            return WORKLOAD_BUILDERS[self.name]
        except KeyError:
            raise ValueError(
                f"unknown workload {self.name!r} "
                f"(known: {', '.join(sorted(WORKLOAD_BUILDERS))})"
            ) from None

    def effective_config(self) -> object:
        """The config that will be used: the default if none was given."""
        builder, config_type = self._entry()
        if self.config is None:
            return config_type()
        if not isinstance(self.config, config_type):
            raise TypeError(
                f"workload {self.name!r} takes {config_type.__name__}, "
                f"got {type(self.config).__name__}"
            )
        return self.config

    def build(self) -> Workload:
        """Construct the workload descriptor."""
        builder, _ = self._entry()
        return builder(self.effective_config())


@dataclass(frozen=True)
class PolicySpec:
    """A policy named by value: picklable and stably digestible.

    Either a bare grammar name (``best``, ``avg3-peg``, ``const-132.7``,
    ``const-132.7@1.23`` — see :func:`repro.core.catalog.resolve_policy`)
    or a :data:`~repro.core.catalog.POLICY_FACTORIES` key plus keyword
    parameters, e.g. ``PolicySpec.of("pering-avg", n=3, up="peg")``.

    Attributes:
        name: policy grammar name, or a catalog factory key when
            ``params`` is non-empty.
        params: sorted ``(key, value)`` pairs passed to the factory.
    """

    name: str
    params: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def of(cls, name: str, **params: object) -> "PolicySpec":
        """Build a parameterized spec; parameters are sorted for stability."""
        return cls(name=name, params=tuple(sorted(params.items())))

    @property
    def label(self) -> str:
        """A short human-readable name, e.g. ``pering-avg(n=3, up='peg')``."""
        if not self.params:
            return self.name
        args = ", ".join(f"{k}={v!r}" for k, v in self.params)
        return f"{self.name}({args})"

    def build_factory(
        self, clock_table: Optional[ClockTable] = None
    ) -> Callable[[], Governor]:
        """A fresh-governor factory for this spec.

        Args:
            clock_table: the machine's clock table, so speed setters and
                constant speeds resolve against the machine the cell
                actually runs on (None = the SA-1100 default).  Explicit
                ``clock_table`` entries in :attr:`params` win; factories
                that take no such parameter are left alone.

        Raises:
            ValueError: for unknown names.
        """
        from repro.core.catalog import POLICY_FACTORIES, resolve_policy

        if not self.params:
            return resolve_policy(self.name, clock_table=clock_table)
        try:
            factory = POLICY_FACTORIES[self.name]
        except KeyError:
            raise ValueError(
                f"unknown policy factory {self.name!r} "
                f"(known: {', '.join(sorted(POLICY_FACTORIES))})"
            ) from None
        kwargs = dict(self.params)
        if (
            clock_table is not None
            and "clock_table" not in kwargs
            and "clock_table" in inspect.signature(factory).parameters
        ):
            kwargs["clock_table"] = clock_table
        return lambda: factory(**kwargs)


@dataclass(frozen=True)
class SweepCell:
    """One simulation of the grid, named entirely by value.

    Attributes:
        workload: what to run.
        policy: which governor to install.
        machine: which machine to run it on (default: modified Itsy).
        seed: workload jitter seed.
        kernel_config: kernel tunables (None = defaults).
        use_daq: measure through the DAQ model, as in the paper.
        daq_seed: DAQ noise seed (defaults to ``seed``).
        recording: kernel instrumentation level (``"full"`` or
            ``"minimal"``).  Not part of the cache key: recording modes
            are bitwise-equivalent in everything a :class:`CellResult`
            carries, so either mode may answer for the other.
        backend: execution-backend name for the simulation
            (``"reference"`` / ``"fastpath"``; None = the default, see
            :func:`repro.kernel.backend.resolve_backend`).  Not part of
            the cache key either — backends are bitwise-equivalent, so a
            cached result from one backend answers for any other.
    """

    workload: WorkloadSpec
    policy: PolicySpec
    seed: int = 0
    kernel_config: Optional[KernelConfig] = None
    use_daq: bool = True
    daq_seed: Optional[int] = None
    machine: MachineSpec = MachineSpec()
    recording: str = RECORDING_FULL
    backend: Optional[str] = None

    def effective_kernel_config(self) -> KernelConfig:
        """The kernel config that will be used (defaults if none given)."""
        return self.kernel_config if self.kernel_config is not None else KernelConfig()

    def describe(self) -> str:
        """The cell's coordinates, for error messages and logs."""
        return (
            f"policy={self.policy.label} workload={self.workload.name} "
            f"machine={self.machine.label} seed={self.seed}"
        )

    def execute(
        self, extra_recorders: Optional[Iterable[RunRecorder]] = None
    ):
        """Execute the cell serially and return the full
        :class:`~repro.measure.runner.ExperimentResult`.

        Diagnosis needs the complete :class:`KernelRun`; callers that only
        want the picklable summary use :meth:`run` instead.

        Args:
            extra_recorders: additional pure-observer recorders to attach
                (results are bitwise-identical with or without them).
        """
        from repro.measure.runner import run_workload

        return run_workload(
            self.workload.build(),
            self.policy.build_factory(self.machine.clock_table()),
            machine_factory=self.machine,
            seed=self.seed,
            kernel_config=self.effective_kernel_config(),
            use_daq=self.use_daq,
            daq_seed=self.daq_seed,
            recording=self.recording,
            extra_recorders=extra_recorders,
            backend=self.backend,
        )

    def run(
        self, extra_recorders: Optional[Iterable[RunRecorder]] = None
    ) -> "CellResult":
        """Execute the cell serially and summarize it for transport.

        Args:
            extra_recorders: additional pure-observer recorders to attach
                (results are bitwise-identical with or without them).
        """
        return CellResult.from_experiment(self.execute(extra_recorders))


@dataclass(frozen=True)
class CellResult:
    """The picklable summary a sweep worker returns (and the cache stores).

    Carries every number the CLI, the benchmarks and the determinism tests
    compare — but not the full :class:`~repro.kernel.scheduler.KernelRun`,
    which is far too large to ship between processes or persist per cell.

    Attributes:
        energy_j: DAQ-estimated energy (the paper's number).
        exact_energy_j: the analytic integral.
        mean_power_w: average power over the run.
        mean_utilization: average per-quantum utilization.
        duration_us: simulated wall-clock length.
        miss_count: deadline misses beyond the workload's tolerance.
        worst_miss_kind: event kind of the latest miss (None if on time).
        worst_lateness_us: lateness of that miss (0.0 if on time).
        clock_changes / clock_stall_us: frequency-transition accounting.
        voltage_changes: rail-transition count.
        final_step_index / final_mhz: clock step of the last quantum (the
            settled speed; what ``find_ideal_constant`` reports).
        residency: ``(mhz, fraction_of_quanta)`` pairs, ascending by MHz.
    """

    energy_j: float
    exact_energy_j: float
    mean_power_w: float
    mean_utilization: float
    duration_us: float
    miss_count: int
    worst_miss_kind: Optional[str]
    worst_lateness_us: float
    clock_changes: int
    clock_stall_us: float
    voltage_changes: int
    final_step_index: int
    final_mhz: float
    residency: Tuple[Tuple[float, float], ...]

    @property
    def missed(self) -> bool:
        """True if any deadline was perceptibly missed."""
        return self.miss_count > 0

    def residency_at(self, mhz: float) -> float:
        """Fraction of quanta spent at ``mhz`` (0.0 if never)."""
        for step_mhz, share in self.residency:
            if step_mhz == mhz:
                return share
        return 0.0

    @classmethod
    def from_experiment(cls, result) -> "CellResult":
        """Summarize an :class:`~repro.measure.runner.ExperimentResult`.

        Under minimal recording the run carries no quantum log; the
        residency and final-step fields then come from the streaming
        :class:`~repro.kernel.recorders.QuantumStats`, whose counts and
        divisions are identical to the full log's, so the summary is
        bitwise-equal either way.
        """
        run = result.run
        counts: Dict[float, int] = {}
        stats = run.quantum_stats
        if stats is not None and stats.count:
            # Streaming aggregates are preferred when present: on the
            # fast-path core they spare materializing the quantum log
            # (thousands of QuantumRecord objects) just to count step
            # residency.  The per-step counts sum to the same integers
            # as a walk over the log, so the fractions are bitwise equal.
            for index, quanta in stats.quanta_by_step.items():
                mhz = stats.mhz_by_step[index]
                counts[mhz] = counts.get(mhz, 0) + quanta
            n = stats.count
            final_step_index = stats.final_step_index
            final_mhz = stats.final_mhz
        else:
            for q in run.quanta:
                counts[q.mhz] = counts.get(q.mhz, 0) + 1
            n = len(run.quanta)
            if run.quanta:
                final_step_index = run.quanta[-1].step_index
                final_mhz = run.quanta[-1].mhz
            else:
                final_step_index = 0
                final_mhz = 0.0
        residency = tuple(
            (mhz, counts[mhz] / n) for mhz in sorted(counts)
        ) if n else ()
        worst = max(result.misses, key=lambda e: e.lateness_us) if result.misses else None
        return cls(
            energy_j=result.energy_j,
            exact_energy_j=result.exact_energy_j,
            mean_power_w=result.mean_power_w,
            mean_utilization=run.mean_utilization(),
            duration_us=run.duration_us,
            miss_count=len(result.misses),
            worst_miss_kind=worst.kind if worst else None,
            worst_lateness_us=worst.lateness_us if worst else 0.0,
            clock_changes=run.clock_changes,
            clock_stall_us=run.clock_stall_us,
            voltage_changes=run.voltage_changes,
            final_step_index=final_step_index,
            final_mhz=final_mhz,
            residency=residency,
        )

    def __getstate__(self) -> tuple:
        """Pickle as a bare field tuple (compact wire transport).

        The default protocol ships the instance ``__dict__`` — fourteen
        field-name strings per result.  Sweeps move thousands of results
        between processes, so the tuple form measurably shrinks pool
        traffic.  Field order is the dataclass declaration order.
        """
        return tuple(
            getattr(self, f.name) for f in dataclasses.fields(self)
        )

    def __setstate__(self, state: tuple) -> None:
        for f, value in zip(dataclasses.fields(self), state):
            object.__setattr__(self, f.name, value)

    def to_json(self) -> dict:
        """A JSON-safe dict; floats survive exactly (``repr`` round-trip)."""
        payload = dataclasses.asdict(self)
        payload["residency"] = [list(pair) for pair in self.residency]
        return payload

    @classmethod
    def from_json(cls, payload: Mapping) -> "CellResult":
        """Inverse of :meth:`to_json`."""
        data = dict(payload)
        data["residency"] = tuple(tuple(pair) for pair in data["residency"])
        return cls(**data)


# -- cache keys ---------------------------------------------------------------------


def _canonical(obj: object) -> object:
    """A JSON-representable canonical form of specs and configs.

    Dataclasses are tagged with their class name so two config types with
    identical fields do not collide; tuples and lists are interchangeable;
    mapping keys are stringified and sorted by the JSON encoder.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        body = {
            f.name: _canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        return {"__class__": type(obj).__name__, **body}
    if isinstance(obj, Mapping):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise TypeError(f"cannot canonicalize {type(obj).__name__} for a cache key")


def cache_key(cell: SweepCell) -> str:
    """The content address of a cell's result.

    A SHA-256 digest over the canonical JSON of (policy name/params,
    workload name/effective config, machine spec, seed, DAQ settings,
    kernel config, schema version).  Stable across processes and hosts —
    it depends only on the cell's values, never on object identity or
    hash seeds.  The recording mode and the execution ``backend`` are
    deliberately absent: recording modes and backends all produce
    bitwise-identical :class:`CellResult`\\ s, so they share cache
    entries.
    """
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "policy": {"name": cell.policy.name, "params": _canonical(cell.policy.params)},
        "workload": {
            "name": cell.workload.name,
            "config": _canonical(cell.workload.effective_config()),
        },
        "machine": _canonical(cell.machine),
        "seed": cell.seed,
        "use_daq": cell.use_daq,
        "daq_seed": cell.daq_seed,
        "kernel": _canonical(cell.effective_kernel_config()),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """A content-addressed on-disk store of :class:`CellResult` objects.

    One JSON file per key under ``root``; writes are atomic (temp file +
    rename) so concurrent sweeps sharing a cache directory never observe a
    torn entry.  Entries written under a different
    :data:`CACHE_SCHEMA_VERSION` are treated as absent.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        """Where the entry for ``key`` lives."""
        return self.root / f"{key}.json"

    def get(self, key: str) -> Optional[CellResult]:
        """The cached result, or None on miss/corruption/schema change.

        A damaged entry is a miss, whatever it parses as: not JSON, JSON
        that is not an object, or a ``"result"`` that does not rebuild a
        :class:`CellResult`.  The engine then simulates the cell again
        and overwrites the entry.
        """
        try:
            payload = json.loads(self.path_for(key).read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("schema") != CACHE_SCHEMA_VERSION:
            return None
        try:
            return CellResult.from_json(payload["result"])
        except (KeyError, TypeError, ValueError):
            return None

    def put(self, key: str, result: CellResult) -> None:
        """Store ``result`` under ``key`` atomically."""
        self.root.mkdir(parents=True, exist_ok=True)
        payload = {"schema": CACHE_SCHEMA_VERSION, "key": key, "result": result.to_json()}
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle)
            os.replace(tmp, self.path_for(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        try:
            return sum(1 for _ in self.root.glob("*.json"))
        except OSError:
            return 0


@dataclass(frozen=True)
class CellOutcome:
    """Everything one executed cell sends home on the result channel.

    Attributes:
        result: the cell's summary.
        wall_s: simulation time only (diagnosis and reduction excluded);
            what the run-log and the cell-time histogram record.
        pid: the process that ran the cell.
        t_start / t_end: the cell's ``perf_counter`` interval, simulation
            through reduction; telemetry builds the cell's worker-lane
            span from it (never from heartbeats, which are display-only
            and may trail the future's completion).
        phases: the cell's phase stamps for the
            :class:`~repro.obs.profile.PhaseProfile` — the worker's
            start-up stamp on its first cell, kernel compute, any
            kernel-side observer-reduction stamps (the kernel stamps its
            recorders' ``contribute`` calls), diagnosis, and the summary
            reduction.
        metrics: the worker-local kernel metrics snapshot, or None when
            the engine collects no metrics.
        diagnosis: the cell's
            :class:`~repro.obs.diagnose.PolicyDiagnosis`, or None when
            the engine does not diagnose.
    """

    result: CellResult
    wall_s: float
    pid: int
    t_start: float
    t_end: float
    phases: Tuple[Tuple[str, float, float], ...]
    metrics: Optional[MetricsSnapshot] = None
    diagnosis: Optional[PolicyDiagnosis] = None


def _execute_cell(
    cell: SweepCell,
    with_metrics: bool,
    diagnose: bool,
    baseline_j: Optional[float],
) -> CellOutcome:
    """Worker entry point (module-level so it pickles): run one cell.

    ``cell.run`` split into its two halves (:meth:`SweepCell.execute` +
    :meth:`CellResult.from_experiment`) — the very same computation,
    stamped between the halves — so results are bitwise-identical
    however the cell is observed.  ``with_metrics`` collects the kernel
    hot-loop metrics in a worker-local registry whose snapshot the
    parent merges.  ``diagnose`` forces full recording (diagnosis needs
    the quantum log and power timeline; recording modes are
    bitwise-equivalent in everything a :class:`CellResult` carries) and
    computes the cell's diagnosis against ``baseline_j`` worker-side.
    """
    registry = extra = None
    if with_metrics:
        from repro.obs.metrics import KernelMetricsRecorder, MetricsRegistry

        registry = MetricsRegistry()
        extra = [KernelMetricsRecorder(registry)]
    if diagnose:
        cell = dataclasses.replace(cell, recording=RECORDING_FULL)
    arm_worker_stamps()
    start = perf_counter()
    experiment = cell.execute(extra_recorders=extra)
    t_computed = t_reduce = perf_counter()
    phases = [
        *_take_worker_start(),
        (PHASE_COMPUTE, start, t_computed),
        *drain_worker_stamps(),
    ]
    diagnosis = None
    if diagnose:
        from repro.obs.diagnose import diagnose as diagnose_run

        diagnosis = diagnose_run(
            experiment,
            policy=cell.policy.label,
            workload=cell.workload.name,
            machine=cell.machine,
            machine_label=cell.machine.label,
            seed=cell.seed,
            baseline_j=baseline_j,
        )
        t_reduce = perf_counter()
        phases.append((PHASE_DIAGNOSE, t_computed, t_reduce))
    result = CellResult.from_experiment(experiment)
    end = perf_counter()
    phases.append((PHASE_REDUCE, t_reduce, end))
    return CellOutcome(
        result=result,
        wall_s=t_computed - start,
        pid=os.getpid(),
        t_start=start,
        t_end=end,
        phases=tuple(phases),
        metrics=registry.snapshot() if registry is not None else None,
        diagnosis=diagnosis,
    )


#: Worker-global heartbeat channel, installed by :func:`_warm_worker`.
#: None in workers whose engine runs without live progress.
_HEARTBEATS: Optional[object] = None

#: This worker's start-up interval, stamped by :func:`_warm_worker` and
#: sent home once, with the worker's first outcome.
_WORKER_START: Optional[Tuple[str, float, float]] = None


def _warm_worker(
    heartbeats: Optional[object] = None, diagnosing: bool = False
) -> None:
    """Pool initializer: import the simulator once per worker process.

    The parent process does not import the simulator (a sweep served
    from the cache never runs it), so every worker imports it here, in
    parallel with its siblings, before its first chunk:
    :mod:`repro.measure.runner` pulls in everything a cell run touches
    (both kernel cores, all workload builders, the DAQ, numpy), and a
    diagnosing engine's workers also import :mod:`repro.obs.diagnose`
    (already inherited under ``fork``, where the engine loaded it).  The
    import is stamped as :data:`~repro.obs.profile.PHASE_WORKER_START`.

    ``heartbeats`` is the engine's live-progress queue (or None): pool
    initargs travel through ``Process`` arguments, which is exactly the
    channel a ``multiprocessing.Queue`` is allowed to cross.
    """
    global _HEARTBEATS, _WORKER_START
    _HEARTBEATS = heartbeats
    start = perf_counter()
    import repro.measure.runner  # noqa: F401

    if diagnosing:
        import repro.obs.diagnose  # noqa: F401
    _WORKER_START = (PHASE_WORKER_START, start, perf_counter())


def _take_worker_start() -> Tuple[Tuple[str, float, float], ...]:
    """The worker's start-up stamp the first time, then nothing."""
    global _WORKER_START
    stamp, _WORKER_START = _WORKER_START, None
    return (stamp,) if stamp is not None else ()


def _heartbeat(done: bool, cell_id: Optional[int]) -> None:
    """Emit one display heartbeat, best-effort (never fails the cell)."""
    hb = _HEARTBEATS
    if hb is None or cell_id is None:
        return
    from repro.obs.telemetry import HEARTBEAT_DONE, HEARTBEAT_START

    tag = HEARTBEAT_DONE if done else HEARTBEAT_START
    try:
        hb.put((tag, os.getpid(), cell_id, perf_counter()))
    except Exception:  # pragma: no cover - queue torn down mid-sweep
        pass


def _execute_chunk(
    cells: List[SweepCell],
    with_metrics: bool,
    diagnose: bool,
    baseline_js: List[Optional[float]],
    cell_ids: List[int],
) -> List[Union[CellOutcome, Exception]]:
    """Run a contiguous chunk of cells in one pool task.

    One submission per chunk (instead of per cell) amortizes argument
    pickling, future bookkeeping and result IPC across the chunk.  A
    cell that raises contributes its exception in place of its outcome,
    so the failure is attributed to the *cell* that raised it, not to an
    opaque chunk — the parent re-raises it as a :class:`SweepCellError`
    with the original exception as ``__cause__``.

    When the worker carries a heartbeat queue (live ``--progress``),
    each cell brackets its execution with start/done heartbeats keyed by
    ``cell_ids`` — pure display traffic on a side channel; results still
    travel only on the pool's result path.
    """
    out: List[Union[CellOutcome, Exception]] = []
    for cell, baseline_j, cell_id in zip(cells, baseline_js, cell_ids):
        _heartbeat(False, cell_id)
        try:
            out.append(_execute_cell(cell, with_metrics, diagnose, baseline_j))
        except Exception as exc:
            out.append(exc)
        _heartbeat(True, cell_id)
    return out


def _baseline_key(cell: SweepCell) -> str:
    """The coordinates a cell's oracle baseline depends on, as a string.

    Policy, DAQ settings and recording mode are deliberately absent: the
    ideal-constant search is a property of workload x machine x seed x
    kernel config alone, so diagnosed cells that differ only in policy
    share one baseline computation.
    """
    payload = {
        "workload": {
            "name": cell.workload.name,
            "config": _canonical(cell.workload.effective_config()),
        },
        "machine": _canonical(cell.machine),
        "seed": cell.seed,
        "kernel": _canonical(cell.effective_kernel_config()),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class SweepCellError(RuntimeError):
    """A sweep worker failed; names the cell instead of an opaque pool error.

    A crashed worker process surfaces as
    :class:`~concurrent.futures.process.BrokenProcessPool` with no hint of
    *which* simulation sank it; this wrapper carries the failing cell's
    coordinates (policy / workload / machine / seed) and keeps the original
    exception as ``__cause__``.
    """

    def __init__(self, cell: SweepCell, cause: BaseException):
        self.cell = cell
        super().__init__(
            f"sweep cell failed ({cell.describe()}): "
            f"{type(cause).__name__}: {cause}"
        )


@dataclass
class SweepStats:
    """Cumulative accounting of a :class:`SweepEngine`.

    Attributes:
        executed: simulations actually run (unique cells, deduplicated).
        cache_hits: unique cells answered from the cache.
        wall_s: wall-clock time spent inside :meth:`SweepEngine.run`.
    """

    executed: int = 0
    cache_hits: int = 0
    wall_s: float = 0.0

    @property
    def total(self) -> int:
        """Unique cells served so far."""
        return self.executed + self.cache_hits

    @property
    def cells_per_s(self) -> float:
        """Sweep throughput: unique cells served per wall-clock second."""
        return self.total / self.wall_s if self.wall_s > 0 else 0.0

    def summary(self) -> str:
        """The one-line accounting every sweep CLI command prints."""
        return (
            f"sweep: {self.executed} simulated, {self.cache_hits} cached, "
            f"{self.wall_s:.1f} s, {self.cells_per_s:.1f} cells/s"
        )


class _HeartbeatPump:
    """Drains worker heartbeats into the progress model while futures fly.

    A daemon thread blocks on the heartbeat queue with a short timeout so
    the display stays live between chunk completions; :meth:`stop` joins
    the thread and then drains whatever the queue's feeder thread had
    still in flight — heartbeats are asynchronous to the result channel,
    so trailing events after the last future are normal, not a bug.
    """

    def __init__(
        self,
        heartbeats: object,
        model: ProgressModel,
        renderer: Optional[ProgressRenderer],
        labels: Dict[int, str],
        lock: threading.Lock,
    ):
        self._heartbeats = heartbeats
        self._model = model
        self._renderer = renderer
        self._labels = labels
        self._lock = lock
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="sweep-heartbeats", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.is_set():
            self._drain(timeout=0.05)

    def _drain(self, timeout: Optional[float] = None) -> None:
        try:
            event = self._heartbeats.get(timeout=timeout)  # type: ignore[attr-defined]
        except (queue_module.Empty, OSError, ValueError):
            return
        if event is not None:
            self._apply(event)
        while True:
            try:
                event = self._heartbeats.get_nowait()  # type: ignore[attr-defined]
            except (queue_module.Empty, OSError, ValueError):
                break
            if event is not None:
                self._apply(event)

    def _apply(self, event: Tuple[str, int, int, float]) -> None:
        from repro.obs.telemetry import HEARTBEAT_DONE, HEARTBEAT_START

        tag, pid, cell_id, t = event
        with self._lock:
            if tag == HEARTBEAT_START:
                self._model.cell_started(
                    pid, cell_id, t, self._labels.get(cell_id, "")
                )
            elif tag == HEARTBEAT_DONE:
                self._model.cell_finished(pid, cell_id, t)
        if self._renderer is not None:
            self._renderer.update()

    def stop(self) -> None:
        """Stop the pump and drain any heartbeats already queued.

        A ``None`` sentinel wakes the drain thread out of its blocking
        get immediately, so stopping costs microseconds rather than a
        full poll-timeout — the pump must not tax sweeps that finish
        between display refreshes.
        """
        self._stop.set()
        try:
            self._heartbeats.put_nowait(None)  # type: ignore[attr-defined]
        except (OSError, ValueError):
            pass
        self._thread.join(timeout=2.0)
        while True:
            try:
                event = self._heartbeats.get_nowait()  # type: ignore[attr-defined]
            except (queue_module.Empty, OSError, ValueError):
                break
            if event is not None:
                self._apply(event)


class SweepEngine:
    """Runs batches of sweep cells, in parallel and through the cache.

    Results come back in the order the cells were given, regardless of
    which worker finished first, and duplicate cells within a batch are
    simulated once.  ``jobs=1`` executes in-process (and is what the
    determinism tests compare the pool against).

    The pool path is engineered for throughput: cells are submitted in
    contiguous chunks (``chunk_size`` per pool task; auto-sized to a few
    chunks per worker by default) so per-task pickling and future
    overhead amortize, and the pool itself is spawned once — warm
    workers preimport the simulator and are reused across batches until
    :meth:`close` (the engine is a context manager).  Chunks preserve
    input order, so results are the same, bitwise, at any chunk size.

    Observability is opt-in and free when off: with ``metrics`` the engine
    counts cells/cache traffic, times each cell, and merges the workers'
    kernel hot-loop counters back into the given registry; with
    ``run_log`` it appends one structured JSONL audit record per unique
    cell.  With ``diagnose=True`` (or a ``diagnosis_log``) every executed
    cell additionally runs the
    :mod:`~repro.obs.diagnose` engine worker-side — the oracle baselines
    are batched through this same engine first, then each worker ships a
    :class:`~repro.obs.diagnose.PolicyDiagnosis` home next to its result,
    collected in :attr:`diagnoses` by run id (cache hits carry no kernel
    run and are not re-diagnosed).  None of this can change a result —
    every cell runs through the same worker entry point and the very
    same simulation, and the determinism tests pin the equality bitwise.

    Sweep-level telemetry rides the same observer seam: pass a
    :class:`~repro.obs.telemetry.SweepTelemetry` to span-trace the
    pipeline (pool spin-up, chunk submission, per-cell execution on one
    lane per worker, cache hits, baseline dedup, result merge — export
    via ``telemetry.chrome_trace()``), and ``progress=True`` for the
    live heartbeat-driven TTY display (silently inert when
    ``progress_stream`` is not a terminal).  Both are pure observers;
    ``benchmarks/bench_telemetry_overhead.py`` enforces bitwise equality
    and the overhead bar.  :meth:`fleet_record` summarizes everything
    the engine served into one fleet-ledger entry.

    Pass a :class:`~repro.obs.profile.PhaseProfile` as ``profile`` to
    attribute the sweep's wall time to pipeline phases: the engine
    stamps its own stages (spin-up, submission, cache I/O, result IPC)
    and every :class:`CellOutcome` carries the worker's compute /
    reduction / diagnosis stamps home (dropped when no profile is
    attached); the per-phase totals land in the
    fleet record and, with telemetry on, as nested spans in the Chrome
    trace.  ``benchmarks/bench_profile_overhead.py`` holds profiling to
    the same bitwise-equality and overhead bars.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        metrics: Optional[MetricsRegistry] = None,
        run_log: Optional[RunLogWriter] = None,
        diagnose: bool = False,
        diagnosis_log: Optional[DiagnosisWriter] = None,
        chunk_size: Optional[int] = None,
        telemetry: Optional[SweepTelemetry] = None,
        progress: bool = False,
        progress_stream: Optional[IO[str]] = None,
        profile: Optional[PhaseProfile] = None,
    ):
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        self.jobs = jobs
        self.cache = cache
        self.metrics = metrics
        self.run_log = run_log
        self.diagnosis_log = diagnosis_log
        self.chunk_size = chunk_size
        self._diagnose = diagnose or diagnosis_log is not None
        if self._diagnose:
            # Loaded here, before the pool forks, so forked workers
            # inherit the diagnosis stack (and numpy) instead of each
            # importing it again.
            import repro.obs.diagnose  # noqa: F401
        #: diagnoses of executed cells, keyed by run id (the cache key).
        self.diagnoses: Dict[str, PolicyDiagnosis] = {}
        self.stats = SweepStats()
        self._run_depth = 0  # baseline batches re-enter run()
        self._pool: Optional[ProcessPoolExecutor] = None
        self.telemetry = telemetry
        self.profile = profile
        self.progress = progress
        self._progress_lock = threading.Lock()
        self._cell_labels: Dict[int, str] = {}
        self._next_cell_id = 0
        self._worker_ordinals: Dict[int, int] = {}
        self._pump: Optional[_HeartbeatPump] = None
        # The heartbeat queue is created up front (not per batch): pool
        # initargs are fixed at pool spin-up, and the warm pool outlives
        # individual batches.
        self._heartbeats = None
        if progress and jobs > 1:
            import multiprocessing

            self._heartbeats = multiprocessing.Queue()
        if progress:
            from repro.obs.telemetry import ProgressModel, ProgressRenderer

            stream = progress_stream if progress_stream is not None else sys.stderr
            self.progress_model: Optional[ProgressModel] = ProgressModel()
            self.progress_renderer: Optional[ProgressRenderer] = ProgressRenderer(
                self.progress_model, stream
            )
        else:
            self.progress_model = None
            self.progress_renderer = None
        # Grid axes of top-level batches, accumulated for fleet_record().
        self._axis_policies: Set[str] = set()
        self._axis_workloads: Set[str] = set()
        self._axis_machines: Set[str] = set()
        self._axis_seeds: Set[int] = set()
        self._axis_backends: Set[str] = set()

    @property
    def diagnosing(self) -> bool:
        """Whether executed cells are diagnosed worker-side."""
        return self._diagnose

    def close(self) -> None:
        """Shut down the warm worker pool (idempotent).

        The engine stays usable — the next pooled batch spawns a fresh
        pool.  Exiting the engine's ``with`` block calls this.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()

    def __enter__(self) -> "SweepEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def _new_pool(self, workers: int) -> ProcessPoolExecutor:
        """A worker pool whose workers import the simulator on start.

        The pool machinery is imported here: a batch served wholly from
        the cache, or run in-process, never starts one.
        """
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(
            max_workers=workers,
            initializer=_warm_worker,
            initargs=(self._heartbeats, self._diagnose),
        )

    def _chunked(
        self, todo: List[Tuple[str, SweepCell, int]], workers: int
    ) -> List[List[Tuple[str, SweepCell, int]]]:
        """Split ``todo`` into contiguous chunks, preserving order.

        Auto-sizing targets four chunks per worker: large enough to
        amortize per-task pickling, small enough that a slow cell does
        not leave the other workers idle at the tail of the batch.
        """
        size = self.chunk_size
        if size is None:
            size = max(1, -(-len(todo) // (workers * 4)))
        return [todo[i : i + size] for i in range(0, len(todo), size)]

    def _run_chunks(
        self,
        chunks: List[List[Tuple[str, SweepCell, int]]],
        with_metrics: bool,
        diagnose: bool,
        baselines: Dict[str, Optional[float]],
    ) -> List[CellOutcome]:
        """Submit chunks to the warm pool (spawned on first use) and
        flatten their outcomes back into todo order.

        Raises:
            SweepCellError: for an in-worker failure (naming the exact
                cell, original exception as ``__cause__``) or a pool-level
                failure (attributed to the chunk's first cell).
        """
        if self._pool is None:
            with self._t_span(
                "pool spin-up", workers=self.jobs
            ), self._p_interval(PHASE_SPINUP):
                self._pool = self._new_pool(self.jobs)
        pool = self._pool
        with self._t_span(
            "submit chunks",
            chunks=len(chunks),
            cells=sum(len(chunk) for chunk in chunks),
        ), self._p_interval(PHASE_SUBMIT):
            futures = [
                pool.submit(
                    _execute_chunk,
                    [cell for _, cell, _ in chunk],
                    with_metrics,
                    diagnose,
                    [baselines.get(key) for key, _, _ in chunk],
                    [cell_id for _, _, cell_id in chunk],
                )
                for chunk in chunks
            ]
        fresh: List[CellOutcome] = []
        for chunk, future in zip(chunks, futures):
            wait_start = perf_counter()
            try:
                outcomes = future.result()
            except Exception as exc:
                # The pool itself failed (worker crash, result transport);
                # a dead warm pool must not poison the next batch.
                self.close()
                raise SweepCellError(chunk[0][1], exc) from exc
            for (_, cell, _), outcome in zip(chunk, outcomes):
                if isinstance(outcome, BaseException):
                    raise SweepCellError(cell, outcome) from outcome
                fresh.append(outcome)
            if self.profile is not None:
                # Result IPC: the slice of the wait after the chunk's
                # last cell finished computing is unpickling/transfer —
                # the rest of the wait is covered by the workers' own
                # compute stamps on the shared timebase.
                ipc_start = max([wait_start] + [o.t_end for o in outcomes])
                self.profile.add_interval(PHASE_IPC, ipc_start, perf_counter())
        return fresh

    def run(self, cells: Iterable[SweepCell]) -> List[CellResult]:
        """Execute ``cells`` and return their results, input-ordered.

        Raises:
            SweepCellError: when a worker fails (or the pool breaks),
                naming the affected cell.
        """
        start = perf_counter()
        if self._run_depth == 0:
            self._begin_sweep()
        self._run_depth += 1
        try:
            return self._run_batch(cells)
        finally:
            self._run_depth -= 1
            if self._run_depth == 0:
                self.stats.wall_s += perf_counter() - start
                self._end_sweep()

    def _begin_sweep(self) -> None:
        """Arm the observers before a top-level batch."""
        if self.telemetry is not None:
            self.telemetry.start()
        if (
            self._heartbeats is not None
            and self.progress_model is not None
            and self._pump is None
        ):
            self._pump = _HeartbeatPump(
                self._heartbeats,
                self.progress_model,
                self.progress_renderer,
                self._cell_labels,
                self._progress_lock,
            )
            self._pump.start()

    def _end_sweep(self) -> None:
        """Settle the observers after a top-level batch completes."""
        pump, self._pump = self._pump, None
        if pump is not None:
            pump.stop()
        if self.progress_renderer is not None:
            self.progress_renderer.finish()

    def _t_span(self, name: str, **args: object):
        """A telemetry span context, or a no-op when telemetry is off."""
        if self.telemetry is None:
            return contextlib.nullcontext()
        return self.telemetry.span(name, **args)

    @contextlib.contextmanager
    def _p_interval(self, phase: str):
        """Stamp the enclosed engine-side work into the phase profile.

        A no-op context when no profile is attached — the profiled path
        costs two ``perf_counter`` reads per use.
        """
        if self.profile is None:
            yield
            return
        t0 = perf_counter()
        try:
            yield
        finally:
            self.profile.add_interval(phase, t0, perf_counter())

    def _new_cell_id(self, cell: SweepCell) -> int:
        """A sweep-unique display id for one pending cell."""
        cell_id = self._next_cell_id
        self._next_cell_id += 1
        self._cell_labels[cell_id] = (
            f"{cell.policy.label}/{cell.workload.name}"
        )
        return cell_id

    def _ordinal_for(self, pid: int) -> int:
        """Stable zero-based worker ordinal for ``pid``.

        Shares the telemetry lane assignment when telemetry is on, so
        run-log ordinals and trace lanes name the same worker.
        """
        if self.telemetry is not None and pid != os.getpid():
            return self.telemetry.ordinal_for(pid)
        ordinal = self._worker_ordinals.get(pid)
        if ordinal is None:
            ordinal = len(self._worker_ordinals)
            self._worker_ordinals[pid] = ordinal
        return ordinal

    def _record_axes(self, cells: List[SweepCell]) -> None:
        """Accumulate top-level grid axes for :meth:`fleet_record`."""
        for cell in cells:
            self._axis_policies.add(cell.policy.label)
            self._axis_workloads.add(cell.workload.name)
            self._axis_machines.add(cell.machine.label)
            self._axis_seeds.add(cell.seed)
            self._axis_backends.add(resolve_backend(cell.backend).name)

    def fleet_record(self, command: str = "") -> FleetRecord:
        """Summarize everything this engine served as one ledger entry."""
        finished = now_unix()
        return FleetRecord(
            sweep_id=new_sweep_id(finished),
            unix_time=finished,
            command=command,
            policies=tuple(sorted(self._axis_policies)),
            workloads=tuple(sorted(self._axis_workloads)),
            machines=tuple(sorted(self._axis_machines)),
            seeds=len(self._axis_seeds),
            cells_total=self.stats.total,
            cells_executed=self.stats.executed,
            cells_cached=self.stats.cache_hits,
            wall_s=self.stats.wall_s,
            cells_per_s=self.stats.cells_per_s,
            backend=",".join(sorted(self._axis_backends)),
            jobs=self.jobs,
            git_sha=git_sha(),
            host_score=host_score(),
            phases=(
                tuple(sorted(self.profile.phase_seconds().items()))
                if self.profile is not None
                else ()
            ),
        )

    def _run_batch(self, cells: Iterable[SweepCell]) -> List[CellResult]:
        ordered = list(cells)
        keys = [cache_key(cell) for cell in ordered]
        results: Dict[str, CellResult] = {}
        if self._run_depth == 1:
            self._record_axes(ordered)
        if self.progress_model is not None:
            with self._progress_lock:
                self.progress_model.add_total(len(set(keys)))

        pending: Dict[str, SweepCell] = {}
        for key, cell in zip(keys, ordered):
            if key in results or key in pending:
                continue
            if self.cache is not None:
                with self._p_interval(PHASE_CACHE):
                    hit = self.cache.get(key)
            else:
                hit = None
            if hit is not None:
                results[key] = hit
                self.stats.cache_hits += 1
                self._observe(cell, key, hit, wall_s=0.0, cached=True)
                if self.telemetry is not None:
                    self.telemetry.add_instant(
                        "cache hit",
                        policy=cell.policy.label,
                        workload=cell.workload.name,
                        seed=cell.seed,
                    )
                if self.progress_model is not None:
                    with self._progress_lock:
                        self.progress_model.cache_hit(-1, perf_counter())
                    if self.progress_renderer is not None:
                        self.progress_renderer.update()
            else:
                pending[key] = cell

        # Diagnosis wants the oracle baseline per workload/machine/seed
        # combination.  Those constant-step searches run through this very
        # engine (parallelized and cached); _run_depth > 1 marks the
        # nested batches so they are not themselves diagnosed.
        diagnosing = self._diagnose and self._run_depth == 1
        baselines: Dict[str, Optional[float]] = {}
        if diagnosing and pending:
            with self._t_span("baseline dedup", cells=len(pending)):
                baselines = self._compute_baselines(pending)

        if pending:
            todo = [
                (key, cell, self._new_cell_id(cell))
                for key, cell in pending.items()
            ]
            with_metrics = self.metrics is not None
            if self.jobs > 1 and len(todo) > 1:
                workers = min(self.jobs, len(todo))
                if self.metrics is not None:
                    self.metrics.gauge("sweep.workers").set(workers)
                outcomes = self._run_chunks(
                    self._chunked(todo, workers),
                    with_metrics,
                    diagnosing,
                    baselines,
                )
            else:
                outcomes = []
                for key, cell, cell_id in todo:
                    self._progress_cell_started(cell_id)
                    outcomes.append(_execute_cell(
                        cell, with_metrics, diagnosing, baselines.get(key)
                    ))
                    self._progress_cell_finished(cell_id)
            with self._t_span("merge results", cells=len(todo)):
                for (key, cell, cell_id), outcome in zip(todo, outcomes):
                    result = outcome.result
                    if self.metrics is not None and outcome.metrics is not None:
                        self.metrics.merge(outcome.metrics)
                    if self.profile is not None:
                        self.profile.add_group(outcome.phases)
                    results[key] = result
                    if self.cache is not None:
                        with self._p_interval(PHASE_CACHE):
                            self.cache.put(key, result)
                    self._observe(
                        cell, key, result, wall_s=outcome.wall_s,
                        cached=False, worker_pid=outcome.pid,
                    )
                    if self.telemetry is not None:
                        self._trace_cell(cell, cell_id, outcome)
                    if outcome.diagnosis is not None:
                        self.diagnoses[key] = outcome.diagnosis
                        if self.diagnosis_log is not None:
                            self.diagnosis_log.write(outcome.diagnosis)
            self.stats.executed += len(todo)

        return [results[key] for key in keys]

    def _trace_cell(
        self, cell: SweepCell, cell_id: int, outcome: CellOutcome
    ) -> None:
        """Span one executed cell on its worker's telemetry lane."""
        from repro.obs.telemetry import LANE_ENGINE

        telemetry = self.telemetry
        pid = outcome.pid
        lane = LANE_ENGINE if pid == os.getpid() else telemetry.lane_for(pid)
        telemetry.add_span(
            self._cell_labels.get(cell_id, cell.policy.label),
            telemetry.to_us(outcome.t_start),
            telemetry.to_us(outcome.t_end),
            lane=lane,
            seed=cell.seed,
            machine=cell.machine.label,
        )
        # With a profile attached, phase stamps go on the same lane, inside
        # the cell span (or, for the worker's start-up, before it);
        # compute is the span itself.
        if self.profile is None:
            return
        for phase, p0, p1 in outcome.phases:
            if phase != PHASE_COMPUTE:
                telemetry.add_span(
                    phase, telemetry.to_us(p0), telemetry.to_us(p1), lane=lane
                )

    def _progress_cell_started(self, cell_id: int) -> None:
        """Feed the in-process execution path into the progress model."""
        if self.progress_model is None:
            return
        with self._progress_lock:
            self.progress_model.cell_started(
                os.getpid(), cell_id, perf_counter(),
                self._cell_labels.get(cell_id, ""),
            )
        if self.progress_renderer is not None:
            self.progress_renderer.update()

    def _progress_cell_finished(self, cell_id: int) -> None:
        if self.progress_model is None:
            return
        with self._progress_lock:
            self.progress_model.cell_finished(
                os.getpid(), cell_id, perf_counter()
            )
        if self.progress_renderer is not None:
            self.progress_renderer.update()

    def _compute_baselines(
        self, pending: Dict[str, SweepCell]
    ) -> Dict[str, Optional[float]]:
        """Exact oracle energies of ``pending`` cells, by cache key.

        One search runs per unique baseline coordinate.  Infeasible
        workloads (no constant step meets their deadlines) map to None;
        the decomposition then reports against a zero baseline.
        """
        by_coordinate: Dict[str, Optional[float]] = {}
        out: Dict[str, Optional[float]] = {}
        for key, cell in pending.items():
            coordinate = _baseline_key(cell)
            if coordinate not in by_coordinate:
                try:
                    by_coordinate[coordinate] = find_ideal_constant(
                        cell.workload,
                        machine=cell.machine,
                        seed=cell.seed,
                        kernel_config=cell.kernel_config,
                        engine=self,
                        backend=cell.backend,
                    ).exact_energy_j
                except ValueError:
                    by_coordinate[coordinate] = None
            out[key] = by_coordinate[coordinate]
        return out

    def _observe(
        self,
        cell: SweepCell,
        key: str,
        result: CellResult,
        wall_s: float,
        cached: bool,
        worker_pid: Optional[int] = None,
    ) -> None:
        """Account one served cell to the metrics registry and run-log.

        ``worker_pid`` attributes an executed cell to the process that ran
        it (None for cache hits, which no worker touched); the run-log
        records it with the worker's ordinal so reports can attribute
        stragglers.
        """
        if self.metrics is not None:
            which = "sweep.cells_cached" if cached else "sweep.cells_executed"
            self.metrics.counter(which).inc()
            if not cached:
                self.metrics.histogram("sweep.cell_wall_s").observe(wall_s)
        if self.run_log is not None:
            self.run_log.write(
                RunLogRecord(
                    run_id=key,
                    policy=cell.policy.label,
                    workload=cell.workload.name,
                    machine=cell.machine.label,
                    seed=cell.seed,
                    duration_us=result.duration_us,
                    energy_j=result.energy_j,
                    exact_energy_j=result.exact_energy_j,
                    miss_count=result.miss_count,
                    cache="hit" if cached else "executed",
                    wall_s=wall_s,
                    unix_time=now_unix(),
                    worker_pid=worker_pid,
                    worker_ordinal=(
                        self._ordinal_for(worker_pid)
                        if worker_pid is not None
                        else None
                    ),
                )
            )


@dataclass(frozen=True)
class SweepSpec:
    """A full experiment grid: machines × policies × workloads × seeds.

    Attributes:
        policies: the policy axis.
        workloads: the workload axis.
        seeds: the repetition axis.
        machines: the machine axis (default: the modified Itsy only).
        kernel_config: shared kernel tunables (None = defaults).
        use_daq: measure through the DAQ model.
        backend: execution-backend name for every cell (None = the
            default; bitwise-equal results on any backend).
    """

    policies: Tuple[PolicySpec, ...]
    workloads: Tuple[WorkloadSpec, ...]
    seeds: Tuple[int, ...] = (0,)
    machines: Tuple[MachineSpec, ...] = (MachineSpec(),)
    kernel_config: Optional[KernelConfig] = None
    use_daq: bool = True
    backend: Optional[str] = None

    def cells(self) -> List[SweepCell]:
        """The grid flattened in deterministic machine-major order."""
        return [
            SweepCell(
                workload=workload,
                policy=policy,
                seed=seed,
                kernel_config=self.kernel_config,
                use_daq=self.use_daq,
                machine=machine,
                backend=self.backend,
            )
            for machine in self.machines
            for policy in self.policies
            for workload in self.workloads
            for seed in self.seeds
        ]


def run_sweep(
    spec: SweepSpec, engine: Optional[SweepEngine] = None
) -> List[CellResult]:
    """Execute a sweep grid; results follow :meth:`SweepSpec.cells` order."""
    return (engine or SweepEngine()).run(spec.cells())


@dataclass(frozen=True)
class RepeatedSummary:
    """Aggregate of several runs of one cell family: the per-run summaries
    and the 95 % confidence interval of their measured energies."""

    results: Tuple[CellResult, ...]
    energy_ci: ConfidenceInterval

    @property
    def any_missed(self) -> bool:
        """True if any run missed any deadline."""
        return any(r.missed for r in self.results)

    @property
    def total_misses(self) -> int:
        """Total deadline misses across runs."""
        return sum(r.miss_count for r in self.results)

    @property
    def mean_energy_j(self) -> float:
        """Mean measured energy."""
        return self.energy_ci.mean


def repeat_workload(
    workload: WorkloadSpec,
    policy: PolicySpec,
    machine: MachineSpec = MachineSpec(),
    runs: int = 5,
    base_seed: int = 0,
    kernel_config: Optional[KernelConfig] = None,
    use_daq: bool = True,
    engine: Optional[SweepEngine] = None,
    backend: Optional[str] = None,
) -> RepeatedSummary:
    """Run the experiment ``runs`` times and report the 95 % energy CI.

    Run ``i`` uses workload seed ``base_seed + 1000 * i`` (run-to-run
    variation is the workloads' seeded jitter), and all runs are
    submitted to ``engine`` as one batch (a fresh in-process engine when
    None), so they parallelize and cache.

    Raises:
        ValueError: for fewer than two runs.
    """
    if runs < 2:
        raise ValueError("need at least two runs for a confidence interval")
    cells = [
        SweepCell(
            workload=workload,
            policy=policy,
            seed=base_seed + 1000 * i,
            kernel_config=kernel_config,
            use_daq=use_daq,
            machine=machine,
            backend=backend,
        )
        for i in range(runs)
    ]
    results = (engine or SweepEngine()).run(cells)
    ci = confidence_interval([r.energy_j for r in results])
    return RepeatedSummary(results=tuple(results), energy_ci=ci)


def constant_step_cells(
    workload: WorkloadSpec,
    machine: MachineSpec = MachineSpec(),
    seed: int = 0,
    kernel_config: Optional[KernelConfig] = None,
    recording: str = RECORDING_MINIMAL,
    backend: Optional[str] = None,
) -> List[SweepCell]:
    """One exact-energy cell per constant clock step of ``machine``.

    These cells never touch the DAQ, so they default to minimal recording:
    the streaming energy meter and quantum statistics carry everything a
    :class:`CellResult` needs, bitwise-equal to full recording but without
    building the power timeline and quantum log in the hot loop.
    """
    return [
        SweepCell(
            workload=workload,
            policy=PolicySpec(name=f"const-{step.mhz:.1f}"),
            seed=seed,
            kernel_config=kernel_config,
            use_daq=False,
            machine=machine,
            recording=recording,
            backend=backend,
        )
        for step in machine.clock_table()
    ]


def find_ideal_constant(
    workload: WorkloadSpec,
    machine: MachineSpec = MachineSpec(),
    seed: int = 0,
    kernel_config: Optional[KernelConfig] = None,
    engine: Optional[SweepEngine] = None,
    backend: Optional[str] = None,
) -> CellResult:
    """The energy-minimal *feasible* constant clock step for a workload.

    This is the oracle the paper measures against ("the best possible
    scheduling goal for MPEG would be to switch to a 132.7MHz speed"):
    run the workload at every constant step of ``machine``, discard runs
    with deadline misses, return the cheapest survivor's summary (the
    first strictly-cheaper one in table order).  All constant-step runs
    are submitted to ``engine`` as one batch, so they parallelize and
    cache.

    Raises:
        ValueError: if no constant step meets the workload's deadlines.
    """
    cells = constant_step_cells(
        workload,
        machine=machine,
        seed=seed,
        kernel_config=kernel_config,
        backend=backend,
    )
    results = (engine or SweepEngine()).run(cells)
    best: Optional[CellResult] = None
    for result in results:
        if result.missed:
            continue
        if best is None or result.exact_energy_j < best.exact_energy_j:
            best = result
    if best is None:
        raise ValueError(f"no constant step meets {workload.name}'s deadlines")
    return best
