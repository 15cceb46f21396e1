"""Parallel sweep execution with a content-addressed result cache.

The paper's evaluation is an exhaustive grid — predictor × speed setter ×
thresholds × workload, repeated for confidence intervals — and every
simulation the CLI runs is one cell of such a grid.  This module is the one
way to run cells, and it makes large grids cheap:

- a :class:`SweepCell` names one simulation by *value* (policy name,
  workload name and config, machine spec, seed, kernel config) instead of
  by closures, so cells pickle cleanly to worker processes and digest stably
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
than dispatch: each cell is one pool task, so a worker that finishes
takes the next cell of the batch however unevenly the cells cost (a
diagnosed cell costs about four of its oracle search's cells), the pool
is *warm* (spawned once per engine, workers preimport the simulator via
an initializer — under ``fork`` the parent imports it once just before
the pool starts, and the workers inherit it — and the pool is reused
across batches until :meth:`close`), and :class:`CellResult` pickles as
a compact field tuple.  A batch served wholly from the cache, or run
in-process, starts no pool; one served wholly from the cache also loads
no simulator (no kernel, power timeline or machine model), which loads
only where a cell runs.  None of it is observable in the numbers: tasks
are submitted and read back in batch order, and every cell, in-process
or pooled, runs through the one per-cell entry point, which returns the
cell's :class:`CellOutcome` or the exception it raised; the engine
raises the first failure in batch order as a :class:`SweepCellError`.

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
import json
import os
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.hw.clocksteps import ClockTable
from repro.hw.machines import MachineSpec
from repro.kernel.config import KernelConfig
from repro.kernel.recorders import RECORDING_FULL, RECORDING_MINIMAL
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
    SweepObserver,
    SweepTimeline,
)
from repro.obs.runlog import now_unix, write_atomic
from repro.kernel.backend import resolve_backend
from repro.measure.stats import ConfidenceInterval, confidence_interval
from repro.workloads.chess import ChessConfig, chess_workload
from repro.workloads.editor import EditorConfig, editor_workload
from repro.workloads.fuzz import FuzzSpec, fuzz_workload
from repro.workloads.mpeg import MpegConfig, mpeg_workload
from repro.workloads.web import WebConfig, web_workload

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

    from repro.kernel.governor import Governor
    from repro.obs.diagnose import PolicyDiagnosis
    from repro.workloads.base import Workload

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
}


@dataclass(frozen=True)
class WorkloadSpec:
    """A workload named by value: picklable and stably digestible.

    Attributes:
        name: key into :data:`WORKLOAD_BUILDERS`
            (mpeg/web/chess/editor/fuzz).
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

    Attributes:
        name: a policy grammar name (``best``, ``avg3-peg``,
            ``avg3-one-70-50``, ``const-132.7@1.23`` — see
            :func:`repro.core.catalog.resolve_policy`).
    """

    name: str

    @property
    def label(self) -> str:
        """The policy's name, as logs and fleet records show it."""
        return self.name

    def build_factory(
        self, clock_table: Optional[ClockTable] = None
    ) -> Callable[[], Governor]:
        """A fresh-governor factory for this spec.

        Args:
            clock_table: the machine's clock table, so speed setters and
                constant speeds resolve against the machine the cell
                actually runs on (None = the SA-1100 default).

        Raises:
            ValueError: for unknown names.
        """
        from repro.core.catalog import resolve_policy

        return resolve_policy(self.name, clock_table=clock_table)


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

    @property
    def label(self) -> str:
        """``policy/workload``: the cell's name on the progress line and
        in the sweep trace."""
        return f"{self.policy.label}/{self.workload.name}"

    def execute(self):
        """Execute the cell serially and return the full
        :class:`~repro.measure.runner.ExperimentResult`.

        Diagnosis needs the complete :class:`KernelRun`; callers that only
        want the picklable summary use :meth:`run` instead.
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
            backend=self.backend,
        )

    def run(self) -> "CellResult":
        """Execute the cell serially and summarize it for transport."""
        return CellResult.from_experiment(self.execute())


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

        The residency and final-step fields come from the run's
        :class:`~repro.kernel.recorders.QuantumStats`, which both kernels
        keep in either recording mode, so the summary is bitwise-equal
        whichever recorded the run and never materializes the quantum
        log.
        """
        run = result.run
        stats = run.quantum_stats
        counts: Dict[float, int] = {}
        for index, quanta in stats.quanta_by_step.items():
            mhz = stats.mhz_by_step[index]
            counts[mhz] = counts.get(mhz, 0) + quanta
        n = stats.count
        residency = tuple(
            (mhz, counts[mhz] / n) for mhz in sorted(counts)
        ) if n else ()
        worst = max(result.misses, key=lambda e: e.lateness_us) if result.misses else None
        return cls(
            energy_j=result.energy_j,
            exact_energy_j=result.exact_energy_j,
            mean_power_w=result.mean_power_w,
            mean_utilization=stats.mean_utilization(),
            duration_us=run.duration_us,
            miss_count=len(result.misses),
            worst_miss_kind=worst.kind if worst else None,
            worst_lateness_us=worst.lateness_us if worst else 0.0,
            clock_changes=run.clock_changes,
            clock_stall_us=run.clock_stall_us,
            voltage_changes=run.voltage_changes,
            final_step_index=stats.final_step_index,
            final_mhz=stats.final_mhz,
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


#: The override fields :class:`MachineSpec` no longer has, digested as the
#: nulls every spec held, so that no cache key or run-log run id moves.
_RETIRED_MACHINE_FIELDS = dict.fromkeys([
    "initial_mhz", "frequencies_mhz", "low_voltage_max_mhz", "power",
    "clock_stall_us", "volt_settle_us", "reconf_power_w",
])


def cache_key(cell: SweepCell) -> str:
    """The content address of a cell's result.

    A SHA-256 digest over the canonical JSON of (policy name,
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
        # "params" is always empty since policies are named by grammar
        # alone; it stays so that every existing digest (cache entries,
        # run-log run ids) is unchanged.
        "policy": {"name": cell.policy.name, "params": []},
        "workload": {
            "name": cell.workload.name,
            "config": _canonical(cell.workload.effective_config()),
        },
        "machine": {**_canonical(cell.machine), **_RETIRED_MACHINE_FIELDS},
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
        payload = {"schema": CACHE_SCHEMA_VERSION, "key": key, "result": result.to_json()}
        write_atomic(self.path_for(key), json.dumps(payload))

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
        pid: the process that ran the cell.
        phases: the cell's ``(phase, t_start, t_end)`` stamps on the
            shared ``perf_counter`` timebase, in order — the worker's
            start-up stamp on its first cell, kernel compute, diagnosis,
            and the summary reduction last.
        diagnosis: the cell's
            :class:`~repro.obs.diagnose.PolicyDiagnosis`, or None when
            the engine does not diagnose.
    """

    result: CellResult
    pid: int
    phases: Tuple[Tuple[str, float, float], ...]
    diagnosis: Optional[PolicyDiagnosis] = None

    @property
    def wall_s(self) -> float:
        """Simulation time alone (the kernel-compute stamp): what the
        run-log records."""
        return next(t1 - t0 for name, t0, t1 in self.phases if name == PHASE_COMPUTE)


def _execute_cell(cell: SweepCell, diagnose: bool) -> CellOutcome:
    """Worker entry point (module-level so it pickles): run one cell.

    ``cell.run`` split into its two halves (:meth:`SweepCell.execute` +
    :meth:`CellResult.from_experiment`) — the very same computation,
    stamped between the halves — so results are bitwise-identical
    however the cell is observed.  ``diagnose`` forces full recording
    (diagnosis needs the quantum log and power timeline; recording modes
    are bitwise-equivalent in everything a :class:`CellResult` carries)
    and diagnoses the cell worker-side, against no oracle: the engine
    closes the diagnosis against the cell's oracle once its batch is in.
    """
    if diagnose:
        cell = dataclasses.replace(cell, recording=RECORDING_FULL)
    start = perf_counter()
    experiment = cell.execute()
    t_computed = t_reduce = perf_counter()
    phases = [*_take_worker_start(), (PHASE_COMPUTE, start, t_computed)]
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
        )
        t_reduce = perf_counter()
        phases.append((PHASE_DIAGNOSE, t_computed, t_reduce))
    result = CellResult.from_experiment(experiment)
    phases.append((PHASE_REDUCE, t_reduce, perf_counter()))
    return CellOutcome(
        result=result, pid=os.getpid(), phases=tuple(phases), diagnosis=diagnosis
    )


#: Worker-global write end of the engine's heartbeat pipe, installed by
#: :func:`_warm_worker`.  None in workers whose engine has no observer
#: watching cells in flight.
_HEARTBEATS: Optional[object] = None

#: This worker's start-up interval, stamped by :func:`_warm_worker` and
#: sent home once, with the worker's first outcome.
_WORKER_START: Optional[Tuple[str, float, float]] = None


def _import_cell_path(diagnosing: bool) -> None:
    """Import every module that executing a sweep cell loads.

    :mod:`repro.measure.runner` brings both kernel cores, every workload
    builder, the DAQ and numpy; the rest load lazily on a cell's first
    run: the DAQ's noise generator (:mod:`numpy.random`), the policy
    catalog, the machine models a :class:`~repro.hw.machines.MachineSpec`
    builds, and the fast-path kernel.  A diagnosed cell also needs
    :mod:`repro.obs.diagnose` and :mod:`numpy.fft`.  With all of them
    loaded, a cell's ``kernel compute`` stamp holds no import, which
    ``tests/test_imports.py`` pins.
    """
    import numpy.random  # noqa: F401
    import repro.core.catalog  # noqa: F401
    import repro.hw.itsy  # noqa: F401
    import repro.hw.sa2  # noqa: F401
    import repro.kernel.fastpath  # noqa: F401
    import repro.measure.runner  # noqa: F401

    if diagnosing:
        import numpy.fft  # noqa: F401
        import repro.obs.diagnose  # noqa: F401


def _warm_worker(
    heartbeats: Optional[object], diagnosing: bool, started: float
) -> None:
    """Pool initializer: import the simulator once per worker process.

    Every worker imports the cell path (:func:`_import_cell_path`)
    before its first cell.  Under ``fork`` the parent has imported it
    just before the pool started, so the worker finds it inherited;
    under ``forkserver`` and ``spawn`` each worker imports it itself, in
    parallel with its siblings.  The worker's start-up is stamped as
    :data:`~repro.obs.profile.PHASE_WORKER_START` from ``started``, the
    parent's ``perf_counter()`` when it created the pool (one
    system-wide clock on Linux), so interpreter start and unpickling
    count too.

    ``heartbeats`` is the write end of the engine's heartbeat pipe (or
    None): pool initargs travel through ``Process`` arguments, which is
    exactly the channel a ``multiprocessing`` connection is allowed to
    cross under every start method.
    """
    global _HEARTBEATS, _WORKER_START
    _HEARTBEATS = heartbeats
    _import_cell_path(diagnosing)
    _WORKER_START = (PHASE_WORKER_START, started, perf_counter())


def _take_worker_start() -> Tuple[Tuple[str, float, float], ...]:
    """The worker's start-up stamp the first time, then nothing."""
    global _WORKER_START
    stamp, _WORKER_START = _WORKER_START, None
    return (stamp,) if stamp is not None else ()


def _started_in_batch(outcome: CellOutcome, batch_start: float) -> CellOutcome:
    """``outcome`` with its worker's start-up stamp clipped to the batch.

    A pool may start a worker on demand, in a later batch than the one
    that created the pool (``forkserver`` and ``spawn`` pools do); its
    stamp, which begins at pool creation, would then span the time
    between the batches.
    """
    phase, t_start, t_end = outcome.phases[0]
    if phase != PHASE_WORKER_START or not t_start < batch_start < t_end:
        return outcome
    return dataclasses.replace(
        outcome, phases=((phase, batch_start, t_end), *outcome.phases[1:])
    )


#: A heartbeat: ``(done, pid, cell_id, perf_counter(), cell label)``.
Heartbeat = Tuple[bool, int, int, float, str]


def _heartbeat(event: Heartbeat) -> None:
    """Send a pool worker's heartbeat down the engine's pipe, if any.

    ``Connection.send`` writes the heartbeat before it returns, so a
    cell's heartbeats are all in the pipe before its outcome leaves the
    worker.  A heartbeat is one write shorter than ``PIPE_BUF``, which
    POSIX makes atomic, so the workers share the pipe without a lock: a
    worker killed mid-write leaves neither half a heartbeat nor a held
    lock that would stall every later one.
    """
    if _HEARTBEATS is not None:
        _HEARTBEATS.send(event)


def _execute_task(
    cell: SweepCell,
    diagnose: bool,
    cell_id: int,
    beat: Callable[[Heartbeat], None] = _heartbeat,
) -> Union[CellOutcome, Exception]:
    """Run one cell of a batch: the one per-cell entry point.

    A pool task runs one cell, and an in-process batch runs its cells
    through it one after another.  A failing cell returns its exception
    in place of its outcome, so the failure is attributed to the *cell*
    that raised it; the engine re-raises it as a :class:`SweepCellError`
    with the original exception as ``__cause__``.  The cell is bracketed
    by start/done heartbeats keyed by ``cell_id``, sent through
    ``beat``: the worker's heartbeat channel by default, the engine's
    live observers in-process.
    """
    pid = os.getpid()
    beat((False, pid, cell_id, perf_counter(), cell.label))
    try:
        return _execute_cell(cell, diagnose)
    except Exception as exc:
        return exc
    finally:
        beat((True, pid, cell_id, perf_counter(), cell.label))


#: One cell of a batch's run: ``(cell_id, cache key, cell, diagnose)``.
_Task = Tuple[int, str, SweepCell, bool]

#: The cell that failed a batch, and its exception (None: none failed).
_Failure = Optional[Tuple[SweepCell, Exception]]


class SweepCellError(RuntimeError):
    """A sweep cell failed; names the cell instead of an opaque error.

    The engine raises it at every ``jobs``, so a caller tells a failed
    cell from any ``ValueError`` of its own.  A crashed worker process
    surfaces as :class:`~concurrent.futures.process.BrokenProcessPool`
    with no hint of *which* simulation sank it; this wrapper carries the
    failing cell's coordinates (policy / workload / machine / seed) and
    keeps the original exception as ``__cause__``.
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


class SweepEngine:
    """Runs batches of sweep cells, in parallel and through the cache.

    Results come back in the order the cells were given, regardless of
    which worker finished first, and duplicate cells within a batch are
    simulated once.  ``jobs=1`` executes in-process (and is what the
    determinism tests compare the pool against), through the same
    per-cell entry point a pool worker runs, so a failing cell raises
    the same :class:`SweepCellError` at every ``jobs``: the first
    failure in batch order.  Before it raises, the engine serves —
    caches, diagnoses and tells its observers of — every cell that
    completed ahead of the failing one in batch order, and drops the
    cells after it even where a pool worker finished them, so every
    ``jobs`` leaves the same logs.

    The pool path is engineered for throughput: each cell is one pool
    task, submitted and read back in batch order, so a worker that
    finishes a cell takes the next one and the workers end a batch
    within about one cell of each other, however unevenly its cells
    cost; and the pool itself is spawned once — warm workers preimport
    the simulator and are reused across batches until :meth:`close` (the
    engine is a context manager).  Under ``fork`` the engine imports the
    simulator itself just before the pool starts, so the workers inherit
    it instead of each importing it; otherwise the simulator loads only
    where a cell runs, so a batch served from the cache loads neither it
    nor numpy.  Results are the same, bitwise, whichever worker ran
    which cell.

    With ``diagnose=True`` every executed cell of a batch additionally
    runs the :mod:`~repro.obs.diagnose` engine worker-side, and ships a
    :class:`~repro.obs.diagnose.PolicyDiagnosis` home next to its result
    (cache hits carry no kernel run and are not re-diagnosed).  Its
    oracle, the cheapest feasible constant step of the cell's workload,
    machine, seed and kernel config, is searched in the same batch: the
    :func:`constant_step_cells` of every such coordinate join it
    undiagnosed, ahead of the cells they serve, deduplicated by cache
    key and served from the cache like any cell.  Once the batch is in,
    the engine closes each diagnosis against its oracle and collects it
    in :attr:`diagnoses` by run id.  A diagnosed cell whose search the
    batch's failure cut short is served undiagnosed.

    Observation is opt-in and free when off: the engine stamps each
    pipeline stage once into a
    :class:`~repro.obs.profile.SweepTimeline` passed as ``timeline``,
    and tells the :class:`~repro.obs.profile.SweepObserver`\\ s in
    ``observers`` (run-log, diagnosis log, progress display) of every
    batch, cache hit and executed cell.  Every cell runs through the
    same worker entry point whatever observes it, and the determinism
    tests pin the equality bitwise.  :meth:`close` closes the observers
    after the pool, so the engine's ``with`` block releases every log.
    :meth:`fleet_record` summarizes everything the engine served into
    one fleet-ledger entry.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        diagnose: bool = False,
        timeline: Optional[SweepTimeline] = None,
        observers: Sequence[SweepObserver] = (),
    ):
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.jobs = jobs
        self.cache = cache
        self.timeline = timeline
        self.observers = tuple(observers)
        self._diagnose = diagnose
        #: the pool's process start method once the engine has started a
        #: pool (``""`` while every batch ran in-process or from the cache).
        self.start_method = ""
        #: diagnoses of executed cells, keyed by run id (the cache key).
        self.diagnoses: Dict[str, PolicyDiagnosis] = {}
        self.stats = SweepStats()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._cell_path_loaded = False  # see _load_cell_path
        #: pid -> zero-based ordinal, in order of first result: the
        #: run-log's worker ordinals and the trace's worker lanes.
        self._ordinals: Dict[int, int] = {}
        self._live = [
            o.on_heartbeat for o in self.observers if o.on_heartbeat is not None
        ]
        # The heartbeat pipe is created up front (not per batch): pool
        # initargs are fixed at pool spin-up, and the warm pool outlives
        # individual batches.  The workers write, the pump reads.
        self._heartbeat_reader = self._heartbeat_writer = None
        if self._live and jobs > 1:
            import multiprocessing

            self._heartbeat_reader, self._heartbeat_writer = multiprocessing.Pipe(
                duplex=False
            )
        # Grid axes of the batches' cells, accumulated for fleet_record().
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
        """Shut down the warm worker pool, then close every observer
        (idempotent).

        Exiting the engine's ``with`` block calls this, however the block
        ends.  The engine stays usable — the next pooled batch spawns a
        fresh pool, and a JSONL log reopens on its next line.
        """
        self._shutdown_pool()
        for observer in self.observers:
            observer.close()

    def _shutdown_pool(self) -> None:
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

    def _stage(self, name: str, **args: object):
        """Stamp one engine stage into the timeline (a no-op without one)."""
        if self.timeline is None:
            return contextlib.nullcontext()
        return self.timeline.stage(name, **args)

    def _load_cell_path(self) -> None:
        """Import the cell path in this process, stamped as worker
        start, at most once per engine.

        The engine calls it before its first in-process cell, so no
        cell's kernel compute stamp holds the import, and before a
        ``fork`` pool starts, so the workers inherit the import.
        """
        if not self._cell_path_loaded:
            self._cell_path_loaded = True
            with self._stage(PHASE_WORKER_START):
                _import_cell_path(self._diagnose)

    def _new_pool(self, workers: int) -> ProcessPoolExecutor:
        """A worker pool whose workers import the simulator on start.

        The pool machinery is imported here (stamped as pool spin-up): a
        batch served wholly from the cache, or run in-process, never
        starts one.  Under ``fork`` the engine then imports the cell path
        (:meth:`_load_cell_path`) and the workers inherit it; the parent
        is still single-threaded when it forks (numpy's OpenBLAS stops
        its one thread in its fork handler).
        """
        with self._stage(PHASE_SPINUP, workers=workers):
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            self.start_method = multiprocessing.get_start_method()
        if self.start_method == "fork":
            self._load_cell_path()
        return ProcessPoolExecutor(
            max_workers=workers,
            initializer=_warm_worker,
            initargs=(self._heartbeat_writer, self._diagnose, perf_counter()),
        )

    def _run_cells(self, todo: List[_Task]) -> Tuple[List[CellOutcome], _Failure]:
        """Run ``todo`` through :func:`_execute_task`: the outcomes of
        the cells ahead of the first failing one in todo order (all of
        them when none fails), and that failure.

        A ``jobs=1`` engine, or a one-cell batch, runs ``todo`` in this
        process, after the cell path import (:meth:`_load_cell_path`),
        beating straight to the live observers, and stops at the first
        failing cell.  Otherwise each cell is one task of the warm pool
        (spawned on first use), submitted and read back in todo order,
        and, while they run, a pump thread feeds their heartbeats to the
        live observers.  It starts after submission, so a ``fork`` pool
        forks a single-threaded parent, and stops at the ``None`` the
        engine writes once every task has ended: every heartbeat of the
        batch is in the pipe before that.  A pool-level failure (worker
        crash, result transport) is attributed to the first cell in todo
        order whose outcome it lost.
        """
        fresh: List[CellOutcome] = []
        if self.jobs == 1 or len(todo) == 1:
            self._load_cell_path()
            for cell_id, _, cell, diagnose in todo:
                outcome = _execute_task(cell, diagnose, cell_id, self._beat)
                if isinstance(outcome, Exception):
                    return fresh, (cell, outcome)
                fresh.append(outcome)
            return fresh, None
        batch_start = perf_counter()
        if self._pool is None:
            self._pool = self._new_pool(self.jobs)
        with self._stage(PHASE_SUBMIT, cells=len(todo)):
            futures = [
                self._pool.submit(_execute_task, cell, diagnose, cell_id)
                for cell_id, _, cell, diagnose in todo
            ]
        pump = None
        if self._heartbeat_reader is not None:
            pump = threading.Thread(
                target=self._pump, name="sweep-heartbeats", daemon=True
            )
            pump.start()
        try:
            for (_, _, cell, _), future in zip(todo, futures):
                wait_start = perf_counter()
                try:
                    outcome = future.result()
                except Exception as exc:
                    # A dead warm pool must not poison the next batch.
                    self._shutdown_pool()
                    return fresh, (cell, exc)
                if isinstance(outcome, Exception):
                    return fresh, (cell, outcome)
                fresh.append(_started_in_batch(outcome, batch_start))
                if self.timeline is not None:
                    # Result IPC: the slice of the wait after the cell
                    # finished is unpickling/transfer — the rest of the
                    # wait is covered by the workers' own stamps on the
                    # shared timebase.
                    ipc_start = max(wait_start, outcome.phases[-1][2])
                    self.timeline.add_stage(PHASE_IPC, ipc_start, perf_counter())
            return fresh, None
        finally:
            for future in futures:
                future.cancel()
            if pump is not None:
                # A failed batch still ends every task before the
                # sentinel, so no heartbeat of it trails into the next.
                from concurrent.futures import wait

                wait(futures)
                self._heartbeat_writer.send(None)
                pump.join()

    def _pump(self) -> None:
        """Feed a pooled batch's heartbeats to the live observers until
        the batch's ``None``."""
        for event in iter(self._heartbeat_reader.recv, None):
            self._beat(event)

    def _beat(self, event: Heartbeat) -> None:
        for on_heartbeat in self._live:
            on_heartbeat(*event)

    def run(self, cells: Iterable[SweepCell]) -> List[CellResult]:
        """Execute ``cells`` as one batch and return their results,
        input-ordered.

        Raises:
            SweepCellError: for the first failing cell in batch order
                (or a broken pool), naming it, once every cell that
                completed ahead of it is served.
        """
        start = perf_counter()
        try:
            return self._run_batch(list(cells))
        finally:
            self.stats.wall_s += perf_counter() - start
            for observer in self.observers:
                observer.on_batch_end()

    def _ordinal_for(self, pid: int) -> int:
        """The stable zero-based ordinal of process ``pid``, assigned in
        order of first result, the engine's own process included."""
        return self._ordinals.setdefault(pid, len(self._ordinals))

    def _record_axes(self, cells: List[SweepCell]) -> None:
        """Accumulate the batch's grid axes for :meth:`fleet_record`."""
        for cell in cells:
            self._axis_policies.add(cell.policy.label)
            self._axis_workloads.add(cell.workload.name)
            self._axis_machines.add(cell.machine.label)
            self._axis_seeds.add(cell.seed)
            self._axis_backends.add(resolve_backend(cell.backend))

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
            start_method=self.start_method,
            python="{}.{}.{}".format(*sys.version_info),
            host=os.uname().nodename,
            git_sha=git_sha(),
            phases=(
                tuple(sorted(self.timeline.phase_seconds().items()))
                if self.timeline is not None
                else ()
            ),
        )

    def _run_batch(self, cells: List[SweepCell]) -> List[CellResult]:
        keys = [cache_key(cell) for cell in cells]
        self._record_axes(cells)
        results: Dict[str, CellResult] = {}
        hits: List[Tuple[str, SweepCell]] = []

        def misses(entries: Iterable[Tuple[str, SweepCell]]) -> Dict[str, SweepCell]:
            """The cells the cache cannot serve, each key once; the
            batch's results and hits take the rest."""
            missed: Dict[str, SweepCell] = {}
            for key, cell in entries:
                if key in results or key in missed:
                    continue
                hit = None
                if self.cache is not None:
                    with self._stage(PHASE_CACHE):
                        hit = self.cache.get(key)
                if hit is None:
                    missed[key] = cell
                else:
                    results[key] = hit
                    hits.append((key, cell))
            return missed

        pending = misses(zip(keys, cells))
        # A diagnosed cell's oracle searches the constant steps of its
        # workload, machine, seed and kernel config; cells that share
        # those share the search, which joins this batch undiagnosed.
        searches: Dict[tuple, List[Tuple[str, SweepCell]]] = {}
        oracle_keys: Dict[str, List[str]] = {}
        for key, cell in pending.items() if self._diagnose else ():
            coordinate = (
                cell.workload, cell.machine, cell.seed, cell.kernel_config,
                cell.backend,
            )
            if coordinate not in searches:
                searches[coordinate] = [
                    (cache_key(step), step)
                    for step in constant_step_cells(
                        cell.workload, machine=cell.machine, seed=cell.seed,
                        kernel_config=cell.kernel_config, backend=cell.backend,
                    )
                ]
            oracle_keys[key] = [step_key for step_key, _ in searches[coordinate]]
        search = misses(
            (step_key, step)
            for steps in searches.values()
            for step_key, step in steps
            if step_key not in pending
        )
        for observer in self.observers:
            observer.on_batch_start(len(results) + len(search) + len(pending))
        self.stats.cache_hits += len(hits)
        for key, cell in hits:
            if self.timeline is not None:
                self.timeline.add_instant(
                    "cache hit",
                    policy=cell.policy.label,
                    workload=cell.workload.name,
                    seed=cell.seed,
                )
            for observer in self.observers:
                observer.on_cache_hit(cell, key, results[key])

        # The search runs ahead of the cells it serves.  Heartbeat ids:
        # a cell's position in the batch.
        queue = [(key, cell, False) for key, cell in search.items()]
        queue += [(key, cell, self._diagnose) for key, cell in pending.items()]
        if not queue:
            return [results[key] for key in keys]
        todo = [(cell_id, *entry) for cell_id, entry in enumerate(queue)]
        outcomes, failure = self._run_cells(todo)
        with self._stage("merge results", cells=len(outcomes)):
            for (_, key, _, _), outcome in zip(todo, outcomes):
                results[key] = outcome.result
            for (_, key, cell, _), outcome in zip(todo, outcomes):
                if self.cache is not None:
                    with self._stage(PHASE_CACHE):
                        self.cache.put(key, outcome.result)
                ordinal = self._ordinal_for(outcome.pid)
                if self.timeline is not None:
                    self.timeline.add_cell(
                        cell.label, outcome.phases, outcome.pid, ordinal,
                        seed=cell.seed, machine=cell.machine.label,
                    )
                if outcome.diagnosis is not None:
                    outcome = self._close_diagnosis(
                        key, outcome, [results.get(k) for k in oracle_keys[key]]
                    )
                for observer in self.observers:
                    observer.on_cell_done(cell, key, outcome, ordinal)
        self.stats.executed += len(outcomes)
        if failure is not None:
            cell, exc = failure
            raise SweepCellError(cell, exc) from exc
        return [results[key] for key in keys]

    def _close_diagnosis(
        self, key: str, outcome: CellOutcome, search: List[Optional[CellResult]]
    ) -> CellOutcome:
        """``outcome`` with its diagnosis closed against the oracle its
        constant-step ``search`` found, and collected; or with none, when
        the batch failed before the search completed."""
        diagnosis = None
        if all(result is not None for result in search):
            oracle = _cheapest_feasible(search)
            diagnosis = outcome.diagnosis.against(
                None if oracle is None else oracle.exact_energy_j
            )
            self.diagnoses[key] = diagnosis
        return dataclasses.replace(outcome, diagnosis=diagnosis)


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
    use_daq: bool = True,
    engine: Optional[SweepEngine] = None,
    backend: Optional[str] = None,
) -> RepeatedSummary:
    """Run the experiment ``runs`` times and report the 95 % energy CI.

    Run ``i`` uses workload seed ``1000 * i`` (run-to-run variation is
    the workloads' seeded jitter), and all runs are submitted to
    ``engine`` as one batch (a fresh in-process engine when None), so
    they parallelize and cache.

    Raises:
        ValueError: for fewer than two runs.
    """
    if runs < 2:
        raise ValueError("need at least two runs for a confidence interval")
    cells = [
        SweepCell(
            workload=workload,
            policy=policy,
            seed=1000 * i,
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
    backend: Optional[str] = None,
) -> List[SweepCell]:
    """One exact-energy cell per constant clock step of ``machine``.

    These cells never touch the DAQ, so they run with minimal recording:
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
            recording=RECORDING_MINIMAL,
            backend=backend,
        )
        for step in machine.clock_table()
    ]


def _cheapest_feasible(results: Iterable[CellResult]) -> Optional[CellResult]:
    """The oracle among constant-step results: the cheapest run that
    meets every deadline (the first strictly-cheaper one in table
    order), or None when every run misses."""
    best: Optional[CellResult] = None
    for result in results:
        if result.missed:
            continue
        if best is None or result.exact_energy_j < best.exact_energy_j:
            best = result
    return best


def find_ideal_constant(
    workload: WorkloadSpec,
    machine: MachineSpec = MachineSpec(),
    seed: int = 0,
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
    cache.  A diagnosing engine closes its diagnoses against the same
    oracle.

    Raises:
        ValueError: if no constant step meets the workload's deadlines.
    """
    cells = constant_step_cells(workload, machine=machine, seed=seed, backend=backend)
    best = _cheapest_feasible((engine or SweepEngine()).run(cells))
    if best is None:
        raise ValueError(f"no constant step meets {workload.name}'s deadlines")
    return best
