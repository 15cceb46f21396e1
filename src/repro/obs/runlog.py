"""Structured JSONL run-logs: a durable record of what a sweep executed.

The paper's Table 2 footnotes exactly how each number was produced (how
many runs, which seeds, which machine).  Long sweeps deserve the same
auditability: :class:`RunLogWriter` appends one JSON object per sweep
cell — run id (the cell's content-address in the result cache), machine,
policy, workload, seed, energy, misses, cache status, wall time — so a
finished sweep can be reconstructed, diffed, or re-keyed after the fact
without rerunning anything.

Records are flushed line-by-line, so a log is readable (and every
completed cell is preserved) even if the sweep crashes mid-grid; a sweep
that fails on a cell logs every cell that completed ahead of it in batch
order, the same at every ``--jobs``.  The format is append-only JSONL:
one self-describing object per line, no header, safe to concatenate
across sweeps sharing a log file.
:class:`JsonlLog` and :func:`read_jsonl` are the one writer and the one
tolerant reader of every sweep log: this run-log, the diagnosis log
(:class:`DiagnosisWriter`, read by :mod:`repro.obs.diagnose`) and the
fleet ledger (:mod:`repro.obs.fleet`).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import IO, Callable, List, Optional, Tuple, Union

import repro
from repro.obs.profile import SweepObserver

#: Bump when the record layout changes incompatibly.
#: Version 2 added provenance: every record carries the ``repro`` package
#: version alongside the ``v`` schema tag, so cross-run comparisons can
#: detect mismatched inputs instead of silently merging them.
#: Version 3 added worker attribution — ``worker_pid`` and
#: ``worker_ordinal`` of the pool process that executed the cell (null
#: for cache hits) — so fleet reports can attribute stragglers.  v2
#: records remain readable: the new fields default to None.
RUN_LOG_VERSION = 3


@dataclass(frozen=True)
class RunLogRecord:
    """One sweep cell's audit record.

    Attributes:
        run_id: the cell's cache key (content address) — stable across
            hosts, so identical cells in different logs share an id.
        policy: policy grammar name (``PolicySpec.label``).
        workload: workload name.
        machine: machine spec string (``itsy``, ``itsy@1.23``, ``sa2``).
        seed: workload jitter seed.
        duration_us: simulated length.
        energy_j: measured (DAQ or exact) energy.
        exact_energy_j: the analytic integral.
        miss_count: deadline misses beyond the workload tolerance.
        cache: ``"hit"`` or ``"executed"``.
        wall_s: wall-clock execution time (0.0 for cache hits).
        unix_time: wall-clock time the record was written.
        repro_version: the simulator package version that produced the
            record (defaults to the running package).
        worker_pid: OS pid of the pool process that executed the cell
            (the parent's own pid for in-process execution; None for
            cache hits, which no worker touched).
        worker_ordinal: stable zero-based index of that process within
            the engine, in order of first result, the engine's own
            process included — so distinct pids never share one.  A
            pool worker with ordinal ``k`` is ``worker k`` on lane
            ``k + 1`` of the engine's sweep trace, so a straggler
            flagged in the run-log points at a Perfetto track; cells
            run in-process sit on the trace's engine lane.  None for
            cache hits.
    """

    run_id: str
    policy: str
    workload: str
    machine: str
    seed: int
    duration_us: float
    energy_j: float
    exact_energy_j: float
    miss_count: int
    cache: str
    wall_s: float
    unix_time: float
    repro_version: str = repro.__version__
    worker_pid: Optional[int] = None
    worker_ordinal: Optional[int] = None

    def to_json(self) -> dict:
        """The record as a JSON-safe dict, version-stamped."""
        return {"v": RUN_LOG_VERSION, **asdict(self)}


def output_file(path: Union[str, Path]) -> Path:
    """``path`` with its missing parent directories made: the one rule
    for every file the program writes.  Where a regular file sits in the
    way, the write is left to fail, so its error names ``path`` itself."""
    out = Path(path)
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        pass
    return out


def write_atomic(path: Union[str, Path], text: str) -> Path:
    """Write ``text`` to ``path`` through a temp file beside it and a
    rename, so concurrent readers and writers never see a torn file, and
    return the path.  Parent directories are made as by
    :func:`output_file`; a failed write removes its temp file."""
    import tempfile

    out = output_file(path)
    fd, tmp = tempfile.mkstemp(dir=out.parent, prefix=f"{out.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, out)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return out


class JsonlLog:
    """An append-only JSONL file: one key-sorted ``record.to_json()``
    object per line.

    The run-log, the diagnosis log and the fleet ledger are all this
    writer.  It opens the file lazily on the first :meth:`append` (so
    merely configuring a path never creates an empty file) and flushes
    every line, so each completed record survives a crash.  Usable as a
    context manager; :meth:`close` is idempotent.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._handle: Optional[IO[str]] = None
        self.written = 0

    def append(self, record) -> None:
        """Append one record and flush it to disk."""
        if self._handle is None:
            self._handle = output_file(self.path).open("a")
        self._handle.write(json.dumps(record.to_json(), sort_keys=True) + "\n")
        self._handle.flush()
        self.written += 1

    def close(self) -> None:
        """Close the underlying file (no-op if never written to)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JsonlLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class RunLogWriter(JsonlLog, SweepObserver):
    """The run-log: as a sweep observer, it appends one
    :class:`RunLogRecord` per unique cell a sweep engine serves."""

    def on_cache_hit(self, cell, key, result) -> None:
        self._log(cell, key, result, "hit")

    def on_cell_done(self, cell, key, outcome, ordinal) -> None:
        self._log(
            cell, key, outcome.result, "executed",
            outcome.wall_s, outcome.pid, ordinal,
        )

    def _log(
        self, cell, key, result, cache, wall_s=0.0, pid=None, ordinal=None
    ) -> None:
        self.append(
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
                cache=cache,
                wall_s=wall_s,
                unix_time=now_unix(),
                worker_pid=pid,
                worker_ordinal=ordinal,
            )
        )


class DiagnosisWriter(JsonlLog, SweepObserver):
    """The diagnosis log: as a sweep observer, it appends the diagnosis
    of every cell a diagnosing engine executes (read back with
    :func:`repro.obs.diagnose.read_diagnoses`).

    It only appends what the engine hands it, so building one loads no
    diagnosis code: a diagnosing engine imports that where its cells
    run, inside the sweep's clock."""

    def on_cell_done(self, cell, key, outcome, ordinal) -> None:
        if outcome.diagnosis is not None:
            self.append(outcome.diagnosis)


def now_unix() -> float:
    """Wall-clock timestamp for run-log records (patchable in tests)."""
    return time.time()


class JsonlRecords(list):
    """The records :func:`read_jsonl` parsed, with one ``warnings``
    entry per line it skipped."""

    warnings: Tuple[str, ...] = ()


def read_jsonl(
    path: Union[str, Path], parse: Callable[[dict], object], kind: str
) -> JsonlRecords:
    """Parse a JSONL log back into its records, tolerating damage.

    Blank lines are skipped.  A line that is not a JSON object, or that
    ``parse`` rejects (``KeyError``, ``TypeError`` or ``ValueError``) —
    the torn trailing line of a sweep that crashed mid-write, stray
    corruption, an unknown schema version — is *skipped* rather than
    raised: losing one record must not void every other line.  Each
    skip is reported with its ``file:line`` in the returned list's
    ``warnings``, so reports surface the damage instead of hiding it.
    """
    records = JsonlRecords()
    warnings: List[str] = []
    with Path(path).open() as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
                if not isinstance(raw, dict):
                    raise ValueError("line is not a JSON object")
                records.append(parse(raw))
            except (KeyError, TypeError, ValueError) as exc:
                warnings.append(
                    f"{path}:{lineno}: skipped unreadable {kind} line "
                    f"(truncated write?): {type(exc).__name__}: {exc}"
                )
    records.warnings = tuple(warnings)
    return records


def read_run_log(path: Union[str, Path]) -> JsonlRecords:
    """The run-log's record dicts (see :func:`read_jsonl`)."""
    return read_jsonl(path, dict, "run-log")


def provenance_warnings(records: List[dict]) -> List[str]:
    """Cross-record consistency problems worth flagging before merging.

    A run-log is safe to aggregate when every record shares one schema
    version and one simulator version; records predating the provenance
    fields (schema v1) are flagged rather than rejected.  Returns
    human-readable warning strings (empty when the log is homogeneous).
    """
    warnings: List[str] = []
    schema_versions = sorted({str(r.get("v", "?")) for r in records})
    if len(schema_versions) > 1:
        warnings.append(
            "mixed run-log schema versions: " + ", ".join(schema_versions)
        )
    package_versions = sorted(
        {str(r.get("repro_version", "<pre-provenance>")) for r in records}
    )
    if len(package_versions) > 1:
        warnings.append(
            "records produced by different simulator versions: "
            + ", ".join(package_versions)
        )
    return warnings
