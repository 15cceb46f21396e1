"""Structured JSONL run-logs: a durable record of what a sweep executed.

The paper's Table 2 footnotes exactly how each number was produced (how
many runs, which seeds, which machine).  Long sweeps deserve the same
auditability: :class:`RunLogWriter` appends one JSON object per sweep
cell — run id (the cell's content-address in the result cache), machine,
policy, workload, seed, energy, misses, cache status, wall time — so a
finished sweep can be reconstructed, diffed, or re-keyed after the fact
without rerunning anything.

Records are flushed line-by-line, so a log is readable (and every
completed cell is preserved) even if the sweep crashes mid-grid.  The
format is append-only JSONL: one self-describing object per line, no
header, safe to concatenate across sweeps sharing a log file.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator, List, Optional, Tuple, Union

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
        policy: policy grammar name (with factory params appended when
            the spec carries any).
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


class RunLogWriter(SweepObserver):
    """Appends :class:`RunLogRecord` lines to a JSONL file.

    Opens lazily on the first write (so merely configuring a log path
    never creates an empty file) and flushes every record.  Usable as a
    context manager; :meth:`close` is idempotent.  As a sweep observer
    it logs one record per unique cell a sweep engine serves.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._handle: Optional[IO[str]] = None
        self.written = 0

    def write(self, record: RunLogRecord) -> None:
        """Append one record and flush it to disk."""
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("a")
        self._handle.write(json.dumps(record.to_json(), sort_keys=True) + "\n")
        self._handle.flush()
        self.written += 1

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
        self.write(
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

    def close(self) -> None:
        """Close the underlying file (no-op if never written to)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "RunLogWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def now_unix() -> float:
    """Wall-clock timestamp for run-log records (patchable in tests)."""
    return time.time()


class RunLogRecords(List[dict]):
    """The parsed run-log: a plain list of record dicts, plus the
    reader-level warnings for lines that could not be parsed.

    Being a ``list`` subclass keeps every existing caller working
    unchanged; report code picks up :attr:`warnings` to surface skipped
    lines next to the provenance warnings.
    """

    def __init__(self, records: Iterable[dict] = (), warnings: Iterable[str] = ()):
        super().__init__(records)
        self.warnings: Tuple[str, ...] = tuple(warnings)


def read_run_log(path: Union[str, Path]) -> RunLogRecords:
    """Parse a JSONL run-log back into a list of record dicts.

    Blank lines are skipped.  Malformed lines — the torn trailing line
    of a sweep that crashed mid-write, or stray corruption — are
    *skipped* rather than raised: losing one record must not void the
    audit value of every other line.  Each skip is reported in the
    returned list's ``warnings`` so reports surface the damage instead
    of hiding it.
    """
    records: List[dict] = []
    warnings: List[str] = []
    for lineno, line in enumerate(_lines(path), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError("line is not a JSON object")
        except ValueError as exc:
            warnings.append(
                f"{path}:{lineno}: skipped unreadable run-log line "
                f"(truncated write?): {exc}"
            )
            continue
        records.append(record)
    return RunLogRecords(records, warnings)


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


def _lines(path: Union[str, Path]) -> Iterator[str]:
    with Path(path).open() as handle:
        yield from handle
