"""A replayable, content-addressed on-disk trace corpus.

Corpus entries are recorded (or fuzzed) runs persisted as JSON, addressed
by a SHA-256 digest of their replay-relevant content — the same
content-addressing discipline as the sweep
:class:`~repro.measure.parallel.ResultCache`, so an entry's filename *is*
its identity: renaming a trace or annotating its provenance never moves
it, while touching a single recorded quantum does.  That stability is
what makes corpus entries usable as permanent regression fixtures: the
differential fuzz harness (:mod:`repro.measure.differential`) saves every
shrunk counterexample here, and ``tests/corpus/`` replays whatever the
directory holds through both kernel cores on every run.

Entries round-trip losslessly (floats serialize via ``repr``), and
:meth:`CorpusEntry.workload` replays one on either kernel.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Tuple, Union

from repro.kernel.scheduler import KernelRun
from repro.obs.runlog import write_atomic
from repro.workloads.base import Workload
from repro.workloads.replay import (
    RecordedQuantum,
    ReplayMode,
    record_from_run,
    replay_workload,
)

PathLike = Union[str, Path]

#: Bump when the entry format changes; old entries are then rejected with
#: a clear error instead of being misread.
CORPUS_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class CorpusEntry:
    """One replayable trace in the corpus.

    Attributes:
        name: human-readable label (not part of the digest).
        mode: replay mode value, ``"time"`` or ``"work"``.
        tolerance_us: per-deadline perceptibility tolerance.
        quanta: the trace as ``(busy_us, mhz, quantum_us)`` triples.
        provenance: free-form ``(key, value)`` string pairs describing
            where the trace came from (policy, machine, fuzz spec, ...);
            metadata only, not part of the digest.
    """

    name: str
    mode: str = "work"
    tolerance_us: float = 10_000.0
    quanta: Tuple[Tuple[float, float, float], ...] = ()
    provenance: Tuple[Tuple[str, str], ...] = field(default=())

    def __post_init__(self) -> None:
        ReplayMode(self.mode)  # unknown modes raise here
        object.__setattr__(
            self, "quanta", tuple(tuple(q) for q in self.quanta)
        )
        object.__setattr__(
            self, "provenance", tuple(tuple(p) for p in self.provenance)
        )
        if not self.quanta:
            raise ValueError(f"corpus entry {self.name!r} has no quanta")
        for i, (busy_us, _mhz, quantum_us) in enumerate(self.quanta):
            if quantum_us <= 0:
                raise ValueError(
                    f"corpus entry {self.name!r}: quantum {i} has "
                    f"non-positive length {quantum_us!r} us"
                )
            if busy_us < 0 or busy_us > quantum_us + 1e-6:
                raise ValueError(
                    f"corpus entry {self.name!r}: quantum {i} busy time "
                    f"{busy_us!r} us outside [0, {quantum_us!r}] us"
                )

    def trace(self) -> List[RecordedQuantum]:
        """The live trace this entry holds."""
        return [
            RecordedQuantum(busy_us=b, mhz=m, quantum_us=q)
            for b, m, q in self.quanta
        ]

    def workload(self) -> Workload:
        """A runnable replay workload of this entry."""
        return replay_workload(
            self.trace(),
            ReplayMode(self.mode),
            name=self.name,
            tolerance_us=self.tolerance_us,
        )


def entry_digest(entry: CorpusEntry) -> str:
    """The content address of an entry.

    Covers exactly what determines replay behaviour — mode, tolerance and
    the quanta — so relabeling or annotating an entry keeps its identity,
    while any change to the recorded activity moves it.
    """
    payload = {
        "schema": CORPUS_SCHEMA_VERSION,
        "mode": entry.mode,
        "tolerance_us": entry.tolerance_us,
        "quanta": [list(q) for q in entry.quanta],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def entry_from_run(
    name: str,
    run: KernelRun,
    mode: ReplayMode = ReplayMode.WORK,
    tolerance_us: float = 10_000.0,
    provenance: Tuple[Tuple[str, str], ...] = (),
) -> CorpusEntry:
    """Capture a kernel run as a corpus entry."""
    return CorpusEntry(
        name=name,
        mode=mode.value,
        tolerance_us=tolerance_us,
        quanta=tuple(
            (rec.busy_us, rec.mhz, rec.quantum_us)
            for rec in record_from_run(run)
        ),
        provenance=provenance,
    )


def save_entry(root: PathLike, entry: CorpusEntry) -> Path:
    """Persist ``entry`` under its content address, atomically.

    Returns the entry's path (``<digest>.json`` under ``root``).  The
    write is temp-file + rename, like the sweep result cache, so
    concurrent writers never leave a torn entry.
    """
    digest = entry_digest(entry)
    payload = {
        "schema": CORPUS_SCHEMA_VERSION,
        "digest": digest,
        "name": entry.name,
        "mode": entry.mode,
        "tolerance_us": entry.tolerance_us,
        "provenance": [list(p) for p in entry.provenance],
        "quanta": [list(q) for q in entry.quanta],
    }
    return write_atomic(
        Path(root) / f"{digest}.json", json.dumps(payload, indent=1) + "\n"
    )


def load_entry(path: PathLike) -> CorpusEntry:
    """Load and validate one corpus entry.

    Raises:
        ValueError: for an unknown schema version, a digest that does not
            match the content (tampered or corrupted entry), or invalid
            quanta — each naming the file.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: unreadable corpus entry: {exc}") from None
    if payload.get("schema") != CORPUS_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: corpus schema {payload.get('schema')!r} "
            f"(expected {CORPUS_SCHEMA_VERSION})"
        )
    try:
        entry = CorpusEntry(
            name=payload["name"],
            mode=payload["mode"],
            tolerance_us=payload["tolerance_us"],
            quanta=tuple(tuple(q) for q in payload["quanta"]),
            provenance=tuple(tuple(p) for p in payload.get("provenance", ())),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed corpus entry: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    digest = entry_digest(entry)
    recorded = payload.get("digest")
    if recorded != digest:
        raise ValueError(
            f"{path}: digest mismatch (file says {recorded!r}, content is "
            f"{digest!r}); the entry was edited or corrupted"
        )
    return entry


def load_corpus(root: PathLike) -> List[Tuple[Path, CorpusEntry]]:
    """All entries under ``root``, sorted by filename (digest) for
    deterministic iteration order.  A missing directory is an empty
    corpus."""
    root = Path(root)
    if not root.is_dir():
        return []
    return [
        (path, load_entry(path)) for path in sorted(root.glob("*.json"))
    ]
