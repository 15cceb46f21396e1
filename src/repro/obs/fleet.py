"""The persistent fleet ledger: one JSONL record per completed sweep.

ROADMAP calls for "a queryable fleet dashboard, not just a batch
runner".  The run-log (:mod:`repro.obs.runlog`) audits individual
*cells*; this module audits *sweeps*: every engine run appends one
schema-versioned :class:`FleetRecord` — grid axes, cells
simulated/cached, throughput, wall time, backend, package version, git
sha — to a repo-local ledger (``.repro/fleet.jsonl`` by default).  The
``repro fleet`` CLI command filters the ledger and renders it through
the markdown/HTML sweep report (:mod:`repro.obs.report`): per-sweep
table, phase totals, and the throughput trend of the newest sweep's
comparable series (:func:`comparable_series`), the one series the
sentinel reads too.

A sweep is only ever compared with sweeps from its own host (each record
stamps the host's name), as the paper compares energies only across
repeated runs on its one instrumented Itsy.  The :func:`check_fleet`
sentinel turns the ledger into a self-checking perf observatory:
``repro fleet --check`` fails when the newest sweep's throughput (or
cache-hit rate) falls off its robust baseline, naming the per-phase
culprit from the stored :mod:`~repro.obs.profile` attribution.

Like the run-log, the ledger is append-only JSONL, flushed per line,
and safe to concatenate: it goes through the run-log's one writer and
one tolerant reader, which skips a truncated or corrupt trailing line
(the crashed-mid-write case) with a provenance warning instead of
raising — history should survive a crash.
"""

from __future__ import annotations

import os
import subprocess
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import repro
from repro.obs.profile import PHASE_DIAGNOSE
from repro.obs.runlog import JsonlLog, JsonlRecords, read_jsonl

#: Bump when the fleet record layout changes incompatibly.
#: Version 2 added the per-phase wall-time attribution (``phases``; v1
#: records read it as empty) and a host calibration score, which v4
#: dropped and its reader ignores.
#: Version 3 added how the sweep ran: the pool's process ``start_method``
#: and the ``python`` version; v1 and v2 records read them as ``""``.
#: Version 4 added the ``host`` the sweep ran on; v1-v3 records read it
#: as ``""``.
FLEET_SCHEMA_VERSION = 4

#: Default repo-local ledger location (gitignored; the ledger is local
#: operational history, not committed state).
DEFAULT_FLEET_PATH = Path(".repro") / "fleet.jsonl"

_SPARK_BARS = "▁▂▃▄▅▆▇█"


@dataclass(frozen=True)
class FleetRecord:
    """One completed sweep's ledger entry.

    Attributes:
        sweep_id: short unique id (timestamp + pid derived).
        unix_time: wall-clock time the sweep finished.
        command: the CLI subcommand (or caller-supplied tag) that ran
            the sweep; empty for library use.
        policies: sorted unique policy labels in the grid.
        workloads: sorted unique workload names.
        machines: sorted unique machine spec strings.
        seeds: count of distinct seeds in the grid.
        cells_total: unique cells served (executed + cached).
        cells_executed: cells actually simulated.
        cells_cached: cells answered from the result cache.
        wall_s: end-to-end sweep wall time.
        cells_per_s: throughput over unique cells.
        backend: execution backend name used for the sweep.
        jobs: worker processes (1 = in-process serial).
        start_method: the worker pool's process start method (``fork``,
            ``forkserver``, ``spawn``); ``""`` when no cell ran on a pool.
        python: the interpreter version, e.g. ``"3.11.7"``.
        host: the network name of the host the sweep ran on
            (``os.uname().nodename``).
        repro_version: simulator package version.
        git_sha: HEAD of the checkout the running ``repro`` package
            sits in, at sweep time ("" outside a checkout).
        phases: per-phase wall-time attribution, ``(phase, seconds)``
            pairs from the sweep's :class:`~repro.obs.profile.SweepTimeline`
            (empty when the sweep had no timeline).
    """

    sweep_id: str
    unix_time: float
    command: str
    policies: Tuple[str, ...]
    workloads: Tuple[str, ...]
    machines: Tuple[str, ...]
    seeds: int
    cells_total: int
    cells_executed: int
    cells_cached: int
    wall_s: float
    cells_per_s: float
    backend: str
    jobs: int
    start_method: str = ""
    python: str = ""
    host: str = ""
    repro_version: str = repro.__version__
    git_sha: str = ""
    phases: Tuple[Tuple[str, float], ...] = ()

    def to_json(self) -> dict:
        """The record as a JSON-safe dict, version-stamped."""
        payload = asdict(self)
        payload["policies"] = list(self.policies)
        payload["workloads"] = list(self.workloads)
        payload["machines"] = list(self.machines)
        payload["phases"] = {phase: seconds for phase, seconds in self.phases}
        return {"v": FLEET_SCHEMA_VERSION, **payload}

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of cells answered from the cache."""
        return self.cells_cached / self.cells_total if self.cells_total else 0.0

    @property
    def phase_seconds(self) -> Dict[str, float]:
        """The stored phase attribution as a ``{phase: seconds}`` dict."""
        return {phase: seconds for phase, seconds in self.phases}

    @property
    def phase_per_cell(self) -> Dict[str, float]:
        """Phase seconds per executed cell; empty when the sweep
        executed no cell."""
        if self.cells_executed <= 0:
            return {}
        return {
            phase: seconds / self.cells_executed
            for phase, seconds in self.phases
        }

    @property
    def diagnosed(self) -> bool:
        """Whether the sweep diagnosed its cells, read from its recorded
        ``diagnosis`` phase: a diagnosed sweep also runs baseline-search
        cells, so its cells/s is not a plain sweep's."""
        return any(phase == PHASE_DIAGNOSE for phase, _ in self.phases)


class FleetLedger(JsonlLog):
    """Appends :class:`FleetRecord` lines to the ledger file, through the
    one JSONL writer (:class:`~repro.obs.runlog.JsonlLog`)."""

    def __init__(self, path: Union[str, Path] = DEFAULT_FLEET_PATH):
        super().__init__(path)


def read_fleet(path: Union[str, Path]) -> JsonlRecords:
    """The ledger's records, oldest line first (see
    :func:`~repro.obs.runlog.read_jsonl`).

    The ledger is operational history: a truncated trailing line from a
    crashed sweep must not make every *earlier* sweep unreadable, so bad
    lines are skipped and reported in the list's ``warnings``.
    """
    return read_jsonl(path, _from_json, "fleet")


def _from_json(raw: dict) -> FleetRecord:
    known = {f for f in FleetRecord.__dataclass_fields__}
    kwargs = {k: v for k, v in raw.items() if k in known}
    for axis in ("policies", "workloads", "machines"):
        kwargs[axis] = tuple(kwargs.get(axis, ()))
    # v1 records carry no phases; v2 stores them as an object (and a
    # pair list round-trips too, for hand-edited ledgers).
    phases = kwargs.get("phases", ())
    if isinstance(phases, dict):
        pairs = sorted(phases.items())
    else:
        pairs = [(p, s) for p, s in phases]
    kwargs["phases"] = tuple((str(p), float(s)) for p, s in pairs)
    return FleetRecord(**kwargs)


def new_sweep_id(unix_time: Optional[float] = None) -> str:
    """A short, human-sortable sweep id: ``20260809T143205-4f21``."""
    if unix_time is None:
        unix_time = time.time()
    stamp = time.strftime("%Y%m%dT%H%M%S", time.localtime(unix_time))
    suffix = f"{(os.getpid() * 2654435761 + int(unix_time * 1e6)) & 0xFFFF:04x}"
    return f"{stamp}-{suffix}"


def git_sha(cwd: Union[str, Path, None] = None) -> str:
    """HEAD of the git repo at ``cwd``, or ``""`` when git/repo is
    unavailable.  By default the repo is the one holding the running
    ``repro`` package, whatever the working directory."""
    if cwd is None:
        cwd = Path(repro.__file__).parent
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def sparkline(values: Sequence[float]) -> str:
    """A unicode sparkline of ``values`` (empty string for no values)."""
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi <= lo:
        return _SPARK_BARS[0] * len(values)
    span = hi - lo
    out = []
    for v in values:
        idx = int((v - lo) / span * (len(_SPARK_BARS) - 1))
        out.append(_SPARK_BARS[idx])
    return "".join(out)


#: The record fields that must match for two sweeps' throughput to be
#: comparable: the same command over the same grid on the same host,
#: backend, worker count, start method and Python version, and both
#: diagnosed or both not.
_COMPARABLE_FIELDS = (
    "command", "policies", "workloads", "machines", "host", "backend",
    "jobs", "start_method", "python", "diagnosed",
)


def comparable_series(records: Sequence[FleetRecord]) -> List[FleetRecord]:
    """The newest executed sweep and the earlier executed sweeps
    comparable with it, oldest first (empty when none executed a cell).

    Only sweeps that executed at least one cell count: an all-cached
    sweep's "throughput" measures the cache, not the engine.  The
    sentinel's baseline and the throughput trend both read this series.
    """
    executed = [
        r for r in sorted(records, key=lambda r: r.unix_time)
        if r.cells_executed > 0 and r.cells_per_s > 0
    ]
    if not executed:
        return []
    latest = executed[-1]
    return [
        r for r in executed
        if all(
            getattr(r, name) == getattr(latest, name)
            for name in _COMPARABLE_FIELDS
        )
    ]


def series_name(series: Sequence[FleetRecord]) -> str:
    """What a non-empty comparable series holds, e.g. ``3 comparable
    table2 sweeps``."""
    latest = series[-1]
    words = [str(len(series)), "comparable"]
    if latest.diagnosed:
        words.append("diagnosed")
    if latest.command:
        words.append(latest.command)
    words.append("sweep" if len(series) == 1 else "sweeps")
    return " ".join(words)


def throughput_trend(records: Sequence[FleetRecord]) -> str:
    """A one-line throughput trend over the newest sweep's comparable
    series (:func:`comparable_series`), oldest first.

    ``throughput trend (cells/s): 5.7 → 19.3 (3.39x) ▁▃█ over 3
    comparable table2 sweeps``.
    """
    series = comparable_series(records)
    if not series:
        return "throughput trend: no executed sweeps recorded yet"
    rates = [r.cells_per_s for r in series]
    first, last = rates[0], rates[-1]
    trend = f"throughput trend (cells/s): {first:.1f} → {last:.1f}"
    if first > 0:
        trend += f" ({last / first:.2f}x)"
    if len(rates) > 1:
        trend += f" {sparkline(rates)}"
    return f"{trend} over {series_name(series)}"


@dataclass(frozen=True)
class SentinelReport:
    """The outcome of one :func:`check_fleet` regression check.

    ``checked`` distinguishes "looked and found nothing to compare"
    (ok, but vacuously) from a real verdict; ``ok`` is the pass/fail
    the CLI turns into an exit code.
    """

    checked: bool
    ok: bool
    reason: str
    latest: Optional[FleetRecord] = None
    window: int = 0
    baseline_cells_per_s: Optional[float] = None
    latest_cells_per_s: Optional[float] = None
    drop_pct: Optional[float] = None
    baseline_hit_rate: Optional[float] = None
    latest_hit_rate: Optional[float] = None
    culprit_phase: Optional[str] = None

    def summary(self) -> str:
        """The one-line verdict ``repro fleet --check`` prints."""
        verdict = "ok" if self.ok else "REGRESSION"
        if not self.checked:
            return f"fleet sentinel: {verdict} (unchecked: {self.reason})"
        return f"fleet sentinel: {verdict} — {self.reason}"


#: The sentinel's baseline window and bars (see :func:`check_fleet`).
SENTINEL_WINDOW = 5
SENTINEL_MAX_DROP_PCT = 25.0
SENTINEL_MAX_HIT_RATE_DROP = 0.5


def check_fleet(records: Sequence[FleetRecord]) -> SentinelReport:
    """Check the newest executed sweep against its robust baseline.

    The baseline is the median of the last :data:`SENTINEL_WINDOW`
    earlier sweeps of its comparable series (:func:`comparable_series`:
    same command, policy, workload and machine axes, host, backend, job
    count, start method, Python version and diagnosis, at least one
    executed cell).  The check fails when throughput drops more than
    :data:`SENTINEL_MAX_DROP_PCT` percent below baseline, or the
    cache-hit rate falls more than :data:`SENTINEL_MAX_HIT_RATE_DROP`
    (absolute fraction) below the baseline median — a sweep that
    silently stopped reusing its cache.  On a throughput regression the
    per-phase attribution names the culprit: the phase whose per-cell
    cost grew the most over baseline.

    With no executed sweep, or no comparable history, the report is
    ``ok`` but ``checked=False`` — a fresh ledger must not fail CI.
    """
    # Imported here: only the sentinel needs it, and it costs a
    # cache-served sweep's start-up a few milliseconds.
    from statistics import median

    series = comparable_series(records)
    if not series:
        return SentinelReport(
            checked=False, ok=True,
            reason="no executed sweeps in the ledger",
        )
    latest = series[-1]
    baseline = series[:-1][-SENTINEL_WINDOW:]
    if not baseline:
        return SentinelReport(
            checked=False, ok=True,
            reason=(
                f"no comparable baseline for {latest.sweep_id} "
                f"(command={latest.command or '-'}, "
                f"machines={'/'.join(latest.machines) or '-'}, "
                f"host={latest.host or '-'}, "
                f"backend={latest.backend or '-'}, jobs={latest.jobs}, "
                f"start method={latest.start_method or '-'}, "
                f"python={latest.python or '-'}, "
                f"diagnosed={'yes' if latest.diagnosed else 'no'})"
            ),
            latest=latest,
        )

    base_rate = median([r.cells_per_s for r in baseline])
    latest_rate = latest.cells_per_s
    drop_pct = (
        (base_rate - latest_rate) / base_rate * 100.0 if base_rate > 0 else 0.0
    )
    base_hit = median([r.cache_hit_rate for r in baseline])
    latest_hit = latest.cache_hit_rate
    hit_drop = base_hit - latest_hit

    failures = []
    culprit: Optional[str] = None
    if drop_pct > SENTINEL_MAX_DROP_PCT:
        base_by_phase: Dict[str, List[float]] = {}
        for r in baseline:
            for phase, per_cell in r.phase_per_cell.items():
                base_by_phase.setdefault(phase, []).append(per_cell)
        growth = {
            phase: per_cell - median(base_by_phase.get(phase, [0.0]))
            for phase, per_cell in latest.phase_per_cell.items()
        }
        if growth:
            worst, worst_growth = max(growth.items(), key=lambda kv: kv[1])
            if worst_growth > 0:
                culprit = worst
        blame = (
            f"; culprit phase: {culprit} "
            f"(+{growth[culprit] * 1e3:.1f} ms/cell over baseline)"
            if culprit is not None
            else "; no phase attribution recorded"
        )
        failures.append(
            f"throughput dropped {drop_pct:.0f}% below baseline "
            f"({latest_rate:.1f} vs {base_rate:.1f} cells/s, "
            f"bar {SENTINEL_MAX_DROP_PCT:g}%){blame}"
        )
    if hit_drop > SENTINEL_MAX_HIT_RATE_DROP:
        failures.append(
            f"cache-hit rate collapsed ({latest_hit:.0%} vs baseline "
            f"{base_hit:.0%}, bar -{SENTINEL_MAX_HIT_RATE_DROP:.0%})"
        )

    if failures:
        reason = "; ".join(failures)
        ok = False
    else:
        reason = (
            f"{latest.sweep_id}: {latest_rate:.1f} cells/s vs "
            f"baseline {base_rate:.1f} (median of {len(baseline)}), "
            f"cache-hit {latest_hit:.0%} vs {base_hit:.0%}"
        )
        ok = True
    return SentinelReport(
        checked=True,
        ok=ok,
        reason=reason,
        latest=latest,
        window=len(baseline),
        baseline_cells_per_s=base_rate,
        latest_cells_per_s=latest_rate,
        drop_pct=drop_pct,
        baseline_hit_rate=base_hit,
        latest_hit_rate=latest_hit,
        culprit_phase=culprit,
    )
