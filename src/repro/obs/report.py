"""Sweep reports: aggregate run-logs (+ diagnoses) into one document.

A finished sweep leaves two artifacts behind: the JSONL run-log (one
audit record per cell) and, when diagnosis was enabled, a JSONL diagnosis
log (one :class:`~repro.obs.diagnose.PolicyDiagnosis` per executed cell).
This module folds them into a single self-contained report — Table-2
style rows per policy x workload x machine, with settling verdicts and
energy decompositions joined in where available — rendered as markdown
or as standalone HTML (inline CSS, no external assets, opens from a CI
artifact without a web server).  Committed ``BENCH_*.json`` perf records
can ride along as a "Perf history" section, so one document carries both
the science and the cost of producing it.  Fleet-ledger sweeps render as
a "Fleet history" section — per-sweep table with host-normalized
throughput, an aggregated phase-time table, and (in HTML) the inline-SVG
trend curves from :mod:`repro.obs.plot`.

Rendering is pure: the same records produce the same document, so report
snapshots can be golden-tested.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from html import escape
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.diagnose import PolicyDiagnosis
from repro.obs.fleet import FleetRecord, throughput_trend
from repro.obs.runlog import provenance_warnings

#: Renderer names accepted by :func:`render_report`.
FORMAT_MARKDOWN = "md"
FORMAT_HTML = "html"


@dataclass
class ReportRow:
    """Aggregate of every run-log record sharing one sweep cell label."""

    policy: str
    workload: str
    machine: str
    runs: int = 0
    cache_hits: int = 0
    energy_sum_j: float = 0.0
    energy_min_j: float = float("inf")
    energy_max_j: float = float("-inf")
    miss_count: int = 0
    wall_s: float = 0.0
    diagnoses: List[PolicyDiagnosis] = field(default_factory=list)

    @property
    def mean_energy_j(self) -> float:
        """Average measured energy across the row's runs."""
        return self.energy_sum_j / self.runs if self.runs else 0.0

    @property
    def settled_verdict(self) -> Optional[str]:
        """``"settles"`` / ``"oscillates"`` from the joined diagnoses."""
        if not self.diagnoses:
            return None
        return (
            "settles"
            if all(d.settling.settled for d in self.diagnoses)
            else "oscillates"
        )

    @property
    def mean_excess_j(self) -> Optional[float]:
        """Average energy above the oracle baseline, when diagnosed."""
        feasible = [
            d.energy.excess_j
            for d in self.diagnoses
            if d.energy.baseline_feasible
        ]
        if not feasible:
            return None
        return sum(feasible) / len(feasible)


@dataclass(frozen=True)
class SweepReport:
    """The aggregated content of one run-log, ready to render."""

    rows: Tuple[ReportRow, ...]
    warnings: Tuple[str, ...]
    total_runs: int
    total_cache_hits: int
    total_wall_s: float
    #: committed ``BENCH_*.json`` benchmark records, rendered as a
    #: "Perf history" section when present.
    bench: Tuple[dict, ...] = ()
    #: fleet-ledger sweep records, rendered as a "Fleet history" section
    #: (per-sweep table + throughput trend line) when present.
    fleet: Tuple[FleetRecord, ...] = ()


def build_report(
    records: Sequence[dict],
    diagnoses: Sequence[PolicyDiagnosis] = (),
    bench_records: Sequence[dict] = (),
    fleet_records: Sequence[FleetRecord] = (),
) -> SweepReport:
    """Aggregate run-log records (and optional diagnoses) into a report.

    Records group by ``(policy, workload, machine)``; diagnoses join onto
    their matching group by the same labels.  Diagnoses without a
    matching record still appear (as diagnosis-only rows), so a report
    built from a diagnosis log alone is not empty.  ``bench_records``
    (parsed ``BENCH_*.json`` perf records, as the benchmark suite
    commits at the repo root) are carried through verbatim and rendered
    as a "Perf history" section; ``fleet_records`` (parsed fleet-ledger
    sweeps) render as a "Fleet history" section with a throughput trend.
    Reader-level warnings attached to ``records`` or ``diagnoses`` (the
    tolerant :func:`~repro.obs.runlog.read_run_log` and
    :func:`~repro.obs.diagnose.read_diagnoses` report skipped lines
    there) surface next to the provenance warnings.
    """
    rows: Dict[Tuple[str, str, str], ReportRow] = {}

    def row_for(key: Tuple[str, str, str]) -> ReportRow:
        if key not in rows:
            rows[key] = ReportRow(*key)
        return rows[key]

    for record in records:
        row = row_for(
            (
                str(record.get("policy", "?")),
                str(record.get("workload", "?")),
                str(record.get("machine", "?")),
            )
        )
        row.runs += 1
        if record.get("cache") == "hit":
            row.cache_hits += 1
        energy = float(record.get("energy_j", 0.0))
        row.energy_sum_j += energy
        row.energy_min_j = min(row.energy_min_j, energy)
        row.energy_max_j = max(row.energy_max_j, energy)
        row.miss_count += int(record.get("miss_count", 0))
        row.wall_s += float(record.get("wall_s", 0.0))

    for diagnosis in diagnoses:
        row_for(
            (diagnosis.policy, diagnosis.workload, diagnosis.machine)
        ).diagnoses.append(diagnosis)

    ordered = tuple(
        rows[key] for key in sorted(rows, key=lambda k: (k[1], k[2], k[0]))
    )
    reader_warnings = tuple(getattr(records, "warnings", ())) + tuple(
        getattr(diagnoses, "warnings", ())
    )
    return SweepReport(
        rows=ordered,
        warnings=reader_warnings + tuple(provenance_warnings(list(records))),
        total_runs=sum(r.runs for r in ordered),
        total_cache_hits=sum(r.cache_hits for r in ordered),
        total_wall_s=sum(r.wall_s for r in ordered),
        bench=tuple(bench_records),
        fleet=tuple(fleet_records),
    )


def load_bench_records(
    specs: Sequence[Union[str, Path]]
) -> List[dict]:
    """Load committed ``BENCH_*.json`` perf records from path specs.

    Each spec may be a JSON file, a directory (every ``BENCH_*.json``
    directly inside it), or a glob pattern.  Records are ordered by
    their recorded ``unix_time`` when present, else the file's mtime,
    with the full file path breaking ties — mtimes quantize coarsely on
    some filesystems (and records from one ``cp -r`` share one), and
    two directories may each hold a ``BENCH_foo.json``, so the bare
    name is not a total order.  The perf-history section therefore
    reads oldest-to-newest regardless of argument order, every time.

    Raises:
        ValueError: when a spec matches nothing or a file is not JSON.
    """
    paths: List[Path] = []
    for spec in specs:
        path = Path(spec)
        if path.is_dir():
            matches = sorted(path.glob("BENCH_*.json"))
        elif path.exists():
            matches = [path]
        else:
            matches = sorted(path.parent.glob(path.name))
        if not matches:
            raise ValueError(f"no benchmark records match {spec!r}")
        paths.extend(matches)
    seen = set()
    loaded: List[Tuple[float, str, dict]] = []
    for path in paths:
        if path in seen:
            continue
        seen.add(path)
        try:
            record = json.loads(path.read_text())
        except ValueError as exc:
            raise ValueError(f"{path}: not a JSON benchmark record: {exc}") from None
        if not isinstance(record, dict):
            raise ValueError(f"{path}: benchmark record is not a JSON object")
        stamp = record.get("unix_time")
        if not isinstance(stamp, (int, float)):
            try:
                stamp = path.stat().st_mtime
            except OSError:
                stamp = time.time()
        loaded.append((float(stamp), str(path), record))
    loaded.sort(key=lambda item: (item[0], item[1]))
    return [record for _, _, record in loaded]


def render_report(report: SweepReport, fmt: str = FORMAT_MARKDOWN) -> str:
    """Render a report as markdown or standalone HTML.

    Raises:
        ValueError: for unknown format names.
    """
    if fmt == FORMAT_MARKDOWN:
        return _render_markdown(report)
    if fmt == FORMAT_HTML:
        return _render_html(report)
    raise ValueError(
        f"unknown report format {fmt!r}; "
        f"expected {FORMAT_MARKDOWN!r} or {FORMAT_HTML!r}"
    )


def _fmt(value: Optional[float], digits: int = 2) -> str:
    return "-" if value is None else f"{value:.{digits}f}"


def _row_cells(row: ReportRow) -> List[str]:
    spread = (
        f"{row.energy_min_j:.2f}..{row.energy_max_j:.2f}" if row.runs else "-"
    )
    return [
        row.policy,
        row.workload,
        row.machine,
        str(row.runs),
        str(row.cache_hits),
        _fmt(row.mean_energy_j if row.runs else None),
        spread,
        str(row.miss_count),
        row.settled_verdict or "-",
        _fmt(row.mean_excess_j),
    ]


_HEADER = [
    "policy",
    "workload",
    "machine",
    "runs",
    "cached",
    "mean J",
    "spread J",
    "misses",
    "settling",
    "excess J",
]

_BENCH_HEADER = ["benchmark", "headline", "bar", "setup"]

_FLEET_HEADER = [
    "sweep",
    "when",
    "command",
    "grid",
    "cells",
    "cached",
    "cells/s",
    "norm/s",
    "wall s",
    "backend",
    "jobs",
]


def _fleet_cells(record: FleetRecord) -> List[str]:
    """One fleet-history table row from a ledger sweep record."""
    when = time.strftime(
        "%Y-%m-%d %H:%M", time.localtime(record.unix_time)
    )
    grid = (
        f"{len(record.policies)}p x {len(record.workloads)}w x "
        f"{len(record.machines)}m x {record.seeds}s"
    )
    norm = record.normalized_cells_per_s
    return [
        record.sweep_id,
        when,
        record.command or "-",
        grid,
        str(record.cells_total),
        str(record.cells_cached),
        f"{record.cells_per_s:.1f}",
        f"{norm:.1f}" if norm is not None else "-",
        f"{record.wall_s:.1f}",
        record.backend or "-",
        str(record.jobs),
    ]


def _bench_cells(record: dict) -> List[str]:
    """One perf-history table row from a committed ``BENCH_*.json`` dict.

    Knows the headline figure of each benchmark the suite commits;
    records from future benchmarks fall back to a generic numeric dump
    so the section never fails to render.
    """
    name = str(record.get("benchmark", "?"))
    setup = "-"
    if record.get("machine"):
        setup = (
            f"{record['machine']}, {record.get('duration_s', '?')} s "
            f"{record.get('workload', '?')}"
        )
    if name == "kernel_hotloop" and "fastpath_speedup" in record:
        return [
            name,
            f"fastpath {record['fastpath_speedup']:g}x over full recorders",
            f">= {record.get('min_fastpath_speedup', '?')}x",
            setup,
        ]
    if name == "obs_overhead" and "enabled_overhead_pct" in record:
        return [
            name,
            f"enabled +{record['enabled_overhead_pct']:g}%, "
            f"disabled +{record.get('disabled_overhead_pct', 0):g}%",
            f"<= {record.get('max_enabled_overhead_pct', '?')}% / "
            f"{record.get('max_disabled_overhead_pct', '?')}%",
            setup,
        ]
    if name == "telemetry_overhead" and "telemetry_overhead_pct" in record:
        return [
            name,
            f"telemetry +{record['telemetry_overhead_pct']:g}% "
            f"({record.get('worker_lanes', '?')} worker lanes)",
            f"<= {record.get('max_telemetry_overhead_pct', '?')}%",
            setup,
        ]
    if name == "sweep_throughput" and "new_cells_per_s" in record:
        return [
            name,
            f"{record['new_cells_per_s']:g} cells/s "
            f"({record.get('speedup', '?')}x over legacy)",
            f">= {record.get('min_speedup', '?')}x",
            setup,
        ]
    numbers = ", ".join(
        f"{k}={v:g}"
        for k, v in sorted(record.items())
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    )
    return [name, numbers or "-", "-", setup]


def _fleet_phase_seconds(
    fleet: Sequence[FleetRecord],
) -> Dict[str, float]:
    """Summed per-phase busy seconds across the fleet records.

    Sweeps recorded before the phase profiler (schema v1) contribute
    nothing; an empty dict suppresses the phase section entirely.
    """
    totals: Dict[str, float] = {}
    for record in fleet:
        for phase, seconds in record.phases:
            totals[phase] = totals.get(phase, 0.0) + seconds
    return totals


def _render_markdown(report: SweepReport) -> str:
    lines = ["# Sweep report", ""]
    lines.append(
        f"{report.total_runs} runs ({report.total_cache_hits} cached), "
        f"{report.total_wall_s:.1f} s simulated wall time."
    )
    lines.append("")
    for warning in report.warnings:
        lines.append(f"> **warning:** {warning}")
    if report.warnings:
        lines.append("")
    if report.rows:
        lines.append("| " + " | ".join(_HEADER) + " |")
        lines.append("|" + "|".join(["---"] * len(_HEADER)) + "|")
        for row in report.rows:
            lines.append("| " + " | ".join(_row_cells(row)) + " |")
        lines.append("")

    diagnosed = [row for row in report.rows if row.diagnoses]
    if diagnosed:
        lines.append("## Diagnoses")
        lines.append("")
        for row in diagnosed:
            for d in row.diagnoses:
                s = d.settling
                e = d.energy
                verdict = "settles" if s.settled else "oscillates"
                period = (
                    f", dominant period {s.dominant_period_quanta:.1f} quanta"
                    if s.dominant_period_quanta is not None
                    else ""
                )
                base = (
                    f"{e.baseline_j:.2f} J oracle + {e.overshoot_j:.2f} J "
                    f"overshoot"
                    if e.baseline_feasible
                    else f"{e.overshoot_j:.2f} J (no feasible constant step)"
                )
                lines.append(
                    f"- **{d.policy} / {d.workload}** (seed {d.seed}): "
                    f"{verdict} ({s.churn_per_quantum:.3f} changes/quantum"
                    f"{period}); {d.misses} misses; "
                    f"{e.measured_j:.2f} J = {base} + "
                    f"{e.stall_j:.2f} J stall + {e.sag_j:.4f} J sag"
                )
        lines.append("")

    if report.bench:
        lines.append("## Perf history")
        lines.append("")
        lines.append("| " + " | ".join(_BENCH_HEADER) + " |")
        lines.append("|" + "|".join(["---"] * len(_BENCH_HEADER)) + "|")
        for record in report.bench:
            lines.append("| " + " | ".join(_bench_cells(record)) + " |")
        lines.append("")

    if report.fleet:
        lines.append("## Fleet history")
        lines.append("")
        lines.append(throughput_trend(report.fleet))
        lines.append("")
        lines.append("| " + " | ".join(_FLEET_HEADER) + " |")
        lines.append("|" + "|".join(["---"] * len(_FLEET_HEADER)) + "|")
        for record in sorted(report.fleet, key=lambda r: r.unix_time):
            lines.append("| " + " | ".join(_fleet_cells(record)) + " |")
        lines.append("")
        phase_totals = _fleet_phase_seconds(report.fleet)
        if phase_totals:
            from repro.obs.profile import format_phase_table

            lines.append("### Where the time went")
            lines.append("")
            lines.append("```")
            lines.append(format_phase_table(phase_totals))
            lines.append("```")
            lines.append("")
    return "\n".join(lines)


_HTML_STYLE = """
body { font: 14px/1.5 system-ui, sans-serif; margin: 2em auto;
       max-width: 70em; color: #1a1a2e; }
table { border-collapse: collapse; width: 100%; margin: 1em 0; }
th, td { border: 1px solid #c8c8d8; padding: 0.3em 0.6em;
         text-align: left; }
th { background: #eef; }
tr:nth-child(even) td { background: #f7f7fc; }
.warning { background: #fff3cd; border: 1px solid #e0c060;
           padding: 0.5em 1em; margin: 0.5em 0; }
.oscillates { color: #b02a37; font-weight: 600; }
.settles { color: #2a7d4f; font-weight: 600; }
""".strip()


def _render_html(report: SweepReport) -> str:
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        "<title>Sweep report</title>",
        f"<style>{_HTML_STYLE}</style>",
        "</head><body>",
        "<h1>Sweep report</h1>",
        f"<p>{report.total_runs} runs ({report.total_cache_hits} cached), "
        f"{report.total_wall_s:.1f} s simulated wall time.</p>",
    ]
    for warning in report.warnings:
        parts.append(f'<div class="warning">{escape(warning)}</div>')
    if report.rows:
        parts.append("<table><tr>")
        parts.extend(f"<th>{escape(h)}</th>" for h in _HEADER)
        parts.append("</tr>")
        for row in report.rows:
            cells = _row_cells(row)
            parts.append("<tr>")
            for header, cell in zip(_HEADER, cells):
                if header == "settling" and cell != "-":
                    parts.append(f'<td class="{cell}">{escape(cell)}</td>')
                else:
                    parts.append(f"<td>{escape(cell)}</td>")
            parts.append("</tr>")
        parts.append("</table>")

    diagnosed = [row for row in report.rows if row.diagnoses]
    if diagnosed:
        parts.append("<h2>Diagnoses</h2><ul>")
        for row in diagnosed:
            for d in row.diagnoses:
                s = d.settling
                e = d.energy
                cls = "settles" if s.settled else "oscillates"
                verdict = "settles" if s.settled else "oscillates"
                parts.append(
                    f"<li><b>{escape(d.policy)} / {escape(d.workload)}</b> "
                    f"(seed {d.seed}): "
                    f'<span class="{cls}">{verdict}</span> '
                    f"({s.churn_per_quantum:.3f} changes/quantum); "
                    f"{d.misses} misses; {e.measured_j:.2f} J measured, "
                    f"{e.stall_j:.2f} J stall, {e.sag_j:.4f} J sag</li>"
                )
        parts.append("</ul>")

    if report.bench:
        parts.append("<h2>Perf history</h2>")
        parts.append("<table><tr>")
        parts.extend(f"<th>{escape(h)}</th>" for h in _BENCH_HEADER)
        parts.append("</tr>")
        for record in report.bench:
            parts.append("<tr>")
            parts.extend(
                f"<td>{escape(cell)}</td>" for cell in _bench_cells(record)
            )
            parts.append("</tr>")
        parts.append("</table>")

    if report.fleet:
        parts.append("<h2>Fleet history</h2>")
        parts.append(f"<p>{escape(throughput_trend(report.fleet))}</p>")
        # Inline-SVG trend curves: throughput, cache-hit rate, phase mix
        # over commits — self-contained, no scripts or external assets.
        from repro.obs.plot import fleet_charts

        for svg in fleet_charts(sorted(report.fleet, key=lambda r: r.unix_time)):
            parts.append(svg)
        parts.append("<table><tr>")
        parts.extend(f"<th>{escape(h)}</th>" for h in _FLEET_HEADER)
        parts.append("</tr>")
        for record in sorted(report.fleet, key=lambda r: r.unix_time):
            parts.append("<tr>")
            parts.extend(
                f"<td>{escape(cell)}</td>" for cell in _fleet_cells(record)
            )
            parts.append("</tr>")
        parts.append("</table>")
        phase_totals = _fleet_phase_seconds(report.fleet)
        if phase_totals:
            from repro.obs.profile import format_phase_table

            parts.append("<h3>Where the time went</h3>")
            parts.append(
                "<pre>" + escape(format_phase_table(phase_totals)) + "</pre>"
            )
    parts.append("</body></html>")
    return "\n".join(parts)
