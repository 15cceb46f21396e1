"""Sweep reports: aggregate run-logs (+ diagnoses) into one document.

A finished sweep leaves two artifacts behind: the JSONL run-log (one
audit record per cell) and, when diagnosis was enabled, a JSONL diagnosis
log (one :class:`~repro.obs.diagnose.PolicyDiagnosis` per executed cell).
This module folds them into a single self-contained report — Table-2
style rows per policy x workload x machine x duration, with settling
verdicts and energy decompositions joined in where available.  A report
is built once as an ordered list of blocks (headings, paragraphs,
warnings, tables, bullet lists, preformatted text and SVG figures), and
both renderers read that one list: markdown, or standalone HTML (inline
CSS, no external assets, opens from a CI artifact without a web
server).  Fleet-ledger sweeps render as a "Fleet history" section —
per-sweep table with throughput, an aggregated
phase-time table, and (in HTML) the inline-SVG trend curves from
:mod:`repro.obs.plot`; this is what ``repro fleet`` prints.

Rendering is pure: the same records produce the same document, so report
snapshots can be golden-tested.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from html import escape
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.diagnose import PolicyDiagnosis
from repro.obs.fleet import FleetRecord, throughput_trend
from repro.obs.runlog import provenance_warnings

#: Renderer names accepted by :func:`render_report`.
FORMAT_MARKDOWN = "md"
FORMAT_HTML = "html"


@dataclass
class ReportRow:
    """Aggregate of every run-log record sharing one sweep cell label and
    simulated length."""

    policy: str
    workload: str
    machine: str
    duration_us: float
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
    #: simulated seconds over every run, cached ones included.
    total_simulated_s: float
    #: host seconds spent executing cells (the run-log's ``wall_s``).
    total_wall_s: float
    #: fleet-ledger sweep records, rendered as a "Fleet history" section
    #: (per-sweep table + throughput trend line) when present.
    fleet: Tuple[FleetRecord, ...] = ()


def build_report(
    records: Sequence[dict],
    diagnoses: Sequence[PolicyDiagnosis] = (),
    fleet_records: Sequence[FleetRecord] = (),
) -> SweepReport:
    """Aggregate run-log records (and optional diagnoses) into a report.

    Records group by ``(policy, workload, machine, duration_us)``, so
    runs of different lengths never share a mean; diagnoses join onto
    their matching group by the same key.  Diagnoses without a
    matching record still appear (as diagnosis-only rows), so a report
    built from a diagnosis log alone is not empty.  ``fleet_records``
    (parsed fleet-ledger sweeps) render as a "Fleet history" section
    with a throughput trend.
    Reader-level warnings attached to ``records`` or ``diagnoses`` (the
    tolerant :func:`~repro.obs.runlog.read_run_log` and
    :func:`~repro.obs.diagnose.read_diagnoses` report skipped lines
    there) surface next to the provenance warnings.
    """
    rows: Dict[Tuple[str, str, str, float], ReportRow] = {}
    for record in records:
        key = (
            str(record.get("policy", "?")),
            str(record.get("workload", "?")),
            str(record.get("machine", "?")),
            float(record.get("duration_us", 0.0)),
        )
        row = rows.setdefault(key, ReportRow(*key))
        row.runs += 1
        if record.get("cache") == "hit":
            row.cache_hits += 1
        energy = float(record.get("energy_j", 0.0))
        row.energy_sum_j += energy
        row.energy_min_j = min(row.energy_min_j, energy)
        row.energy_max_j = max(row.energy_max_j, energy)
        row.miss_count += int(record.get("miss_count", 0))
        row.wall_s += float(record.get("wall_s", 0.0))

    for d in diagnoses:
        key = (d.policy, d.workload, d.machine, d.duration_us)
        rows.setdefault(key, ReportRow(*key)).diagnoses.append(d)

    ordered = tuple(
        rows[key]
        for key in sorted(rows, key=lambda k: (k[1], k[3], k[2], k[0]))
    )
    reader_warnings = tuple(getattr(records, "warnings", ())) + tuple(
        getattr(diagnoses, "warnings", ())
    )
    return SweepReport(
        rows=ordered,
        warnings=reader_warnings + tuple(provenance_warnings(list(records))),
        total_runs=sum(r.runs for r in ordered),
        total_cache_hits=sum(r.cache_hits for r in ordered),
        total_simulated_s=sum(r.duration_us * r.runs for r in ordered) / 1e6,
        total_wall_s=sum(r.wall_s for r in ordered),
        fleet=tuple(fleet_records),
    )


def render_report(report: SweepReport, fmt: str = FORMAT_MARKDOWN) -> str:
    """Render a report as markdown or standalone HTML.

    Raises:
        ValueError: for unknown format names.
    """
    if fmt == FORMAT_MARKDOWN:
        return _render_markdown(_report_blocks(report))
    if fmt == FORMAT_HTML:
        return _render_html(_report_blocks(report))
    raise ValueError(
        f"unknown report format {fmt!r}; "
        f"expected {FORMAT_MARKDOWN!r} or {FORMAT_HTML!r}"
    )


# Both renderers read one ordered list of blocks.  A block is a tuple
# whose first item names its kind: ("heading", level, text),
# ("paragraph", text), ("warning", texts), ("table", header, rows),
# ("bullets", items), ("pre", text), or ("svg", figures), where figures
# is a callable returning inline SVG documents (HTML only).  A bullet
# item is a tuple of spans ``(style, text)``: style "" is plain text,
# "b" bold, and any other a CSS class.  A table cell is a string or a
# span.
Block = Tuple
Span = Tuple[str, str]


def _report_blocks(report: SweepReport) -> List[Block]:
    """The report's content, in order, for either renderer."""
    blocks: List[Block] = [("heading", 1, "Sweep report")]
    if report.rows or not report.fleet:
        blocks.append((
            "paragraph",
            f"{report.total_runs} runs ({report.total_cache_hits} cached): "
            f"{report.total_simulated_s:.1f} s simulated, "
            f"{report.total_wall_s:.1f} s of cell compute.",
        ))
    if report.warnings:
        blocks.append(("warning", report.warnings))
    if report.rows:
        blocks.append(("table", _HEADER, [_row_cells(row) for row in report.rows]))
    diagnoses = [d for row in report.rows for d in row.diagnoses]
    if diagnoses:
        blocks.append(("heading", 2, "Diagnoses"))
        blocks.append(("bullets", [_diagnosis_spans(d) for d in diagnoses]))
    if report.fleet:
        from repro.obs.plot import fleet_charts

        fleet = sorted(report.fleet, key=lambda r: r.unix_time)
        blocks.append(("heading", 2, "Fleet history"))
        blocks.append(("paragraph", throughput_trend(fleet)))
        # Inline-SVG trend curves: throughput, cache-hit rate, phase mix
        # over commits — self-contained, no scripts or external assets.
        blocks.append(("svg", lambda: fleet_charts(fleet)))
        blocks.append(("table", _FLEET_HEADER, [_fleet_cells(r) for r in fleet]))
        phase_totals = _fleet_phase_seconds(fleet)
        if phase_totals:
            from repro.obs.profile import format_phase_table

            blocks.append(("heading", 3, "Where the time went"))
            blocks.append(("pre", format_phase_table(phase_totals)))
    return blocks


def _fmt(value: Optional[float], digits: int = 2) -> str:
    return "-" if value is None else f"{value:.{digits}f}"


def _row_cells(row: ReportRow) -> List[Union[str, Span]]:
    spread = (
        f"{row.energy_min_j:.2f}..{row.energy_max_j:.2f}" if row.runs else "-"
    )
    verdict = row.settled_verdict
    return [
        row.policy,
        row.workload,
        row.machine,
        f"{row.duration_us / 1e6:g}",
        str(row.runs),
        str(row.cache_hits),
        _fmt(row.mean_energy_j if row.runs else None),
        spread,
        str(row.miss_count),
        (verdict, verdict) if verdict else "-",
        _fmt(row.mean_excess_j),
    ]


def _diagnosis_spans(d: PolicyDiagnosis) -> Tuple[Span, ...]:
    """One diagnosis line: the verdict and where the energy went."""
    s = d.settling
    e = d.energy
    verdict = "settles" if s.settled else "oscillates"
    period = (
        f", dominant period {s.dominant_period_quanta:.1f} quanta"
        if s.dominant_period_quanta is not None
        else ""
    )
    base = (
        f"{e.baseline_j:.2f} J oracle + {e.overshoot_j:.2f} J overshoot"
        if e.baseline_feasible
        else f"{e.overshoot_j:.2f} J (no feasible constant step)"
    )
    return (
        ("b", f"{d.policy} / {d.workload}"),
        ("", f" (seed {d.seed}): "),
        (verdict, verdict),
        ("", f" ({s.churn_per_quantum:.3f} changes/quantum{period}); "
             f"{d.misses} misses; {e.measured_j:.2f} J = {base} + "
             f"{e.stall_j:.2f} J stall + {e.sag_j:.4f} J sag"),
    )


_HEADER = [
    "policy", "workload", "machine", "duration s", "runs", "cached",
    "mean J", "spread J", "misses", "settling", "excess J",
]

_FLEET_HEADER = [
    "sweep", "when", "command", "grid", "cells", "cached", "cells/s",
    "wall s", "backend", "jobs",
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
    return [
        record.sweep_id,
        when,
        record.command or "-",
        grid,
        str(record.cells_total),
        str(record.cells_cached),
        f"{record.cells_per_s:.1f}",
        f"{record.wall_s:.1f}",
        record.backend or "-",
        str(record.jobs),
    ]


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


def _span(cell: Union[str, Span]) -> Span:
    return cell if isinstance(cell, tuple) else ("", cell)


def _render_markdown(blocks: List[Block]) -> str:
    """Markdown: each block, then a blank line (SVG figures are HTML
    only)."""
    lines: List[str] = []
    for kind, *body in blocks:
        if kind == "heading":
            level, text = body
            lines.append("#" * level + " " + text)
        elif kind == "paragraph":
            lines.append(body[0])
        elif kind == "warning":
            lines.extend(f"> **warning:** {text}" for text in body[0])
        elif kind == "table":
            header, rows = body
            lines.append("| " + " | ".join(header) + " |")
            lines.append("|" + "|".join(["---"] * len(header)) + "|")
            for row in rows:
                cells = (_span(cell)[1] for cell in row)
                lines.append("| " + " | ".join(cells) + " |")
        elif kind == "bullets":
            for item in body[0]:
                lines.append("- " + "".join(
                    f"**{text}**" if style == "b" else text
                    for style, text in item
                ))
        elif kind == "pre":
            lines.extend(["```", body[0], "```"])
        else:
            continue
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


def _html_span(span: Span) -> str:
    style, text = span
    if style == "":
        return escape(text)
    if style == "b":
        return f"<b>{escape(text)}</b>"
    return f'<span class="{style}">{escape(text)}</span>'


def _render_html(blocks: List[Block]) -> str:
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        "<title>Sweep report</title>",
        f"<style>{_HTML_STYLE}</style>",
        "</head><body>",
    ]
    for kind, *body in blocks:
        if kind == "heading":
            level, text = body
            parts.append(f"<h{level}>{escape(text)}</h{level}>")
        elif kind == "paragraph":
            parts.append(f"<p>{escape(body[0])}</p>")
        elif kind == "warning":
            parts.extend(
                f'<div class="warning">{escape(text)}</div>' for text in body[0]
            )
        elif kind == "table":
            header, rows = body
            parts.append("<table><tr>")
            parts.extend(f"<th>{escape(h)}</th>" for h in header)
            parts.append("</tr>")
            for row in rows:
                parts.append("<tr>")
                for style, text in map(_span, row):
                    attr = f' class="{style}"' if style else ""
                    parts.append(f"<td{attr}>{escape(text)}</td>")
                parts.append("</tr>")
            parts.append("</table>")
        elif kind == "bullets":
            parts.append("<ul>")
            parts.extend(
                "<li>" + "".join(_html_span(span) for span in item) + "</li>"
                for item in body[0]
            )
            parts.append("</ul>")
        elif kind == "pre":
            parts.append(f"<pre>{escape(body[0])}</pre>")
        else:
            parts.extend(body[0]())
    parts.append("</body></html>")
    return "\n".join(parts)
