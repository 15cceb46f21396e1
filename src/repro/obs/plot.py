"""Dependency-free inline-SVG charts for the fleet dashboard.

The ROADMAP asks for "an actual plotted curve (cells/s over commits,
not just a sparkline)".  This module draws it without pulling a plotting
dependency into the simulator: plain SVG text, deterministic for a given
record sequence (golden-testable, diff-friendly artifacts), drawn inline
in the HTML fleet report (``repro fleet --format html``).

Three fleet charts:

- **throughput** — cells/s of the newest sweep's comparable series
  (:func:`~repro.obs.fleet.comparable_series`), oldest first;
- **cache-hit rate** — the percentage of cells answered from the result
  cache, to spot sweeps that silently stopped reusing it;
- **phase mix** — a stacked area of per-cell seconds by pipeline
  phase (:mod:`repro.obs.profile`), showing *where* the wall time of a
  cell went as the code evolved.

Every chart is a pure function of the records; no clocks, no I/O.
"""

from __future__ import annotations

from html import escape
from typing import List, Sequence

from repro.obs.fleet import FleetRecord, comparable_series, series_name
from repro.obs.profile import PHASE_ORDER

#: Panel geometry (pixels).
PANEL_WIDTH = 640
PANEL_HEIGHT = 220
_MARGIN_LEFT = 58
_MARGIN_RIGHT = 16
_MARGIN_TOP = 30
_MARGIN_BOTTOM = 34

#: Series palette (dark-on-light, also readable in the HTML report).
_COLORS = (
    "#2a6fb0", "#b0582a", "#2a7d4f", "#8c2ab0", "#b02a37",
    "#6b6b2a", "#2ab0a5", "#555577",
)

_SVG_STYLE = (
    "text { font: 11px system-ui, sans-serif; }"
    " .title { font-size: 13px; font-weight: 600; }"
    " .axis { stroke: #888; stroke-width: 1; }"
    " .grid { stroke: #ddd; stroke-width: 1; }"
    " .lbl { fill: #444; }"
)


def _fmt_num(value: float) -> str:
    """Compact tick label: 0.25, 1.5, 12, 1200."""
    if abs(value) >= 100 or value == int(value):
        return f"{value:.0f}"
    if abs(value) >= 10:
        return f"{value:.1f}"
    return f"{value:.2f}"


def _ticks(lo: float, hi: float, n: int = 4) -> List[float]:
    """n+1 evenly spaced tick values from lo to hi."""
    if hi <= lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * i / n for i in range(n + 1)]


class _Panel:
    """One chart panel: axes, grid and data, drawn as one SVG document."""

    def __init__(
        self,
        title: str,
        x_labels: Sequence[str],
        y_max: float,
        y_unit: str = "",
    ):
        self.title = title
        self.x_labels = list(x_labels)
        self.y_max = y_max if y_max > 0 else 1.0
        self.y_unit = y_unit
        self.plot_w = PANEL_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
        self.plot_h = PANEL_HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
        self.parts: List[str] = []
        self._legend_x = PANEL_WIDTH - _MARGIN_RIGHT

    def x_at(self, index: int) -> float:
        """Pixel x of data index ``index`` (single points centered)."""
        n = max(1, len(self.x_labels) - 1)
        if len(self.x_labels) <= 1:
            return _MARGIN_LEFT + self.plot_w / 2
        return _MARGIN_LEFT + self.plot_w * index / n

    def y_at(self, value: float) -> float:
        """Pixel y of data value ``value`` (zero-based scale)."""
        frac = min(1.0, max(0.0, value / self.y_max))
        return _MARGIN_TOP + self.plot_h * (1.0 - frac)

    def frame(self) -> None:
        """Title, axes, horizontal grid with tick labels, x labels."""
        p = self.parts
        p.append(
            f'<text class="title lbl" x="{_MARGIN_LEFT}" y="16">'
            f"{escape(self.title)}</text>"
        )
        x0, x1 = _MARGIN_LEFT, _MARGIN_LEFT + self.plot_w
        y0, y1 = _MARGIN_TOP, _MARGIN_TOP + self.plot_h
        for tick in _ticks(0.0, self.y_max):
            y = self.y_at(tick)
            cls = "axis" if tick == 0.0 else "grid"
            p.append(f'<line class="{cls}" x1="{x0}" y1="{y:.1f}" '
                     f'x2="{x1}" y2="{y:.1f}"/>')
            p.append(
                f'<text class="lbl" x="{x0 - 6}" y="{y + 4:.1f}" '
                f'text-anchor="end">{_fmt_num(tick)}{self.y_unit}</text>'
            )
        p.append(f'<line class="axis" x1="{x0}" y1="{y0}" '
                 f'x2="{x0}" y2="{y1}"/>')
        # At most ~8 x labels; always the first and the last.
        n = len(self.x_labels)
        if n:
            step = max(1, -(-n // 8))
            shown = sorted(set(range(0, n, step)) | {n - 1})
            for i in shown:
                x = self.x_at(i)
                p.append(
                    f'<text class="lbl" x="{x:.1f}" y="{y1 + 14}" '
                    f'text-anchor="middle">{escape(self.x_labels[i])}</text>'
                )

    def polyline(self, values: Sequence[float], color: str,
                 name: str = "") -> None:
        """One data series as a line (plus point markers)."""
        points = [(self.x_at(i), self.y_at(v)) for i, v in enumerate(values)]
        if len(points) > 1:
            line = " ".join(f"{x:.1f},{y:.1f}" for x, y in points)
            self.parts.append(
                f'<polyline fill="none" stroke="{color}" '
                f'stroke-width="2" points="{line}"/>'
            )
        for x, y in points:
            self.parts.append(
                f'<circle cx="{x:.1f}" cy="{y:.1f}" r="2.5" '
                f'fill="{color}"/>'
            )
        if name:
            self.legend(name, color)

    def area(self, lower: Sequence[float], upper: Sequence[float],
             color: str, name: str = "") -> None:
        """A filled band between two cumulative series (stacked areas)."""
        if not upper:
            return
        up = [(self.x_at(i), self.y_at(v)) for i, v in enumerate(upper)]
        lo = [(self.x_at(i), self.y_at(v)) for i, v in enumerate(lower)]
        points = " ".join(
            f"{x:.1f},{y:.1f}" for x, y in up + list(reversed(lo))
        )
        self.parts.append(
            f'<polygon fill="{color}" fill-opacity="0.75" '
            f'stroke="{color}" stroke-width="1" points="{points}"/>'
        )
        if name:
            self.legend(name, color)

    def legend(self, name: str, color: str) -> None:
        """Right-aligned legend entries, filling leftwards."""
        label = escape(name)
        width = 10 + 6 * len(name)
        self._legend_x -= width + 14
        x = self._legend_x
        self.parts.append(
            f'<rect x="{x}" y="8" width="10" height="10" fill="{color}"/>'
        )
        self.parts.append(
            f'<text class="lbl" x="{x + 14}" y="17">{label}</text>'
        )

    def svg(self) -> str:
        """The panel as one ``<svg>`` document."""
        body = "\n".join(self.parts)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{PANEL_WIDTH}" height="{PANEL_HEIGHT}" '
            f'viewBox="0 0 {PANEL_WIDTH} {PANEL_HEIGHT}" '
            f'role="img" aria-label="{escape(self.title)}">'
            f"<style>{_SVG_STYLE}</style>\n{body}\n</svg>"
        )


def _x_labels(records: Sequence[FleetRecord]) -> List[str]:
    """Short per-sweep x labels: the commit sha when known, else the
    sweep id's time-of-day part."""
    labels = []
    for record in records:
        if record.git_sha:
            labels.append(record.git_sha[:7])
        else:
            stamp = record.sweep_id.partition("-")[0]
            labels.append(stamp[-6:] or record.sweep_id[:7])
    return labels


def throughput_chart(records: Sequence[FleetRecord]) -> str:
    """Cells/s over the newest sweep's comparable series, titled with
    the series' name."""
    series = comparable_series(records)
    rates = [r.cells_per_s for r in series]
    title = (
        f"Sweep throughput over {series_name(series)}"
        if series else "Sweep throughput: no executed sweeps"
    )
    panel = _Panel(title, _x_labels(series), max(rates or [1.0]) * 1.1)
    panel.frame()
    panel.polyline(rates, _COLORS[0], "cells/s")
    return panel.svg()


def cache_hit_chart(records: Sequence[FleetRecord]) -> str:
    """Cache-hit rate (percent of cells) per sweep."""
    ordered = sorted(records, key=lambda r: r.unix_time)
    rates = [r.cache_hit_rate * 100.0 for r in ordered]
    panel = _Panel(
        "Cache-hit rate over commits", _x_labels(ordered), 100.0, y_unit="%"
    )
    panel.frame()
    panel.polyline(rates, _COLORS[2], "cache-hit %")
    return panel.svg()


def phase_mix_chart(records: Sequence[FleetRecord]) -> str:
    """Stacked per-cell phase seconds per sweep."""
    ordered = [
        r for r in sorted(records, key=lambda r: r.unix_time)
        if r.phases and r.cells_executed > 0
    ]
    per_cell = [r.phase_per_cell for r in ordered]
    phases = [p for p in PHASE_ORDER if any(p in d for d in per_cell)]
    phases += sorted(
        {p for d in per_cell for p in d} - set(phases)
    )
    totals = [sum(d.values()) for d in per_cell] or [1.0]
    panel = _Panel(
        "Per-cell wall time by phase (s/cell)",
        _x_labels(ordered), max(totals) * 1.1,
    )
    panel.frame()
    if not ordered:
        panel.parts.append(
            f'<text class="lbl" x="{PANEL_WIDTH // 2}" y="{PANEL_HEIGHT // 2}"'
            f' text-anchor="middle">no profiled sweeps in the ledger'
            f"</text>"
        )
        return panel.svg()
    lower = [0.0] * len(per_cell)
    for i, phase in enumerate(phases):
        upper = [
            low + d.get(phase, 0.0) for low, d in zip(lower, per_cell)
        ]
        panel.area(lower, upper, _COLORS[i % len(_COLORS)], phase)
        lower = upper
    return panel.svg()


def fleet_charts(records: Sequence[FleetRecord]) -> List[str]:
    """The fleet dashboard's charts, in display order, each an ``<svg>``
    document the HTML report inlines."""
    return [
        chart(records)
        for chart in (throughput_chart, cache_hit_chart, phase_mix_chart)
    ]
