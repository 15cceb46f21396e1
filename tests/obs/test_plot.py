"""Tests for the dependency-free fleet SVG charts."""

import re
import xml.etree.ElementTree as ET

from repro.obs.fleet import FleetRecord
from repro.obs.plot import (
    PANEL_HEIGHT,
    PANEL_WIDTH,
    cache_hit_chart,
    fleet_charts,
    phase_mix_chart,
    throughput_chart,
)
from repro.obs.report import build_report, render_report


def record(**overrides) -> FleetRecord:
    defaults = dict(
        sweep_id="20260809T120000-abcd",
        unix_time=1_786_000_000.0,
        command="table2",
        policies=("best", "past-peg"),
        workloads=("mpeg",),
        machines=("itsy",),
        seeds=3,
        cells_total=6,
        cells_executed=6,
        cells_cached=0,
        wall_s=0.5,
        cells_per_s=12.0,
        backend="fastpath",
        jobs=2,
    )
    defaults.update(overrides)
    return FleetRecord(**defaults)


def ledger(n=4, **common):
    return [
        record(
            sweep_id=f"sweep-{i}", unix_time=float(i),
            cells_per_s=10.0 + i, git_sha=f"{i:07d}abc", **common
        )
        for i in range(n)
    ]


class TestDocument:
    def test_plot_is_valid_xml(self):
        for chart in fleet_charts(ledger()):
            root = ET.fromstring(chart)
            assert root.get("width") == str(PANEL_WIDTH)
            assert root.get("height") == str(PANEL_HEIGHT)

    def test_plot_is_deterministic(self):
        records = ledger()
        assert fleet_charts(records) == fleet_charts(list(records))

    def test_charts_are_standalone_svgs(self):
        charts = fleet_charts(ledger())
        assert len(charts) == 3
        for chart in charts:
            root = ET.fromstring(chart)
            assert root.tag.endswith("svg")

    def test_record_order_does_not_matter(self):
        records = ledger()
        assert fleet_charts(records) == fleet_charts(records[::-1])

    def test_html_fleet_report_inlines_each_chart(self):
        # The HTML fleet report is the one place the charts are drawn:
        # it carries all three, each parsing as XML, and a ledger given
        # in either order renders the same document.
        records = ledger(phases=(("kernel compute", 0.4), ("result IPC", 0.05)))
        html = render_report(build_report([], fleet_records=records), "html")
        charts = re.findall(r"<svg\b.*?</svg>", html, re.S)
        assert charts == fleet_charts(records)
        for chart in charts:
            ET.fromstring(chart)
        reverse = build_report([], fleet_records=records[::-1])
        assert render_report(reverse, "html") == html


class TestDegenerateInputs:
    def test_empty_ledger_still_renders(self):
        charts = fleet_charts([])
        for chart in charts:
            ET.fromstring(chart)
        assert "no profiled sweeps in the ledger" in charts[-1]

    def test_single_record_renders_a_point(self):
        svg = throughput_chart([record()])
        ET.fromstring(svg)
        assert "<circle" in svg
        assert "<polyline" not in svg  # one point, no line

    def test_all_cached_sweeps_gap_the_throughput_series(self):
        # Warm-cache sweeps executed nothing; their cells/s measures the
        # cache, not the engine, so the line must skip them.
        records = ledger()
        records.append(record(
            sweep_id="warm", unix_time=50.0,
            cells_executed=0, cells_cached=6, cells_per_s=900.0,
        ))
        svg = throughput_chart(records)
        ET.fromstring(svg)
        # The y-scale would read ~900 if the cached sweep leaked in.
        assert "900" not in svg


class TestSeries:
    def test_cache_hit_axis_is_percent(self):
        svg = cache_hit_chart(ledger(cells_executed=3, cells_cached=3))
        assert "cache-hit %" in svg
        assert "100%" in svg

    def test_phase_mix_placeholder_without_profiles(self):
        svg = phase_mix_chart(ledger())
        ET.fromstring(svg)
        assert "no profiled sweeps in the ledger" in svg

    def test_phase_mix_stacks_recorded_phases(self):
        svg = phase_mix_chart(ledger(
            phases=(("kernel compute", 0.4), ("result IPC", 0.05)),
        ))
        ET.fromstring(svg)
        assert "kernel compute" in svg
        assert "result IPC" in svg
        assert "<polygon" in svg

    def test_throughput_draws_the_newest_comparable_series(self):
        # A plain sweep after diagnosed ones: the chart draws and names
        # the plain sweep's series alone, while the cache-hit chart still
        # shows every sweep.
        records = ledger(phases=(("kernel compute", 0.4), ("diagnosis", 0.1)))
        records.append(record(sweep_id="plain", unix_time=9.0,
                              git_sha="plain00abc"))
        svg = throughput_chart(records)
        assert "Sweep throughput over 1 comparable table2 sweep<" in svg
        assert svg.count("<circle") == 1
        assert "plain00" in svg and "0000000" not in svg
        assert "0000000" in cache_hit_chart(records)

    def test_commit_shas_label_the_x_axis(self):
        svg = throughput_chart(ledger())
        assert "0000000" in svg and "0000003" in svg
