"""Tests for the sweep report aggregator and renderers."""

import re
from html import unescape

import pytest

from repro.cli import workload_spec
from repro.core.catalog import resolve_policy
from repro.measure.runner import run_workload
from repro.obs.diagnose import diagnose
from repro.obs.fleet import FleetRecord
from repro.obs.report import (
    FORMAT_HTML,
    FORMAT_MARKDOWN,
    build_report,
    render_report,
)
from repro.obs.runlog import RUN_LOG_VERSION


def record(**overrides) -> dict:
    base = dict(
        v=RUN_LOG_VERSION,
        run_id="abc",
        policy="best",
        workload="mpeg",
        machine="itsy",
        seed=0,
        duration_us=1e6,
        energy_j=10.0,
        exact_energy_j=10.0,
        miss_count=0,
        cache="executed",
        wall_s=0.5,
        unix_time=1_700_000_000.0,
        repro_version="1.0.0",
    )
    base.update(overrides)
    return base


def real_diagnosis(
    policy="avg3-one", workload="mpeg", duration_s=5.0, baseline_j=None
):
    result = run_workload(
        workload_spec(workload, duration_s).build(),
        resolve_policy(policy),
        use_daq=False,
    )
    return diagnose(result, policy=policy, workload=workload).against(baseline_j)


class TestBuildReport:
    def test_groups_by_cell_labels(self):
        report = build_report(
            [
                record(),
                record(seed=1, energy_j=12.0, cache="hit"),
                record(policy="avg3-one", energy_j=11.0, miss_count=2),
            ]
        )
        assert len(report.rows) == 2
        assert report.total_runs == 3
        assert report.total_cache_hits == 1
        by_policy = {row.policy: row for row in report.rows}
        best = by_policy["best"]
        assert best.runs == 2
        assert best.mean_energy_j == pytest.approx(11.0)
        assert best.energy_min_j == 10.0
        assert best.energy_max_j == 12.0
        assert by_policy["avg3-one"].miss_count == 2

    def test_rows_sorted_by_workload_machine_policy(self):
        report = build_report(
            [
                record(policy="z", workload="web"),
                record(policy="a", workload="web"),
                record(policy="m", workload="mpeg"),
            ]
        )
        keys = [(r.workload, r.policy) for r in report.rows]
        assert keys == [("mpeg", "m"), ("web", "a"), ("web", "z")]

    def test_diagnoses_join_on_labels(self):
        diagnosis = real_diagnosis()
        report = build_report(
            [record(policy="avg3-one", duration_us=diagnosis.duration_us)],
            diagnoses=[diagnosis],
        )
        [row] = report.rows
        assert row.diagnoses == [diagnosis]
        assert row.settled_verdict == "oscillates"

    def test_runs_of_different_lengths_get_their_own_rows(self):
        # A 2 s run and a 60 s run of one cell label are different
        # experiments: their energies must not share a mean.
        report = build_report([
            record(duration_us=2e6, energy_j=2.85),
            record(duration_us=60e6, energy_j=85.0),
            record(duration_us=60e6, energy_j=86.0, seed=1),
        ])
        assert [
            (row.duration_us, row.runs, row.mean_energy_j)
            for row in report.rows
        ] == [(2e6, 1, 2.85), (60e6, 2, 85.5)]
        text = render_report(report, FORMAT_MARKDOWN)
        assert "| best | mpeg | itsy | 2 | 1 |" in text
        assert "| best | mpeg | itsy | 60 | 2 |" in text

    def test_diagnoses_join_only_runs_of_their_length(self):
        diagnosis = real_diagnosis()
        report = build_report(
            [record(policy="avg3-one", duration_us=60e6)],
            diagnoses=[diagnosis],
        )
        assert [(row.runs, len(row.diagnoses)) for row in report.rows] == [
            (0, 1), (1, 0),
        ]

    def test_diagnosis_only_rows_appear(self):
        report = build_report([], diagnoses=[real_diagnosis()])
        assert len(report.rows) == 1
        assert report.rows[0].runs == 0
        assert report.total_runs == 0

    def test_mixed_versions_warn(self):
        report = build_report([record(), record(v=1)])
        assert any("schema versions" in w for w in report.warnings)

    def test_homogeneous_log_has_no_warnings(self):
        report = build_report([record(), record(seed=1)])
        assert report.warnings == ()


class TestRenderers:
    def test_runs_line_separates_simulated_and_compute_seconds(self):
        report = build_report([
            record(duration_us=60e6, wall_s=0.06),
            record(seed=1, duration_us=60e6, wall_s=0.04),
        ])
        for fmt in (FORMAT_MARKDOWN, FORMAT_HTML):
            assert (
                "2 runs (0 cached): 120.0 s simulated, 0.1 s of cell compute."
                in render_report(report, fmt)
            )

    def test_markdown_contains_table_and_diagnoses(self):
        text = render_report(
            build_report([record(policy="avg3-one")], [real_diagnosis()]),
            FORMAT_MARKDOWN,
        )
        assert text.startswith("# Sweep report")
        assert "| policy | workload |" in text
        assert "| avg3-one | mpeg | itsy |" in text
        assert "## Diagnoses" in text
        assert "oscillates" in text
        assert "oracle" not in text  # baseline was infeasible/absent here

    def test_markdown_is_deterministic(self):
        records = [record(), record(policy="avg3-one")]
        assert render_report(build_report(records)) == render_report(
            build_report(records)
        )

    def test_html_is_standalone_and_escaped(self):
        text = render_report(
            build_report(
                [record(policy="<script>alert(1)</script>")],
                [real_diagnosis()],
            ),
            FORMAT_HTML,
        )
        assert text.startswith("<!DOCTYPE html>")
        assert "<style>" in text
        assert "<script>alert(1)</script>" not in text
        assert "&lt;script&gt;" in text
        assert 'class="oscillates"' in text

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown report format"):
            render_report(build_report([record()]), "pdf")

    def test_html_diagnoses_say_what_markdown_says(self):
        # One block list feeds both renderers, so the HTML carries the
        # oracle/overshoot split the markdown prints.
        report = build_report(
            [record(policy="avg3-one", duration_us=5e6)],
            [real_diagnosis(baseline_j=6.0)],
        )
        md = render_report(report, FORMAT_MARKDOWN)
        html = render_report(report, FORMAT_HTML)
        assert "J oracle" in html
        [bullet] = [line for line in md.splitlines() if line.startswith("- ")]
        [item] = re.findall(r"<li>(.*)</li>", html)
        assert unescape(re.sub(r"<[^>]+>", "", item)) == (
            bullet[2:].replace("**", "")
        )

    def test_warnings_rendered_in_both_formats(self):
        report = build_report([record(), record(v=1)])
        assert "> **warning:**" in render_report(report, FORMAT_MARKDOWN)
        assert 'class="warning"' in render_report(report, FORMAT_HTML)


def fleet_record(**overrides):
    base = dict(
        sweep_id="20260809T120000-abcd",
        unix_time=1_786_000_000.0,
        command="table2",
        policies=("best",),
        workloads=("mpeg",),
        machines=("itsy",),
        seeds=3,
        cells_total=15,
        cells_executed=15,
        cells_cached=0,
        wall_s=0.7,
        cells_per_s=21.4,
        backend="fastpath",
        jobs=2,
    )
    base.update(overrides)
    return FleetRecord(**base)


class TestFleetHistory:
    def test_absent_without_fleet_records(self):
        text = render_report(build_report([record()]), FORMAT_MARKDOWN)
        assert "Fleet history" not in text

    def test_markdown_section(self):
        report = build_report(
            [],
            fleet_records=[
                fleet_record(unix_time=1.0, cells_per_s=5.7),
                fleet_record(sweep_id="later", unix_time=2.0,
                             cells_per_s=19.3),
            ],
        )
        text = render_report(report, FORMAT_MARKDOWN)
        assert "## Fleet history" in text
        assert "throughput trend (cells/s): 5.7 → 19.3" in text
        assert "| sweep | when | command |" in text
        assert "| 20260809T120000-abcd |" in text
        # Rows are ordered oldest first regardless of input order.
        assert text.index("20260809T120000-abcd") < text.index("later")

    def test_html_section(self):
        text = render_report(
            build_report([], fleet_records=[fleet_record()]), FORMAT_HTML
        )
        assert "<h2>Fleet history</h2>" in text
        assert "throughput trend" in text
        assert "<td>20260809T120000-abcd</td>" in text

    def test_phase_table_renders_from_ledger_phases(self):
        report = build_report(
            [],
            fleet_records=[fleet_record(
                phases=(("kernel compute", 0.4), ("result IPC", 0.05)),
            )],
        )
        md = render_report(report, FORMAT_MARKDOWN)
        assert "### Where the time went" in md
        assert "kernel compute" in md
        html = render_report(report, FORMAT_HTML)
        assert "<h3>Where the time went</h3>" in html

    def test_html_embeds_trend_charts(self):
        text = render_report(
            build_report([], fleet_records=[fleet_record()]), FORMAT_HTML
        )
        assert "<svg" in text
        # The throughput chart names the series it draws.
        assert "Sweep throughput over 1 comparable table2 sweep" in text

    def test_unprofiled_ledger_skips_phase_table(self):
        text = render_report(
            build_report([], fleet_records=[fleet_record()]), FORMAT_MARKDOWN
        )
        assert "Where the time went" not in text

    def test_fleet_only_report_has_no_runs_line(self):
        report = build_report([], fleet_records=[fleet_record()])
        for fmt in (FORMAT_MARKDOWN, FORMAT_HTML):
            assert "of cell compute" not in render_report(report, fmt)

    def test_fleet_only_report_skips_runs_table(self):
        text = render_report(
            build_report([], fleet_records=[fleet_record()]), FORMAT_MARKDOWN
        )
        assert "| policy | workload |" not in text
