"""Integration: the §5.1 claims across all four workloads."""

import pytest

from repro.core.catalog import best_policy, constant_speed
from repro.measure.runner import run_workload
from repro.workloads.chess import ChessConfig, chess_workload
from repro.workloads.editor import EditorConfig, editor_workload
from repro.workloads.mpeg import MpegConfig, mpeg_workload
from repro.workloads.web import WebConfig, web_workload

# Shortened traces keep the integration suite quick while preserving the
# structure; the benchmarks run the full-length versions.
WORKLOADS = [
    mpeg_workload(MpegConfig(duration_s=20.0)),
    web_workload(WebConfig(duration_s=60.0)),
    chess_workload(ChessConfig(duration_s=60.0)),
    editor_workload(EditorConfig()),
]


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
class TestFeasibilityAt132:
    """§5.1: every application runs at 132 MHz with no visible change."""

    def test_meets_constraints_at_132(self, workload):
        res = run_workload(
            workload, lambda: constant_speed(132.7), seed=4, use_daq=False
        )
        assert not res.missed

    def test_meets_constraints_at_full_speed(self, workload):
        res = run_workload(
            workload, lambda: constant_speed(206.4), seed=4, use_daq=False
        )
        assert not res.missed


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
class TestBestPolicyAcrossApplications:
    """§5.4: the best policy never misses a deadline across all apps."""

    def test_no_misses(self, workload):
        res = run_workload(workload, best_policy, seed=4, use_daq=False)
        assert not res.missed

    def test_saves_energy_on_idle_heavy_workloads(self, workload):
        policy = run_workload(workload, best_policy, seed=4, use_daq=False)
        const = run_workload(
            workload, lambda: constant_speed(206.4), seed=4, use_daq=False
        )
        assert policy.exact_energy_j < const.exact_energy_j * 1.01


class TestDistinctTimeScales:
    """§5.1: 'each application appears to run at a different time-scale'."""

    def test_utilization_signatures_differ(self):
        from repro.analysis.utilization import busy_idle_runs

        signatures = {}
        for workload in WORKLOADS:
            res = run_workload(
                workload, lambda: constant_speed(206.4), seed=4, use_daq=False
            )
            runs = busy_idle_runs(res.run.utilizations())
            busy_runs = [length for busy, length in runs if busy]
            signatures[workload.name] = (
                res.run.mean_utilization(),
                max(busy_runs) if busy_runs else 0,
            )
        # Chess has the longest busy stretches (multi-second searches).
        assert signatures["Chess"][1] > signatures["MPEG"][1]
        # Web is the idlest workload.
        assert signatures["Web"][0] == min(s[0] for s in signatures.values())
