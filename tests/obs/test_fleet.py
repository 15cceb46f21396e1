"""Tests for the persistent fleet ledger."""

import json
import multiprocessing
import sys

import pytest

from repro.kernel.backend import resolve_backend
from repro.measure.parallel import PolicySpec, SweepCell, SweepEngine, WorkloadSpec
from repro.obs.fleet import (
    FLEET_SCHEMA_VERSION,
    FleetLedger,
    FleetRecord,
    check_fleet,
    git_sha,
    new_sweep_id,
    read_fleet,
    sparkline,
    throughput_trend,
)
from repro.workloads.mpeg import MpegConfig


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


class TestLedger:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "fleet.jsonl"
        with FleetLedger(path) as ledger:
            ledger.append(record())
            ledger.append(record(sweep_id="x", cells_cached=2))
        history = read_fleet(path)
        assert history.warnings == ()
        assert len(history.records) == 2
        first = history.records[0]
        assert first == record()
        assert first.policies == ("best", "past-peg")

    def test_schema_version_stamped(self, tmp_path):
        path = tmp_path / "fleet.jsonl"
        with FleetLedger(path) as ledger:
            ledger.append(record())
        raw = json.loads(path.read_text())
        assert raw["v"] == FLEET_SCHEMA_VERSION
        assert isinstance(raw["policies"], list)

    def test_lazy_open(self, tmp_path):
        path = tmp_path / "never.jsonl"
        ledger = FleetLedger(path)
        ledger.close()
        assert not path.exists()

    def test_tolerates_truncated_trailing_line(self, tmp_path):
        path = tmp_path / "fleet.jsonl"
        with FleetLedger(path) as ledger:
            ledger.append(record())
        with path.open("a") as handle:
            handle.write('{"v": 1, "sweep_id": "torn')
        history = read_fleet(path)
        assert len(history.records) == 1
        assert len(history.warnings) == 1
        assert "fleet.jsonl:2" in history.warnings[0]
        assert "truncated write?" in history.warnings[0]

    def test_tolerates_non_object_lines(self, tmp_path):
        path = tmp_path / "fleet.jsonl"
        path.write_text("[1, 2]\n")
        history = read_fleet(path)
        assert history.records == ()
        assert len(history.warnings) == 1

    def test_unknown_fields_ignored(self, tmp_path):
        # A newer writer may add fields; old readers must not choke.
        path = tmp_path / "fleet.jsonl"
        raw = record().to_json()
        raw["future_field"] = {"nested": True}
        path.write_text(json.dumps(raw) + "\n")
        history = read_fleet(path)
        assert history.records[0].sweep_id == record().sweep_id

    def test_cache_hit_rate(self):
        assert record(cells_cached=3).cache_hit_rate == 0.5
        assert record(cells_total=0, cells_executed=0).cache_hit_rate == 0.0

    def test_v2_round_trip_with_phases_and_host_score(self, tmp_path):
        path = tmp_path / "fleet.jsonl"
        rec = record(
            host_score=1.5,
            phases=(("kernel compute", 0.4), ("result IPC", 0.05)),
        )
        with FleetLedger(path) as ledger:
            ledger.append(rec)
        loaded = read_fleet(path).records[0]
        assert loaded == rec
        assert loaded.phase_seconds == {
            "kernel compute": 0.4, "result IPC": 0.05,
        }
        # On disk the phases are a JSON object, not nested arrays.
        raw = json.loads(path.read_text())
        assert raw["phases"] == {"kernel compute": 0.4, "result IPC": 0.05}
        assert raw["host_score"] == 1.5

    def test_v1_records_read_tolerantly(self, tmp_path):
        # A pre-calibration ledger line has neither host_score nor
        # phases; both must default rather than fail the read.
        path = tmp_path / "fleet.jsonl"
        raw = record().to_json()
        del raw["host_score"]
        del raw["phases"]
        raw["v"] = 1
        path.write_text(json.dumps(raw) + "\n")
        history = read_fleet(path)
        assert history.warnings == ()
        loaded = history.records[0]
        assert loaded.host_score == 0.0
        assert loaded.phases == ()
        assert loaded.normalized_cells_per_s is None

    def test_v3_round_trip_with_start_method_and_python(self, tmp_path):
        path = tmp_path / "fleet.jsonl"
        rec = record(start_method="forkserver", python="3.12.4")
        with FleetLedger(path) as ledger:
            ledger.append(rec)
        assert read_fleet(path).records[0] == rec
        raw = json.loads(path.read_text())
        assert raw["v"] == 3
        assert raw["start_method"] == "forkserver"
        assert raw["python"] == "3.12.4"

    @pytest.mark.parametrize("version", [1, 2])
    def test_old_records_read_start_method_and_python_empty(
        self, tmp_path, version
    ):
        path = tmp_path / "fleet.jsonl"
        raw = record(start_method="fork", python="3.11.7").to_json()
        del raw["start_method"]
        del raw["python"]
        raw["v"] = version
        path.write_text(json.dumps(raw) + "\n")
        history = read_fleet(path)
        assert history.warnings == ()
        loaded = history.records[0]
        assert (loaded.start_method, loaded.python) == ("", "")
        assert loaded == record()

    def test_phases_as_pair_list_round_trips(self, tmp_path):
        # Hand-edited ledgers may store phases as pairs instead of an
        # object; the reader accepts both.
        path = tmp_path / "fleet.jsonl"
        raw = record().to_json()
        raw["phases"] = [["kernel compute", 0.25]]
        path.write_text(json.dumps(raw) + "\n")
        loaded = read_fleet(path).records[0]
        assert loaded.phases == (("kernel compute", 0.25),)

    def test_normalized_throughput(self):
        assert record(host_score=2.0).normalized_cells_per_s == 6.0
        assert record(host_score=0.0).normalized_cells_per_s is None


class TestHelpers:
    def test_sweep_id_shape(self):
        sweep_id = new_sweep_id(1_786_000_000.0)
        stamp, _, suffix = sweep_id.partition("-")
        assert stamp.startswith("2026")
        assert "T" in stamp
        assert len(suffix) == 4

    def test_git_sha_in_repo(self):
        sha = git_sha()
        assert len(sha) == 40

    def test_git_sha_outside_repo(self, tmp_path):
        assert git_sha(cwd=tmp_path) == ""

    def test_sparkline(self):
        assert sparkline([]) == ""
        assert sparkline([1.0, 1.0]) == "▁▁"
        line = sparkline([1.0, 2.0, 3.0])
        assert line[0] == "▁"
        assert line[-1] == "█"

    def test_trend_excludes_all_cached_sweeps(self):
        records = [
            record(unix_time=1.0, cells_per_s=5.7),
            record(unix_time=2.0, cells_executed=0, cells_cached=6,
                   cells_per_s=900.0),
            record(unix_time=3.0, cells_per_s=19.3),
        ]
        trend = throughput_trend(records)
        assert "5.7 → 19.3" in trend
        assert "3.39x" in trend
        assert "900" not in trend

    def test_trend_sorts_by_time(self):
        records = [
            record(unix_time=3.0, cells_per_s=19.3),
            record(unix_time=1.0, cells_per_s=5.7),
        ]
        assert "5.7 → 19.3" in throughput_trend(records)

    def test_trend_with_no_executed_sweeps(self):
        trend = throughput_trend(
            [record(cells_executed=0, cells_cached=6)]
        )
        assert "no executed sweeps" in trend

    def test_trend_with_empty_ledger(self):
        assert "no executed sweeps" in throughput_trend([])

    def test_trend_with_single_record_omits_sparkline(self):
        trend = throughput_trend([record(cells_per_s=12.0)])
        assert "12.0 → 12.0" in trend
        assert "▁" not in trend and "█" not in trend

    def test_trend_with_all_cached_ledger(self):
        # Every sweep answered from the cache: nothing measured the
        # engine, so the trend must say so instead of charting noise.
        records = [
            record(unix_time=float(i), cells_executed=0, cells_cached=6)
            for i in range(3)
        ]
        assert "no executed sweeps" in throughput_trend(records)


class TestSentinel:
    def history(self, n=5, **last_overrides):
        """n healthy comparable sweeps plus one configurable latest."""
        records = [
            record(
                sweep_id=f"sweep-{i}", unix_time=float(i),
                cells_per_s=10.0 + 0.1 * i,
                phases=(("kernel compute", 0.55), ("result IPC", 0.05)),
            )
            for i in range(n)
        ]
        last = dict(
            sweep_id="sweep-latest", unix_time=float(n),
            cells_per_s=10.0,
            phases=(("kernel compute", 0.55), ("result IPC", 0.05)),
        )
        last.update(last_overrides)
        records.append(record(**last))
        return records

    def test_healthy_ledger_passes(self):
        report = check_fleet(self.history())
        assert report.checked and report.ok
        assert report.window == 5
        assert "sweep-latest" in report.reason
        assert report.culprit_phase is None

    def test_empty_ledger_is_unchecked_ok(self):
        report = check_fleet([])
        assert report.ok and not report.checked
        assert "no executed sweeps" in report.reason

    def test_first_sweep_has_no_baseline(self):
        report = check_fleet([record()])
        assert report.ok and not report.checked
        assert "no comparable baseline" in report.reason

    def test_all_cached_latest_not_misread_as_regression(self):
        # A warm-cache re-run executes nothing; the sentinel must judge
        # the newest *executed* sweep, not the cache's throughput.
        records = self.history()
        records.append(record(
            sweep_id="warm", unix_time=99.0,
            cells_executed=0, cells_cached=6, cells_per_s=900.0,
        ))
        report = check_fleet(records)
        assert report.ok
        assert report.latest.sweep_id == "sweep-latest"

    def test_throughput_drop_fails_naming_culprit_phase(self):
        report = check_fleet(self.history(
            cells_per_s=1.0,
            wall_s=5.0,
            phases=(("kernel compute", 0.55), ("result IPC", 4.2)),
        ))
        assert report.checked and not report.ok
        assert "throughput dropped" in report.reason
        assert report.culprit_phase == "result IPC"
        assert "result IPC" in report.reason
        assert report.drop_pct == pytest.approx(90.0, abs=2.0)

    def test_drop_within_bar_passes(self):
        report = check_fleet(self.history(cells_per_s=9.0))
        assert report.ok

    def test_configurable_drop_bar(self):
        report = check_fleet(self.history(cells_per_s=9.0), max_drop_pct=5.0)
        assert not report.ok

    def test_cache_hit_collapse_fails(self):
        records = [
            record(
                sweep_id=f"sweep-{i}", unix_time=float(i),
                cells_executed=2, cells_cached=4,
            )
            for i in range(5)
        ]
        records.append(record(
            sweep_id="cold", unix_time=9.0,
            cells_executed=6, cells_cached=0,
        ))
        report = check_fleet(records)
        assert not report.ok
        assert "cache-hit rate collapsed" in report.reason

    def test_normalization_cancels_host_speed(self):
        # The same sweep on a half-speed host: raw throughput halves,
        # but so does the host score, so the sentinel stays green.
        records = self.history()
        records.append(record(
            sweep_id="slow-host", unix_time=50.0,
            cells_per_s=5.0, host_score=0.5,
        ))
        baseline_scored = [
            record(
                sweep_id=f"scored-{i}", unix_time=float(i),
                cells_per_s=10.0, host_score=1.0,
            )
            for i in range(5)
        ]
        report = check_fleet(baseline_scored + [records[-1]])
        assert report.ok, report.reason

    @pytest.mark.parametrize(
        "field,value",
        [
            ("backend", "reference"),
            ("command", "ideal"),
            ("policies", ("const-59.0", "const-206.4")),
            ("workloads", ("mpeg", "web")),
            ("jobs", 1),
        ],
        ids=["backend", "command", "policies", "workloads", "jobs"],
    )
    def test_different_sweep_not_compared(self, field, value):
        # Throughput compares only between sweeps of the same command over
        # the same grid on the same backend and worker count.
        records = self.history()
        records.append(record(
            sweep_id="other", unix_time=60.0, cells_per_s=0.5,
            **{field: value},
        ))
        report = check_fleet(records)
        assert report.ok and not report.checked
        assert "no comparable baseline" in report.reason

    def test_window_limits_baseline(self):
        report = check_fleet(self.history(n=10), window=3)
        assert report.window == 3


class TestEngineFleetRecord:
    def cells(self):
        workload = WorkloadSpec("mpeg", MpegConfig(duration_s=0.3))
        return [
            SweepCell(workload=workload, policy=PolicySpec("best"), seed=s,
                      use_daq=False)
            for s in (0, 1)
        ]

    def test_engine_emits_accurate_record(self):
        engine = SweepEngine(jobs=1)
        engine.run(self.cells())
        rec = engine.fleet_record(command="unit-test")
        assert rec.command == "unit-test"
        assert rec.policies == ("best",)
        assert rec.workloads == ("mpeg",)
        assert rec.seeds == 2
        assert rec.cells_total == 2
        assert rec.cells_executed == 2
        assert rec.cells_cached == 0
        # The record stamps whatever backend the engine resolved, so the
        # assertion must survive the CI leg that forces the reference
        # kernel via REPRO_FORCE_BACKEND.
        assert rec.backend == resolve_backend()
        assert rec.jobs == 1
        assert rec.wall_s > 0
        assert rec.cells_per_s > 0
        assert len(rec.git_sha) == 40
        assert rec.start_method == ""
        assert rec.python == "{}.{}.{}".format(*sys.version_info)

    def test_pooled_record_stamps_start_method(self):
        with SweepEngine(jobs=2) as engine:
            engine.run(self.cells())
        rec = engine.fleet_record(command="unit-test")
        assert rec.start_method == multiprocessing.get_start_method()
        assert rec.start_method in multiprocessing.get_all_start_methods()
