"""Tests for the structured JSONL sweep run-log."""

import json
import os
import stat

import pytest

from repro.measure.parallel import (
    PolicySpec,
    ResultCache,
    SweepCell,
    SweepEngine,
    WorkloadSpec,
)
from repro.obs.runlog import (
    RUN_LOG_VERSION,
    RunLogRecord,
    RunLogWriter,
    output_file,
    read_run_log,
    write_atomic,
)
from repro.workloads.mpeg import MpegConfig

MPEG = WorkloadSpec("mpeg", MpegConfig(duration_s=0.3))


def record(**overrides) -> RunLogRecord:
    defaults = dict(
        run_id="abc123",
        policy="best",
        workload="mpeg",
        machine="itsy",
        seed=0,
        duration_us=300000.0,
        energy_j=0.5,
        exact_energy_j=0.5,
        miss_count=0,
        cache="executed",
        wall_s=0.01,
        unix_time=1_700_000_000.0,
    )
    defaults.update(overrides)
    return RunLogRecord(**defaults)


class TestWriter:
    def test_appends_jsonl(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with RunLogWriter(path) as log:
            log.append(record())
            log.append(record(seed=1, cache="hit", wall_s=0.0))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["v"] == RUN_LOG_VERSION
        assert first["policy"] == "best"
        assert json.loads(lines[1])["cache"] == "hit"

    def test_lazy_open(self, tmp_path):
        path = tmp_path / "never.jsonl"
        log = RunLogWriter(path)
        log.close()
        assert not path.exists()

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "dir" / "log.jsonl"
        with RunLogWriter(path) as log:
            log.append(record())
        assert path.exists()

    def test_written_counter(self, tmp_path):
        log = RunLogWriter(tmp_path / "log.jsonl")
        assert log.written == 0
        log.append(record())
        assert log.written == 1
        log.close()


class TestWriteAtomic:
    def test_failed_replace_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            write_atomic(tmp_path / "entry.json", "{}")
        assert os.listdir(tmp_path) == []

    def test_regular_file_in_the_way_fails(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        with pytest.raises(NotADirectoryError, match="blocker/entry.json"):
            write_atomic(blocker / "entry.json", "{}")
        assert os.listdir(tmp_path) == ["blocker"]

    def test_files_take_the_umask_like_every_output(self, tmp_path):
        # A cache shared by several users needs its entries readable by
        # all of them: 0666 less the umask, as for any other output.
        result = SweepCell(workload=MPEG, policy=PolicySpec("best")).run()
        cache = ResultCache(tmp_path / "cache")
        old = os.umask(0o022)
        try:
            atomic = write_atomic(tmp_path / "entry.json", "{}")
            cache.put("k", result)
            plain = output_file(tmp_path / "out.txt")
            plain.write_text("{}")
        finally:
            os.umask(old)
        modes = [
            stat.S_IMODE(os.stat(path).st_mode)
            for path in (atomic, cache.path_for("k"), plain)
        ]
        assert modes == [0o644, 0o644, 0o644]
        assert cache.get("k") == result


class TestReader:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with RunLogWriter(path) as log:
            log.append(record())
        records = read_run_log(path)
        assert len(records) == 1
        assert records[0]["run_id"] == "abc123"

    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"a": 1}\n\n{"b": 2}\n')
        assert len(read_run_log(path)) == 2

    def test_skips_garbage_with_warning(self, tmp_path):
        # A torn trailing line (crash mid-write) must not void the rest
        # of the log: the bad line is skipped and reported, not raised.
        path = tmp_path / "log.jsonl"
        path.write_text('{"a": 1}\nnot json\n{"b": 2}\n')
        records = read_run_log(path)
        assert [r for r in records] == [{"a": 1}, {"b": 2}]
        assert len(records.warnings) == 1
        assert "log.jsonl:2" in records.warnings[0]
        assert "skipped unreadable run-log line" in records.warnings[0]

    def test_skips_non_objects_with_warning(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text("[1, 2]\n")
        records = read_run_log(path)
        assert list(records) == []
        assert len(records.warnings) == 1
        assert "not a JSON object" in records.warnings[0]

    def test_truncated_trailing_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"a": 1}\n{"b": 2, "cache": "exec')
        records = read_run_log(path)
        assert list(records) == [{"a": 1}]
        assert len(records.warnings) == 1

    def test_clean_log_has_no_warnings(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with RunLogWriter(path) as log:
            log.append(record())
        assert read_run_log(path).warnings == ()


class TestEngineIntegration:
    def cells(self):
        return [
            SweepCell(workload=MPEG, policy=PolicySpec("best"), seed=s,
                      use_daq=False)
            for s in (0, 1)
        ]

    def test_one_record_per_unique_cell(self, tmp_path):
        log = RunLogWriter(tmp_path / "log.jsonl")
        engine = SweepEngine(jobs=1, observers=[log])
        results = engine.run(self.cells())
        log.close()
        records = read_run_log(tmp_path / "log.jsonl")
        assert len(records) == 2
        assert all(r["cache"] == "executed" for r in records)
        assert {r["seed"] for r in records} == {0, 1}
        assert records[0]["energy_j"] == results[0].exact_energy_j
        assert all(r["wall_s"] > 0 for r in records)

    def test_warm_cache_logs_hits(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        SweepEngine(jobs=1, cache=cache).run(self.cells())
        log = RunLogWriter(tmp_path / "log.jsonl")
        SweepEngine(jobs=1, cache=cache, observers=[log]).run(self.cells())
        log.close()
        records = read_run_log(tmp_path / "log.jsonl")
        assert len(records) == 2
        assert all(r["cache"] == "hit" for r in records)
        assert all(r["wall_s"] == 0.0 for r in records)

    def test_run_id_is_the_cache_key(self, tmp_path):
        from repro.measure.parallel import cache_key

        log = RunLogWriter(tmp_path / "log.jsonl")
        SweepEngine(jobs=1, observers=[log]).run(self.cells()[:1])
        log.close()
        [rec] = read_run_log(tmp_path / "log.jsonl")
        assert rec["run_id"] == cache_key(self.cells()[0])

    def test_logging_does_not_change_results(self, tmp_path):
        log = RunLogWriter(tmp_path / "log.jsonl")
        logged = SweepEngine(jobs=1, observers=[log]).run(self.cells())
        log.close()
        plain = SweepEngine(jobs=1).run(self.cells())
        assert logged == plain

    def test_worker_attribution_in_process(self, tmp_path):
        # jobs=1 executes in the parent, which is still "a worker" for
        # attribution purposes: its own pid, ordinal 0.
        log = RunLogWriter(tmp_path / "log.jsonl")
        SweepEngine(jobs=1, observers=[log]).run(self.cells())
        log.close()
        records = read_run_log(tmp_path / "log.jsonl")
        assert all(r["worker_pid"] == os.getpid() for r in records)
        assert all(r["worker_ordinal"] == 0 for r in records)
        assert all(r["v"] == RUN_LOG_VERSION for r in records)

    def test_worker_attribution_pool(self, tmp_path):
        log = RunLogWriter(tmp_path / "log.jsonl")
        with SweepEngine(jobs=2, observers=[log]) as engine:
            engine.run(self.cells())
        log.close()
        records = read_run_log(tmp_path / "log.jsonl")
        assert all(isinstance(r["worker_pid"], int) for r in records)
        assert all(r["worker_pid"] != os.getpid() for r in records)
        pids = {r["worker_pid"] for r in records}
        ordinals = {r["worker_ordinal"] for r in records}
        # Ordinals are a stable zero-based relabeling of the pids seen.
        assert len(ordinals) == len(pids)
        assert ordinals <= {0, 1}

    def test_ordinals_do_not_depend_on_the_timeline(self, tmp_path):
        # One pid -> ordinal map serves the run-log and the trace lanes.
        # With or without a timeline, a pooled batch and then a one-cell
        # in-process batch number the pids in order of their first
        # result, and the engine's own process gets an ordinal too.
        from repro.obs.profile import SweepTimeline

        for timeline in (None, SweepTimeline()):
            path = tmp_path / f"log-{timeline is not None}.jsonl"
            log = RunLogWriter(path)
            with SweepEngine(
                jobs=2, timeline=timeline, observers=[log]
            ) as engine:
                engine.run(self.cells())
                engine.run([
                    SweepCell(workload=MPEG, policy=PolicySpec("best"),
                              seed=2, use_daq=False)
                ])
            log.close()
            records = read_run_log(path)
            first_seen = {}
            for r in records:
                first_seen.setdefault(r["worker_pid"], len(first_seen))
            assert [r["worker_ordinal"] for r in records] == [
                first_seen[r["worker_pid"]] for r in records
            ]
            assert os.getpid() not in [r["worker_pid"] for r in records[:2]]
            assert records[-1]["worker_pid"] == os.getpid()
            assert records[-1]["worker_ordinal"] == len(first_seen) - 1

    def test_cache_hits_have_no_worker(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        SweepEngine(jobs=1, cache=cache).run(self.cells())
        log = RunLogWriter(tmp_path / "log.jsonl")
        SweepEngine(jobs=1, cache=cache, observers=[log]).run(self.cells())
        log.close()
        records = read_run_log(tmp_path / "log.jsonl")
        assert all(r["worker_pid"] is None for r in records)
        assert all(r["worker_ordinal"] is None for r in records)
