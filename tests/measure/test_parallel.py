"""Determinism regression tests for the parallel sweep engine.

The engine's contract is that parallelism and caching are pure plumbing:
the numbers a sweep produces are bitwise-identical whether cells run
serially in-process, fanned out over a process pool, or answered from a
warm on-disk cache.  These tests pin that contract with the acceptance
grid (3 policies x 2 workloads x 3 seeds, jobs=4).
"""

import dataclasses
import os
import signal
import threading

import pytest

from repro.core.catalog import resolve_policy
from repro.hw.machines import MachineSpec
from repro.kernel.config import KernelConfig
from repro.kernel.governor import ConstantGovernor
from repro.measure import runner
from repro.measure.parallel import (
    CellResult,
    PolicySpec,
    ResultCache,
    SweepCell,
    SweepCellError,
    SweepEngine,
    WorkloadSpec,
    _execute_cell,
    cache_key,
    constant_step_cells,
    find_ideal_constant,
    repeat_workload,
)
from repro.measure.stats import confidence_interval
from repro.obs.profile import SweepObserver
from repro.workloads.mpeg import MpegConfig, mpeg_workload
from repro.workloads.web import WebConfig

MPEG = WorkloadSpec("mpeg", MpegConfig(duration_s=0.4))
WEB = WorkloadSpec("web", WebConfig(duration_s=0.4))
SA2 = MachineSpec(name="sa2")

#: The acceptance grid: 3 policies x 2 workloads x 3 seeds = 18 cells.
GRID = [
    SweepCell(workload=workload, policy=PolicySpec(policy), seed=seed,
              use_daq=False)
    for policy in ("best", "avg3-peg", "const-132.7")
    for workload in (MPEG, WEB)
    for seed in (0, 1, 2)
]


def cell(seed: int = 0, **overrides) -> SweepCell:
    defaults = dict(workload=MPEG, policy=PolicySpec("best"), seed=seed)
    defaults.update(overrides)
    return SweepCell(**defaults)


class TestSerialDeterminism:
    def test_two_serial_runs_identical(self):
        first, second = cell().run(), cell().run()
        assert first.energy_j == second.energy_j
        assert first.exact_energy_j == second.exact_energy_j
        assert first.miss_count == second.miss_count
        assert first == second

    def test_cell_matches_plain_runner(self):
        summary = cell(seed=3).run()
        ref = runner.run_workload(
            mpeg_workload(MpegConfig(duration_s=0.4)),
            resolve_policy("best"),
            seed=3,
        )
        assert summary.energy_j == ref.energy_j
        assert summary.exact_energy_j == ref.exact_energy_j
        assert summary.miss_count == len(ref.misses)


class TestSerialVsParallel:
    def test_grid_bitwise_equal(self):
        serial = SweepEngine(jobs=1).run(GRID)
        parallel = SweepEngine(jobs=4).run(GRID)
        assert len(serial) == 18
        # Dataclass equality compares every float field exactly.
        assert serial == parallel

    def test_results_follow_input_order(self):
        cells = [cell(seed=s) for s in (5, 1, 3)]
        results = SweepEngine(jobs=3).run(cells)
        reference = [c.run() for c in cells]
        assert results == reference


class TestCacheDeterminism:
    def test_cold_vs_warm_bitwise_equal(self, tmp_path):
        serial = SweepEngine().run(GRID)
        cold = SweepEngine(jobs=4, cache=ResultCache(tmp_path))
        assert cold.run(GRID) == serial
        assert cold.stats.executed == 18
        assert cold.stats.cache_hits == 0

        warm = SweepEngine(jobs=4, cache=ResultCache(tmp_path))
        assert warm.run(GRID) == serial
        assert warm.stats.executed == 0, "warm re-run must execute nothing"
        assert warm.stats.cache_hits == 18

    def test_warm_serial_engine_also_free(self, tmp_path):
        cache = ResultCache(tmp_path)
        SweepEngine(cache=cache).run([cell()])
        warm = SweepEngine(cache=cache)
        assert warm.run([cell()]) == [cell().run()]
        assert warm.stats.executed == 0

    def test_duplicate_cells_simulated_once(self):
        engine = SweepEngine()
        results = engine.run([cell(), cell()])
        assert engine.stats.executed == 1
        assert results[0] == results[1]


class TestSpecHelpers:
    def test_repeat_workload_matches_serial_harness(self):
        summary = repeat_workload(MPEG, PolicySpec("const-206.4"), runs=3)
        # The serial reference: run i at seed 1000 * i, then the CI.
        ref = [
            runner.run_workload(
                mpeg_workload(MpegConfig(duration_s=0.4)),
                resolve_policy("const-206.4"),
                seed=1000 * i,
            )
            for i in range(3)
        ]
        assert [r.energy_j for r in summary.results] == [
            r.energy_j for r in ref
        ]
        assert summary.energy_ci == confidence_interval(
            [r.energy_j for r in ref]
        )
        assert summary.total_misses == sum(len(r.misses) for r in ref)

    def test_find_ideal_constant_matches_serial_harness(self):
        mpeg_1s = WorkloadSpec("mpeg", MpegConfig(duration_s=1.0))
        summary = find_ideal_constant(mpeg_1s, seed=1, engine=SweepEngine(jobs=4))
        # The serial reference: the cheapest miss-free constant step over
        # the clock table (min keeps the first of equals, in table order).
        runs = [
            runner.run_workload(
                mpeg_workload(MpegConfig(duration_s=1.0)),
                lambda s=step: ConstantGovernor(step_index=s.index),
                seed=1,
                use_daq=False,
            )
            for step in MachineSpec().clock_table()
        ]
        ref = min(
            (r for r in runs if not r.missed), key=lambda r: r.exact_energy_j
        )
        assert summary.final_mhz == ref.run.quanta[-1].mhz
        assert summary.exact_energy_j == ref.exact_energy_j

    def test_kernel_config_flows_into_cells(self):
        tweaked = KernelConfig(sched_overhead_us=0.0)
        base = cell(use_daq=False).run()
        other = cell(use_daq=False, kernel_config=tweaked).run()
        assert base.exact_energy_j != other.exact_energy_j


class TestMachineAxis:
    def test_sa2_serial_parallel_cached_bitwise_equal(self, tmp_path):
        cells = [
            cell(seed=s, machine=SA2, policy=PolicySpec("past-peg-98-93"),
                 use_daq=False)
            for s in (0, 1)
        ]
        serial = [c.run() for c in cells]
        assert SweepEngine(jobs=2).run(cells) == serial
        cache = ResultCache(tmp_path)
        assert SweepEngine(jobs=2, cache=cache).run(cells) == serial
        warm = SweepEngine(cache=cache)
        assert warm.run(cells) == serial
        assert warm.stats.executed == 0
        assert warm.stats.cache_hits == 2

    def test_sa2_cells_resolve_const_against_sa2_table(self):
        cells = constant_step_cells(MPEG, machine=SA2)
        assert len(cells) == 11
        assert cells[0].policy.name == "const-150.0"
        assert cells[-1].policy.name == "const-600.0"

    def test_sa2_find_ideal_constant_caches(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = SweepEngine(jobs=4, cache=cache)
        first = find_ideal_constant(MPEG, machine=SA2, engine=cold)
        assert cold.stats.executed == 11
        warm = SweepEngine(cache=cache)
        again = find_ideal_constant(MPEG, machine=SA2, engine=warm)
        assert warm.stats.cache_hits == 11
        assert warm.stats.executed == 0
        assert again == first

    def test_machine_axis_multiplies_grid(self):
        engine = SweepEngine()
        results = engine.run(
            [cell(machine=machine, use_daq=False) for machine in (MachineSpec(), SA2)]
        )
        assert len(results) == 2 and results[0] != results[1]
        assert engine.fleet_record().machines == ("itsy", "sa2")


class TestRecordingModes:
    def test_minimal_cell_result_bitwise_equals_full(self):
        base = dict(workload=MPEG, policy=PolicySpec("best"), use_daq=False)
        full = SweepCell(recording="full", **base).run()
        minimal = SweepCell(recording="minimal", **base).run()
        assert minimal == full

    def test_minimal_on_sa2_bitwise_equals_full(self):
        base = dict(
            workload=MPEG, policy=PolicySpec("avg3-peg"),
            machine=SA2, use_daq=False,
        )
        assert (
            SweepCell(recording="minimal", **base).run()
            == SweepCell(recording="full", **base).run()
        )

    def test_daq_requires_full_recording(self):
        with pytest.raises(ValueError, match="use_daq=False"):
            cell(recording="minimal").run()  # use_daq defaults True

    def test_unknown_recording_mode_named(self):
        with pytest.raises(ValueError, match="unknown recording mode 'verbose'"):
            cell(recording="verbose").run()  # use_daq defaults True

    def test_constant_step_cells_default_minimal(self):
        assert all(c.recording == "minimal" for c in constant_step_cells(MPEG))


class TestDiagnosedCellReadsRows:
    """A diagnosis reads the kernel's quantum rows, never the record view."""

    @pytest.mark.parametrize(
        "policy", ["best-voltage", "const-59.0"],
        ids=["sag-windows", "miss-attributions"],
    )
    def test_diagnosed_cell_builds_no_quantum_record(self, monkeypatch, policy):
        import repro.kernel.recorders as recorders
        from repro.obs.diagnose import PolicyDiagnosis, diagnose

        diagnosed = cell(
            workload=WorkloadSpec("mpeg", MpegConfig(duration_s=2.0)),
            policy=PolicySpec(policy), use_daq=False,
        )
        # The reference diagnosis reads run.quanta first.
        experiment = dataclasses.replace(diagnosed, recording="full").execute()
        assert len(experiment.run.quanta) == 200
        reference = diagnose(
            experiment, policy=policy, workload="mpeg",
            machine=diagnosed.machine, machine_label=diagnosed.machine.label,
            seed=diagnosed.seed,
        )

        class QuantumLogBuilt(Exception):
            pass

        def fail(*args):
            raise QuantumLogBuilt

        monkeypatch.setattr(recorders, "quantum_records", fail)
        # The patch reaches the view: reading run.quanta now fails.
        with pytest.raises(QuantumLogBuilt):
            dataclasses.replace(diagnosed, recording="full").execute().run.quanta
        got = _execute_cell(diagnosed, True).diagnosis
        for f in dataclasses.fields(PolicyDiagnosis):
            assert getattr(got, f.name) == getattr(reference, f.name), f.name
        assert got.energy.sag_j > 0 or got.miss_attributions


class TestPoolDispatch:
    def test_one_submission_per_cell_in_batch_order(self, monkeypatch):
        cells = [cell(seed=s, use_daq=False) for s in range(5)]
        with SweepEngine(jobs=2) as engine:
            engine.run(cells[:2])  # starts the warm pool
            submitted = []
            submit = engine._pool.submit

            def recording_submit(fn, *args):
                submitted.append(args)
                return submit(fn, *args)

            monkeypatch.setattr(engine._pool, "submit", recording_submit)
            results = engine.run(cells)
        assert [args[0] for args in submitted] == cells
        assert [args[2] for args in submitted] == list(range(len(cells)))
        assert results == SweepEngine().run(cells)


class KillFirstStart(SweepObserver):
    """Once armed, sends SIGKILL to the pool worker that runs the first
    cell to start; remembers every worker pid that starts a cell."""

    def __init__(self):
        self.armed = False
        self.killed = None
        self.starts = []

    def on_heartbeat(self, done, pid, cell_id, t, label):
        if done:
            return
        self.starts.append(pid)
        if self.armed and pid != os.getpid():
            self.armed = False
            self.killed = pid
            os.kill(pid, signal.SIGKILL)


def run_within(engine, cells, timeout_s=120.0):
    """``engine.run(cells)`` on a thread, joined with a timeout: the
    results, or the exception the batch ended with."""
    ended = {}

    def target():
        try:
            ended["results"] = engine.run(cells)
        except Exception as exc:
            ended["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout_s)
    assert not thread.is_alive(), f"batch still running after {timeout_s} s"
    if "error" in ended:
        raise ended["error"]
    return ended["results"]


class TestWorkerKilledMidBatch:
    def test_batch_fails_whole_and_the_next_runs_on_a_fresh_pool(self, tmp_path):
        from concurrent.futures.process import BrokenProcessPool

        from repro.obs.runlog import RunLogWriter, read_run_log

        long_mpeg = WorkloadSpec("mpeg", MpegConfig(duration_s=10.0))
        warm = [cell(seed=s, use_daq=False) for s in (0, 1)]
        batch = [cell(workload=long_mpeg, seed=s, use_daq=False) for s in range(8)]
        after = [cell(seed=s, use_daq=False) for s in (2, 3, 4)]
        killer = KillFirstStart()
        run_log = RunLogWriter(tmp_path / "runs.jsonl")
        with SweepEngine(jobs=2, observers=[killer, run_log]) as engine:
            run_within(engine, warm)
            first_pool = engine._pool
            killer.armed = True
            with pytest.raises(SweepCellError) as excinfo:
                run_within(engine, batch)
            assert killer.killed is not None
            assert isinstance(excinfo.value.__cause__, BrokenProcessPool)
            assert engine._pool is None

            logged = read_run_log(run_log.path)
            assert logged.warnings == ()
            served = [r["run_id"] for r in logged[len(warm):]]
            assert served == [cache_key(c) for c in batch[: len(served)]]
            assert excinfo.value.cell == batch[len(served)]

            starts_before = len(killer.starts)
            results = run_within(engine, after)
            assert engine._pool is not None and engine._pool is not first_pool
            assert killer.killed not in killer.starts[starts_before:]
        assert results == SweepEngine().run(after)
        assert [r["run_id"] for r in read_run_log(run_log.path)[-3:]] == [
            cache_key(c) for c in after
        ]


class TestEngineValidation:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            SweepEngine(jobs=0)

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec("quake").build()

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            cell(policy=PolicySpec("ondemand")).run()

    def test_config_type_checked(self):
        with pytest.raises(TypeError):
            WorkloadSpec("mpeg", WebConfig()).build()


class TestSweepCellError:
    def test_pool_failure_names_the_cell(self):
        cells = [cell(), cell(policy=PolicySpec("ondemand"), seed=1)]
        with pytest.raises(SweepCellError) as excinfo:
            SweepEngine(jobs=2).run(cells)
        err = excinfo.value
        assert err.cell.policy.name == "ondemand"
        assert "policy=ondemand" in str(err)
        assert "workload=mpeg" in str(err)
        assert "seed=1" in str(err)
        assert isinstance(err.__cause__, ValueError)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_batch_names_the_cell_and_closes_the_logs(
        self, tmp_path, jobs
    ):
        # The same SweepCellError at every jobs, and leaving the engine's
        # with block closes its logs with every line served before the
        # failure intact.  const-132.7 is not an sa2 clock step.  The
        # cells ahead of it in batch order (both seeds' oracle searches,
        # then good[0]) are served before the error: good[0] is
        # diagnosed again.
        from repro.obs.diagnose import read_diagnoses
        from repro.obs.runlog import (
            DiagnosisWriter, RunLogWriter, read_run_log,
        )

        run_log = RunLogWriter(tmp_path / "runs.jsonl")
        diagnoses = DiagnosisWriter(tmp_path / "diag.jsonl")
        good = [cell(machine=SA2, use_daq=False, seed=s) for s in (0, 1)]
        bad = cell(policy=PolicySpec("const-132.7"), machine=SA2,
                   use_daq=False, seed=2)
        with pytest.raises(SweepCellError) as excinfo:
            with SweepEngine(
                jobs=jobs, diagnose=True, observers=[run_log, diagnoses]
            ) as engine:
                engine.run(good)
                served = read_run_log(run_log.path)
                first = read_diagnoses(diagnoses.path)
                engine.run([*good[:1], bad])
        err = excinfo.value
        assert err.cell == bad
        assert isinstance(err.__cause__, ValueError)
        assert "policy=const-132.7" in str(err)
        assert run_log._handle is None and diagnoses._handle is None
        logged = read_run_log(run_log.path)
        assert logged.warnings == ()
        assert logged[: len(served)] == served
        assert "const-132.7" not in {r["policy"] for r in logged}
        assert read_diagnoses(diagnoses.path) == [*first, first[0]]
        assert [d.policy for d in first] == ["best", "best"]
        assert (logged[-1]["policy"], logged[-1]["seed"]) == ("best", 0)


class TestSweepObservability:
    def test_stats_time_the_run(self):
        engine = SweepEngine(jobs=1)
        engine.run([cell()])
        assert engine.stats.executed == 1
        assert engine.stats.wall_s > 0
        assert engine.stats.summary().startswith("sweep: 1 simulated, 0 cached")


class TestSweepTelemetry:
    """The timeline and the progress display must observe without
    perturbing."""

    def engine_with_telemetry(self, jobs: int):
        from repro.obs.profile import SweepTimeline
        from repro.obs.telemetry import ProgressDisplay

        return SweepEngine(
            jobs=jobs,
            timeline=SweepTimeline(),
            observers=[ProgressDisplay()],
        )

    def test_instrumented_grid_bitwise_equal(self):
        plain = SweepEngine(jobs=2).run(GRID)
        with self.engine_with_telemetry(jobs=2) as engine:
            instrumented = engine.run(GRID)
        assert instrumented == plain

    def test_trace_has_one_lane_per_worker(self):
        from repro.obs.trace import validate_chrome_trace

        with self.engine_with_telemetry(jobs=2) as engine:
            engine.run([cell(seed=s) for s in range(4)])
            payload = engine.timeline.chrome_trace()
        validate_chrome_trace(payload)
        events = payload["traceEvents"]
        names = {e["name"] for e in events}
        assert {"pool spin-up", "merge results", "result IPC"} <= names
        # One per-cell span per executed cell, on a worker lane, around
        # its kernel-compute stamp; and one lane per worker pid that ran
        # a cell.  Whether both workers get a cell depends on how fast
        # they start (start method, host load), which the engine does
        # not promise.
        cell_spans = [
            e for e in events if e["ph"] == "X" and e["name"] == "best/mpeg"
        ]
        computes = [
            e for e in events if e["ph"] == "X" and e["name"] == "kernel compute"
        ]
        assert len(cell_spans) == len(computes) == 4
        lanes = {
            e["tid"]: e["args"]["name"] for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        workers = {tid for tid in lanes if tid > 0}
        assert 1 <= len(workers) <= engine.jobs
        assert payload["otherData"]["workers"] == len(workers)
        assert {e["tid"] for e in cell_spans} == workers
        assert {e["tid"] for e in computes} == workers
        assert all(f"pid {os.getpid()})" not in lanes[tid] for tid in workers)

    def test_serial_engine_uses_engine_lane(self):
        with self.engine_with_telemetry(jobs=1) as engine:
            engine.run([cell()])
            payload = engine.timeline.chrome_trace()
        [span] = [
            e for e in payload["traceEvents"]
            if e["ph"] == "X" and e["name"] == "best/mpeg"
        ]
        assert span["tid"] == 0
        assert payload["otherData"]["workers"] == 0

    def test_cache_hits_become_instants(self, tmp_path):
        from repro.obs.profile import SweepTimeline

        cache = ResultCache(tmp_path)
        SweepEngine(jobs=1, cache=cache).run([cell()])
        timeline = SweepTimeline()
        SweepEngine(jobs=1, cache=cache, timeline=timeline).run([cell()])
        instants = [
            e for e in timeline.chrome_trace()["traceEvents"]
            if e["ph"] == "i"
        ]
        assert len(instants) == 1
        assert instants[0]["name"] == "cache hit"

    def test_progress_counts_pool_cells(self):
        # Every batch is counted exactly when it ends, in-process and
        # pooled, four workers sharing the heartbeat channel included: a
        # pool worker's heartbeats reach the pipe before its chunk's
        # result, and the pump reads up to the sentinel the engine
        # writes after the batch's last result.
        for jobs in (1, 2, 4):
            with self.engine_with_telemetry(jobs=jobs) as engine:
                [display] = engine.observers
                for batch in range(1, 6):
                    engine.run([cell(seed=100 * batch + s) for s in range(4)])
                    executed = display.done - display.cached
                    assert (display.total, display.done, executed) == (
                        4 * batch, 4 * batch, 4 * batch,
                    ), f"jobs={jobs} batch {batch} ({engine.start_method})"
                    assert display.cached == 0
                    assert display.in_flight == 0

    def test_progress_counts_cached_cells(self, tmp_path):
        from repro.obs.telemetry import ProgressDisplay

        cache = ResultCache(tmp_path)
        SweepEngine(jobs=1, cache=cache).run([cell(), cell(seed=1)])
        display = ProgressDisplay()
        engine = SweepEngine(jobs=1, cache=cache, observers=[display])
        engine.run([cell(), cell(seed=1)])
        assert display.cached == 2
        assert display.cached == display.done

    def test_fleet_record_counts(self, tmp_path):
        cache = ResultCache(tmp_path)
        engine = SweepEngine(jobs=1, cache=cache)
        engine.run([cell(), cell(seed=1)])
        engine.run([cell(), cell(seed=2)])
        rec = engine.fleet_record(command="test")
        assert rec.cells_total == 4
        assert rec.cells_executed == 3
        assert rec.cells_cached == 1
        assert rec.policies == ("best",)
        assert rec.seeds == 3


class TestCellResultRoundTrip:
    def test_json_round_trip_is_exact(self):
        result = cell().run()
        assert CellResult.from_json(result.to_json()) == result

    def test_parameterized_policy_spec_builds(self):
        governor = PolicySpec("avg3-peg-70-50").build_factory()()
        assert governor.predictor.n == 3
        assert governor.thresholds.high == 0.70
