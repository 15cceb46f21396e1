"""Tests for the sweep timeline's phase reduction."""

import pytest

from repro.measure.parallel import (
    CellOutcome,
    PolicySpec,
    ResultCache,
    SweepCell,
    SweepEngine,
    WorkloadSpec,
    _started_in_batch,
)
from repro.obs.profile import (
    LANE_ENGINE,
    PHASE_CACHE,
    PHASE_COMPUTE,
    PHASE_DIAGNOSE,
    PHASE_IPC,
    PHASE_ORDER,
    PHASE_REDUCE,
    PHASE_WORKER_START,
    SweepTimeline,
    format_phase_table,
)
from repro.workloads.mpeg import MpegConfig


def add_group(timeline, stamps):
    """Record ``stamps`` as one pool cell's worker-side stamps."""
    timeline.add_cell("cell", stamps, pid=1, ordinal=0)


class TestAccounting:
    def test_simple_intervals_sum(self):
        timeline = SweepTimeline()
        timeline.add_stage(PHASE_CACHE, 0.0, 1.0)
        timeline.add_stage(PHASE_CACHE, 2.0, 2.5)
        timeline.add_stage(PHASE_IPC, 1.0, 1.25)
        seconds = timeline.phase_seconds()
        assert seconds[PHASE_CACHE] == pytest.approx(1.5)
        assert seconds[PHASE_IPC] == pytest.approx(0.25)

    def test_zero_length_intervals_dropped(self):
        timeline = SweepTimeline()
        timeline.add_stage(PHASE_CACHE, 1.0, 1.0)
        timeline.add_stage(PHASE_CACHE, 2.0, 1.0)
        assert timeline.phase_seconds() == {}

    def test_identical_intervals_do_not_cancel(self):
        # Each phase is charged its own span's length, even where two
        # spans cover the same seconds.
        timeline = SweepTimeline()
        add_group(timeline, [
            (PHASE_COMPUTE, 0.0, 5.0),
            (PHASE_REDUCE, 0.0, 5.0),
        ])
        seconds = timeline.phase_seconds()
        assert seconds[PHASE_COMPUTE] == pytest.approx(5.0)
        assert seconds[PHASE_REDUCE] == pytest.approx(5.0)

    def test_no_cross_group_subtraction(self):
        # Two cells on different workers overlap in wall time: each is
        # charged its full length (worker-seconds, not wall).
        timeline = SweepTimeline()
        add_group(timeline, [(PHASE_COMPUTE, 0.0, 10.0)])
        add_group(timeline, [(PHASE_COMPUTE, 2.0, 8.0)])
        assert timeline.phase_seconds()[PHASE_COMPUTE] == pytest.approx(16.0)

    def test_accounted_is_union_not_sum(self):
        timeline = SweepTimeline()
        add_group(timeline, [(PHASE_COMPUTE, 0.0, 10.0)])
        add_group(timeline, [(PHASE_COMPUTE, 5.0, 15.0)])
        timeline.add_stage(PHASE_IPC, 20.0, 21.0)
        assert timeline.accounted_s() == pytest.approx(16.0)
        assert timeline.coverage(20.0) == pytest.approx(0.8)

    def test_coverage_of_zero_wall(self):
        assert SweepTimeline().coverage(0.0) == 0.0

    def test_rows_follow_canonical_order(self):
        timeline = SweepTimeline()
        timeline.add_stage(PHASE_IPC, 0.0, 1.0)
        timeline.add_stage(PHASE_COMPUTE, 0.0, 2.0)
        lines = timeline.table().splitlines()
        assert lines[1].startswith(PHASE_COMPUTE)
        assert lines[2].startswith(PHASE_IPC)
        assert "66.7%" in lines[1]

    def test_trace_only_spans_stay_out_of_the_phases(self):
        # The cell span and the merge/dedup spans enclose phase stamps;
        # only the stamps themselves are phases.
        timeline = SweepTimeline()
        add_group(timeline, [(PHASE_COMPUTE, 0.0, 1.0), (PHASE_REDUCE, 1.0, 1.5)])
        timeline.add_stage("merge results", 2.0, 3.0)
        timeline.add_stage(PHASE_CACHE, 2.5, 2.75)
        assert set(timeline.phase_seconds()) == {
            PHASE_COMPUTE, PHASE_REDUCE, PHASE_CACHE,
        }
        assert timeline.accounted_s() == pytest.approx(1.75)


class TestTable:
    def test_format_phase_table(self):
        text = format_phase_table(
            {PHASE_COMPUTE: 1.5, PHASE_IPC: 0.5}, wall_s=4.0
        )
        lines = text.splitlines()
        assert "of wall" in lines[0]
        assert lines[1].startswith(PHASE_COMPUTE)
        assert "37.5%" in lines[1]
        assert "total accounted" in lines[-1]
        assert "50.0%" in lines[-1]

    def test_unknown_phase_sorts_last(self):
        text = format_phase_table({"custom phase": 1.0, PHASE_IPC: 1.0})
        lines = text.splitlines()
        assert lines[1].startswith(PHASE_IPC)
        assert lines[2].startswith("custom phase")

    def test_profile_table_matches_format(self):
        timeline = SweepTimeline()
        timeline.add_stage(PHASE_COMPUTE, 0.0, 1.0)
        assert timeline.table(2.0) == format_phase_table(
            timeline.phase_seconds(), wall_s=2.0
        )


class TestWorkerStartClip:
    """A worker's start-up stamp begins at pool creation, but a pool may
    start a worker on demand in a later batch (forkserver, spawn)."""

    def outcome(self, *phases):
        return CellOutcome(result=None, pid=1, phases=phases)

    def test_stamp_reaching_back_before_its_batch_is_clipped(self):
        late = self.outcome(
            (PHASE_WORKER_START, 1.0, 5.0), (PHASE_COMPUTE, 5.0, 6.0)
        )
        assert _started_in_batch(late, 4.0).phases == (
            (PHASE_WORKER_START, 4.0, 5.0), (PHASE_COMPUTE, 5.0, 6.0),
        )

    @pytest.mark.parametrize(
        "phases, batch_start",
        [
            # the batch created the pool
            (((PHASE_WORKER_START, 1.0, 2.0), (PHASE_COMPUTE, 2.0, 3.0)), 0.5),
            # the worker started during an earlier batch
            (((PHASE_WORKER_START, 1.0, 2.0), (PHASE_COMPUTE, 4.0, 5.0)), 3.0),
            # not the worker's first cell
            (((PHASE_COMPUTE, 1.0, 2.0),), 1.5),
        ],
    )
    def test_other_stamps_kept(self, phases, batch_start):
        outcome = self.outcome(*phases)
        assert _started_in_batch(outcome, batch_start) is outcome


class TestEngineIntegration:
    def cells(self, duration_s=20.0, seeds=(0, 1)):
        workload = WorkloadSpec("mpeg", MpegConfig(duration_s=duration_s))
        return [
            SweepCell(workload=workload, policy=PolicySpec(name=policy),
                      seed=seed, use_daq=False)
            for policy in ("best", "past-peg")
            for seed in seeds
        ]

    def test_serial_sweep_coverage_meets_bar(self):
        # The acceptance criterion: on a serial sweep every pipeline
        # stage runs in the engine process, so the recorded intervals
        # must explain >= 95% of the measured wall time.
        timeline = SweepTimeline()
        engine = SweepEngine(jobs=1, timeline=timeline)
        engine.run(self.cells())
        coverage = timeline.coverage(engine.stats.wall_s)
        assert coverage >= 0.95, (
            f"phase profile covers {coverage:.1%} of sweep wall time"
        )
        seconds = timeline.phase_seconds()
        assert seconds[PHASE_COMPUTE] > 0
        assert PHASE_REDUCE in seconds

    def test_profiled_results_bitwise_equal(self):
        cells = self.cells(duration_s=5.0)
        plain = SweepEngine(jobs=1).run(cells)
        profiled = SweepEngine(jobs=1, timeline=SweepTimeline()).run(cells)
        assert [r.to_json() for r in profiled] == [
            r.to_json() for r in plain
        ]

    def test_pooled_sweep_records_pipeline_phases(self):
        timeline = SweepTimeline()
        with SweepEngine(jobs=2, timeline=timeline) as engine:
            engine.run(self.cells(duration_s=5.0))
        seconds = timeline.phase_seconds()
        assert seconds[PHASE_COMPUTE] > 0
        assert seconds[PHASE_IPC] > 0
        assert "pool spin-up" in seconds
        assert "chunk submission" in seconds

    def test_cold_pooled_sweep_coverage_meets_bar(self):
        # A worker's start-up is stamped from the engine's clock at pool
        # creation, so interpreter start and unpickling count under
        # forkserver and spawn as well as fork.  A ratio of wall times,
        # not a speed bar; the cells are Table 2's (60 s MPEG, DAQ on),
        # long enough that the few unstamped milliseconds of batch set-up
        # and first-chunk dispatch stay well under the 5 %.
        cells = [
            SweepCell(workload=WorkloadSpec("mpeg"),
                      policy=PolicySpec(name=policy), seed=seed)
            for policy in ("const-206.4", "best")
            for seed in (0, 1000)
        ]
        timeline = SweepTimeline()
        with SweepEngine(jobs=2, timeline=timeline) as engine:
            engine.run(cells)
        coverage = timeline.coverage(engine.stats.wall_s)
        assert coverage >= 0.95, (
            f"phase profile covers {coverage:.1%} of the cold pooled "
            f"sweep's wall time under {engine.start_method}"
        )

    @staticmethod
    def worker_start_spans(timeline):
        """``worker start`` spans per trace lane, every lane listed."""
        events = timeline.chrome_trace()["traceEvents"]
        spans = {e["tid"]: 0 for e in events if e["ph"] == "M" and "tid" in e}
        for event in events:
            if event["ph"] == "X" and event["name"] == PHASE_WORKER_START:
                spans[event["tid"]] += 1
        return spans

    def test_pooled_sweep_stamps_worker_start_once(self):
        # One start-up per worker per engine, which a warm pool never
        # repeats.  A worker's start-up rides home with its first cell,
        # and which batch that is depends on the pool: under spawn and
        # forkserver one worker may run the whole first batch.  So the
        # lanes are read over both batches.
        timeline = SweepTimeline()
        with SweepEngine(jobs=2, timeline=timeline) as engine:
            engine.run(self.cells(duration_s=1.0))
            after_first = self.worker_start_spans(timeline)
            engine.run(self.cells(duration_s=1.0, seeds=(2, 3)))
            after_both = self.worker_start_spans(timeline)
        workers = {lane: n for lane, n in after_both.items() if lane != LANE_ENGINE}
        assert workers and set(workers.values()) == {1}
        # The engine lane holds the fork parent's import, if any.
        assert after_both[LANE_ENGINE] <= 1
        for lane, spans in after_first.items():
            assert after_both[lane] == spans, f"lane {lane} started twice"
        assert timeline.phase_seconds()[PHASE_WORKER_START] > 0

    def test_in_process_sweep_stamps_its_import_before_the_first_cell(self):
        # The simulator import is the engine's worker start, once, and
        # lands in no cell's kernel compute stamp.
        timeline = SweepTimeline()
        engine = SweepEngine(jobs=1, timeline=timeline)
        engine.run(self.cells(duration_s=1.0, seeds=(0,)))
        engine.run(self.cells(duration_s=1.0, seeds=(1,)))
        spans = [
            e for e in timeline.chrome_trace()["traceEvents"] if e["ph"] == "X"
        ]
        starts = [e for e in spans if e["name"] == PHASE_WORKER_START]
        assert [e["tid"] for e in starts] == [LANE_ENGINE]
        first_compute = min(
            e["ts"] for e in spans if e["name"] == PHASE_COMPUTE
        )
        assert starts[0]["ts"] + starts[0]["dur"] <= first_compute

    def test_cache_phase_recorded(self, tmp_path):
        timeline = SweepTimeline()
        engine = SweepEngine(
            jobs=1, timeline=timeline, cache=ResultCache(tmp_path / "cache")
        )
        cells = self.cells(duration_s=2.0, seeds=(0,))
        engine.run(cells)
        engine.run(cells)  # second pass hits the cache
        assert timeline.phase_seconds()[PHASE_CACHE] > 0
        assert engine.stats.cache_hits == len(cells)

    def test_diagnosed_sweep_stamps_diagnosis(self):
        timeline = SweepTimeline()
        engine = SweepEngine(jobs=1, diagnose=True, timeline=timeline)
        engine.run(self.cells(duration_s=2.0, seeds=(0,)))
        assert timeline.phase_seconds()[PHASE_DIAGNOSE] > 0

    def test_fleet_record_carries_phases(self):
        timeline = SweepTimeline()
        engine = SweepEngine(jobs=1, timeline=timeline)
        engine.run(self.cells(duration_s=2.0, seeds=(0,)))
        record = engine.fleet_record(command="unit-test")
        assert record.phases
        assert dict(record.phases)[PHASE_COMPUTE] == pytest.approx(
            timeline.phase_seconds()[PHASE_COMPUTE]
        )
        # Stored pairs are sorted for a deterministic ledger line.
        assert list(record.phases) == sorted(record.phases)

    def test_no_phase_span_nests_in_another_on_its_lane(self, tmp_path):
        # What lets phase_seconds sum plain span lengths: on a real
        # diagnosed, cached, pooled sweep (a cold batch, then one that
        # half hits the cache) every phase span of a lane starts after
        # the one before it ends, or at least is not inside it.
        timeline = SweepTimeline()
        with SweepEngine(
            jobs=2, diagnose=True, timeline=timeline,
            cache=ResultCache(tmp_path / "cache"),
        ) as engine:
            engine.run(self.cells(duration_s=2.0))
            engine.run(self.cells(duration_s=2.0, seeds=(1, 2)))
        lanes = {}
        for event in timeline.chrome_trace()["traceEvents"]:
            if event["ph"] == "X" and event["name"] in PHASE_ORDER \
                    and event["dur"] > 0:
                lanes.setdefault(event["tid"], []).append(
                    (event["ts"], event["ts"] + event["dur"], event["name"])
                )
        assert len(lanes) >= 2  # the engine lane and a worker lane
        for lane, spans in lanes.items():
            for i, (a0, a1, outer) in enumerate(spans):
                for j, (b0, b1, inner) in enumerate(spans):
                    assert i == j or not (a0 <= b0 and b1 <= a1), (
                        f"lane {lane}: {inner} [{b0}, {b1}] nests in "
                        f"{outer} [{a0}, {a1}] under {engine.start_method}"
                    )

    def test_phase_order_covers_engine_phases(self):
        # Every phase the engine can emit renders in canonical order.
        timeline = SweepTimeline()
        engine = SweepEngine(jobs=2, diagnose=True, timeline=timeline)
        with engine:
            engine.run(self.cells(duration_s=2.0))
        for phase in timeline.phase_seconds():
            assert phase in PHASE_ORDER
