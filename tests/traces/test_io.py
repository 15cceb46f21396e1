"""Tests for the quanta CSV export."""

import csv

import pytest

from repro.core.catalog import constant_speed
from repro.measure.runner import run_workload
from repro.traces.io import save_quanta_csv
from repro.workloads.mpeg import MpegConfig, mpeg_workload

FIELDS = ["end_us", "busy_us", "quantum_us", "step_index", "mhz", "volts"]


@pytest.fixture(scope="module")
def short_run():
    res = run_workload(
        mpeg_workload(MpegConfig(duration_s=2.0)),
        lambda: constant_speed(206.4),
        seed=0,
        use_daq=False,
    )
    return res.run


def read_rows(path):
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        return reader.fieldnames, list(reader)


class TestQuantaCsv:
    def test_round_trip(self, short_run, tmp_path):
        path = tmp_path / "quanta.csv"
        save_quanta_csv(path, short_run.quanta)
        header, rows = read_rows(path)
        assert header == FIELDS
        assert len(rows) == len(short_run.quanta)
        for row, q in zip(rows, short_run.quanta):
            # repr-exact floats: every column reads back bitwise
            assert [float(row[name]) for name in FIELDS] == [
                getattr(q, name) for name in FIELDS
            ]
            assert int(row["step_index"]) == q.step_index

    def test_empty_round_trip(self, tmp_path):
        path = tmp_path / "empty.csv"
        save_quanta_csv(path, [])
        assert read_rows(path) == (FIELDS, [])
