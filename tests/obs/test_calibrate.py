"""Tests for the host calibration fingerprint."""

import dataclasses
import json

import pytest

from repro.obs.calibrate import (
    CALIBRATION_VERSION,
    DEFAULT_HOST_PATH,
    NOMINAL_PROBE_WALL_S,
    HostCalibration,
    calibrate,
    calibration_path,
    host_score,
    load_calibration,
    save_calibration,
)


def make_calibration(**overrides) -> HostCalibration:
    defaults = dict(
        score=1.25,
        probe_wall_s=NOMINAL_PROBE_WALL_S / 1.25,
        passes=8,
        unix_time=1_786_000_000.0,
        hostname="unit-test",
        machine="Linux x86_64",
        python="3.11.0",
    )
    defaults.update(overrides)
    return HostCalibration(**defaults)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "host.json"
        save_calibration(make_calibration(), path)
        loaded = load_calibration(path)
        assert loaded == make_calibration()
        assert loaded.version == CALIBRATION_VERSION

    def test_creates_parent_directory(self, tmp_path):
        path = tmp_path / "nested" / "host.json"
        save_calibration(make_calibration(), path)
        assert load_calibration(path) is not None

    def test_missing_reads_as_uncalibrated(self, tmp_path):
        assert load_calibration(tmp_path / "absent.json") is None

    def test_damaged_reads_as_uncalibrated(self, tmp_path):
        path = tmp_path / "host.json"
        path.write_text("{not json")
        assert load_calibration(path) is None
        path.write_text("[1, 2, 3]\n")
        assert load_calibration(path) is None

    def test_version_mismatch_reads_as_uncalibrated(self, tmp_path):
        # A changed probe means old scores are not comparable.
        path = tmp_path / "host.json"
        save_calibration(
            dataclasses.replace(
                make_calibration(), version=CALIBRATION_VERSION + 1
            ),
            path,
        )
        assert load_calibration(path) is None

    def test_nonpositive_score_reads_as_uncalibrated(self, tmp_path):
        path = tmp_path / "host.json"
        save_calibration(make_calibration(score=0.0), path)
        assert load_calibration(path) is None

    def test_unknown_fields_ignored(self, tmp_path):
        path = tmp_path / "host.json"
        raw = make_calibration().to_json()
        raw["future_field"] = True
        path.write_text(json.dumps(raw))
        assert load_calibration(path) == make_calibration()


class TestHostScore:
    def test_uncalibrated_scores_zero(self, tmp_path):
        assert host_score(tmp_path / "absent.json") == 0.0

    def test_reads_cached_calibration(self, tmp_path):
        path = tmp_path / "host.json"
        save_calibration(make_calibration(score=2.5), path)
        assert host_score(path) == 2.5

    def test_save_invalidates_memo(self, tmp_path):
        path = tmp_path / "host.json"
        save_calibration(make_calibration(score=1.0), path)
        assert host_score(path) == 1.0
        save_calibration(make_calibration(score=3.0), path)
        assert host_score(path) == 3.0

    def test_env_override(self, tmp_path, monkeypatch):
        path = tmp_path / "ci-host.json"
        save_calibration(make_calibration(score=1.75), path)
        monkeypatch.setenv("REPRO_HOST_CALIBRATION", str(path))
        assert host_score() == 1.75

    def test_calibration_path(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_HOST_CALIBRATION", raising=False)
        assert calibration_path() == DEFAULT_HOST_PATH
        monkeypatch.setenv("REPRO_HOST_CALIBRATION", "")
        assert calibration_path() == DEFAULT_HOST_PATH
        monkeypatch.setenv("REPRO_HOST_CALIBRATION", str(tmp_path / "h.json"))
        assert calibration_path() == tmp_path / "h.json"


class TestCalibrate:
    def test_calibrate_measures_this_host(self):
        cal = calibrate(budget_s=0.05)
        assert cal.score > 0
        assert cal.probe_wall_s > 0
        assert cal.passes >= 2
        assert cal.score == pytest.approx(
            NOMINAL_PROBE_WALL_S / cal.probe_wall_s
        )
        assert cal.version == CALIBRATION_VERSION

    def test_calibrate_is_roughly_plausible(self):
        # The probe must land within two orders of magnitude of nominal
        # on any host able to run the test suite — this guards against
        # the probe workload drifting (e.g. duration changes) without
        # the version being bumped.
        cal = calibrate(budget_s=0.05)
        assert 0.01 < cal.score < 100.0
