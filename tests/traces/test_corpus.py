"""Tests for the content-addressed trace corpus."""

import json

import pytest

from repro.core.catalog import resolve_policy
from repro.measure.runner import run_workload
from repro.traces.corpus import (
    CorpusEntry,
    entry_digest,
    entry_from_run,
    load_corpus,
    load_entry,
    save_entry,
)
from repro.workloads.fuzz import FuzzSpec, fuzz_workload
from repro.workloads.replay import ReplayMode

QUANTA = ((5000.0, 206.4, 10000.0), (2500.0, 132.7, 10000.0))


@pytest.fixture(scope="module")
def fuzz_entry():
    """A corpus entry captured from a real fuzzed run."""
    res = run_workload(
        fuzz_workload(FuzzSpec(seed=6, duration_s=0.5)),
        resolve_policy("best"),
        use_daq=False,
    )
    return entry_from_run(
        "fuzz-6-best", res.run,
        provenance=(("policy", "best"), ("machine", "itsy")),
    )


class TestEntryValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no quanta"):
            CorpusEntry(name="empty")

    def test_nonpositive_quantum_rejected(self):
        with pytest.raises(ValueError, match="non-positive length"):
            CorpusEntry(name="bad", quanta=((100.0, 206.4, 0.0),))

    def test_busy_beyond_quantum_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            CorpusEntry(name="bad", quanta=((20000.0, 206.4, 10000.0),))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            CorpusEntry(name="bad", mode="speed", quanta=QUANTA)


class TestDigest:
    def test_stable_for_equal_content(self):
        a = CorpusEntry(name="a", quanta=QUANTA)
        b = CorpusEntry(name="a", quanta=QUANTA)
        assert entry_digest(a) == entry_digest(b)

    def test_name_and_provenance_are_metadata(self):
        a = CorpusEntry(name="a", quanta=QUANTA)
        b = CorpusEntry(name="b", quanta=QUANTA,
                        provenance=(("policy", "best"),))
        assert entry_digest(a) == entry_digest(b)

    def test_content_moves_the_address(self):
        base = CorpusEntry(name="a", quanta=QUANTA)
        tweaked = CorpusEntry(
            name="a", quanta=((5000.0, 206.4, 10000.0), (2500.1, 132.7, 10000.0))
        )
        assert entry_digest(base) != entry_digest(tweaked)
        assert entry_digest(base) != entry_digest(
            CorpusEntry(name="a", mode="time", quanta=QUANTA)
        )


class TestRoundTrip:
    def test_save_load_identical(self, tmp_path, fuzz_entry):
        path = save_entry(tmp_path, fuzz_entry)
        assert path.name == f"{entry_digest(fuzz_entry)}.json"
        assert load_entry(path) == fuzz_entry

    def test_floats_survive_exactly(self, tmp_path, fuzz_entry):
        path = save_entry(tmp_path, fuzz_entry)
        assert load_entry(path).quanta == fuzz_entry.quanta

    def test_rewrite_is_idempotent(self, tmp_path, fuzz_entry):
        assert save_entry(tmp_path, fuzz_entry) == save_entry(tmp_path, fuzz_entry)
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_load_corpus_sorted_and_complete(self, tmp_path):
        entries = [
            CorpusEntry(name=f"t{i}", quanta=((float(i * 100), 206.4, 10000.0),))
            for i in range(1, 4)
        ]
        for entry in entries:
            save_entry(tmp_path, entry)
        loaded = load_corpus(tmp_path)
        assert len(loaded) == 3
        assert [p.name for p, _ in loaded] == sorted(p.name for p, _ in loaded)
        assert {e.name for _, e in loaded} == {"t1", "t2", "t3"}

    def test_missing_directory_is_empty_corpus(self, tmp_path):
        assert load_corpus(tmp_path / "absent") == []


class TestLoadValidation:
    def test_tampered_content_detected(self, tmp_path, fuzz_entry):
        path = save_entry(tmp_path, fuzz_entry)
        payload = json.loads(path.read_text())
        payload["quanta"][0][0] -= 1.0  # still in range: digest must catch it
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="digest mismatch"):
            load_entry(path)

    def test_invalid_tampered_quanta_also_rejected(self, tmp_path, fuzz_entry):
        path = save_entry(tmp_path, fuzz_entry)
        payload = json.loads(path.read_text())
        payload["quanta"][0][0] = payload["quanta"][0][2] + 1.0
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="outside"):
            load_entry(path)

    def test_unknown_schema_rejected(self, tmp_path, fuzz_entry):
        path = save_entry(tmp_path, fuzz_entry)
        payload = json.loads(path.read_text())
        payload["schema"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="schema"):
            load_entry(path)

    def test_unreadable_file_named_in_error(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="junk.json"):
            load_entry(path)

    def test_missing_field_rejected(self, tmp_path, fuzz_entry):
        path = save_entry(tmp_path, fuzz_entry)
        payload = json.loads(path.read_text())
        del payload["quanta"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="malformed"):
            load_entry(path)


class TestReplayIntegration:
    def test_entry_replays_bitwise_stable(self, tmp_path, fuzz_entry):
        path = save_entry(tmp_path, fuzz_entry)
        loaded = load_entry(path)
        gov = resolve_policy("best")
        ref = run_workload(
            loaded.workload(), gov, use_daq=False, backend="reference"
        )
        fast = run_workload(
            loaded.workload(), gov, use_daq=False, backend="fastpath"
        )
        again = run_workload(
            load_entry(path).workload(), gov, use_daq=False,
            backend="reference",
        )
        assert fast.exact_energy_j == ref.exact_energy_j
        assert fast.run.quanta == ref.run.quanta
        assert again.exact_energy_j == ref.exact_energy_j

    def test_round_trip_preserves_digest_through_run(self, tmp_path, fuzz_entry):
        # save -> load -> replay -> re-capture: the replayed trace on the
        # same machine is itself a valid corpus entry.
        path = save_entry(tmp_path, fuzz_entry)
        loaded = load_entry(path)
        res = run_workload(loaded.workload(), resolve_policy("best"), use_daq=False)
        recaptured = entry_from_run(
            "recaptured", res.run, mode=ReplayMode(loaded.mode)
        )
        save_entry(tmp_path, recaptured)
        assert load_entry(
            tmp_path / f"{entry_digest(recaptured)}.json"
        ) == recaptured


class TestLazyReExports:
    """The import-cycle guard: ``repro.traces`` and ``repro.kernel``
    import each other's modules."""

    def test_kernel_first_import_order(self):
        # Importing the kernel first imports repro.traces.schema while
        # repro.kernel.scheduler is still partially initialized; the
        # corpus names must still import afterwards.  Run in a fresh
        # interpreter so this process's import state cannot mask it.
        import subprocess
        import sys

        code = (
            "import repro.kernel.scheduler\n"
            "from repro.traces.corpus import CorpusEntry, entry_digest\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
