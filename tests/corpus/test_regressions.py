"""Replay every committed corpus entry as a permanent regression test.

Each ``*.json`` file in this directory is a content-addressed trace
captured from a fuzzed run (see ``repro.traces.corpus``).  Counterexample
traces shrunk by ``repro fuzz --save-failures`` land here too: dropping a
file into this directory is all it takes to pin a bug forever.  Every
entry must load (digest intact), replay bitwise-identically on the
reference and fast-path kernels, and keep a closed energy decomposition.
"""

from pathlib import Path

import pytest

from repro.hw.machines import MachineSpec
from repro.measure.differential import RESIDUAL_TOLERANCE_J, check_scenario
from repro.traces.corpus import load_corpus, load_entry

CORPUS_DIR = Path(__file__).parent
ENTRY_PATHS = sorted(CORPUS_DIR.glob("*.json"))


def entry_ids():
    return [load_entry(p).name for p in ENTRY_PATHS]


def test_corpus_is_not_empty():
    assert ENTRY_PATHS, "the committed regression corpus lost its entries"


def test_load_corpus_collects_every_file():
    loaded = load_corpus(CORPUS_DIR)
    assert [p for p, _ in loaded] == ENTRY_PATHS


@pytest.mark.parametrize("path", ENTRY_PATHS, ids=entry_ids())
def test_entry_replays_bitwise_identically(path):
    outcome = check_scenario(
        load_entry(path), "best", MachineSpec(), check_decomposition=False
    )
    assert outcome.ok, outcome.describe()


@pytest.mark.parametrize("path", ENTRY_PATHS, ids=entry_ids())
def test_entry_energy_decomposition_closes(path):
    outcome = check_scenario(load_entry(path), "best", MachineSpec())
    assert outcome.residual_j is not None, outcome.describe()
    assert outcome.residual_j <= RESIDUAL_TOLERANCE_J, outcome.describe()
