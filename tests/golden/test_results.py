"""The committed results ledger still holds.

Every other equivalence suite compares two paths within one commit:
kernel against kernel, serial against pooled, plain against diagnosed.
These tests compare each pinned cell with the numbers
``tests/golden/results.json`` recorded, so a change that moves both
kernels' arithmetic the same way fails here.  ``tests/golden/ledger.py``
defines the cells and regenerates the file; a change that moves a digest
on purpose names the cells and the reason in CHANGES.md.
"""

import numpy
import pytest

from tests.golden import ledger

PINNED = ledger.load_ledger()


@pytest.fixture(scope="module")
def table2():
    return ledger.table2_group()


@pytest.fixture(scope="module")
def diagnosed():
    return ledger.diagnosed_group()


def moved_cells(computed, pinned):
    """``label: pinned -> computed`` for every cell that differs."""
    labels = sorted(set(computed) | set(pinned))
    return [
        f"{label}: {pinned.get(label)} -> {computed.get(label)}"
        for label in labels
        if computed.get(label) != pinned.get(label)
    ]


@pytest.mark.parametrize("group", ["table2", "diagnosed", "grid", "fuzz"])
def test_cells_match_the_ledger(group, request):
    if group in ("table2", "diagnosed"):
        computed, _ = request.getfixturevalue(group)
    else:
        computed = getattr(ledger, f"{group}_group")()
    moved = moved_cells(computed, PINNED["cells"][group])
    assert not moved, f"{len(moved)} {group} cells moved:\n" + "\n".join(moved)


def test_diagnose_file_matches_the_ledger(tmp_path):
    for command in ledger.DIAGNOSE_COMMANDS:
        code, digest = ledger.command_file_digest(command, tmp_path)
        assert {"exit": code, "sha256": digest} == (
            PINNED["files"]["diagnose"][command]
        ), command


def test_daq_sampled_fields_match_the_ledger(table2, diagnosed):
    daq = PINNED["daq"]
    moved = moved_cells(table2[1], daq["cells"]["table2"]) + moved_cells(
        diagnosed[1], daq["cells"]["diagnosed"]
    )
    if moved and numpy.__version__ != daq["numpy"]:
        pytest.skip(
            f"DAQ noise recorded under numpy {daq['numpy']}, drawn here "
            f"under {numpy.__version__}: an environment change "
            f"({len(moved)} cells moved)"
        )
    assert not moved, f"{len(moved)} DAQ-sampled cells moved:\n" + "\n".join(moved)
