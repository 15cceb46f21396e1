"""The committed results ledger: what it covers and how it is computed.

``tests/golden/results.json`` pins every simulated number of a fixed set
of cells across commits.  Each cell is stored as the SHA-256 of its
key-sorted :meth:`~repro.measure.parallel.CellResult.to_json` (JSON
writes floats exactly, so one changed bit moves the digest), with
``exact_energy_j`` in clear so a failure says what moved.  Cells:

- ``table2``: the 15 Table 2 cells (five policies x three seeds of 60 s
  MPEG, DAQ on), run on a two-worker pool;
- ``diagnosed``: one diagnosed 60 s MPEG cell, with its diagnosis;
- ``grid``: 8 catalog policies x the four workloads x five machines at
  2 s, DAQ off; a cell whose configuration the machine rejects is
  recorded by its error's type and message instead;
- ``fuzz``: one fixed ``repro fuzz`` campaign; each run's verdict must
  be ok, and its reference-kernel result is pinned.

``files`` pins the ``diagnose -o`` and ``trace -o`` output files of
fixed commands.

DAQ-sampled fields (``energy_j`` and ``mean_power_w`` of a cell measured
through the DAQ) stay out of the cell digests.  Their noise comes from
numpy's ``Generator.normal``, which numpy does not promise to keep
across releases, so they sit in the ``daq`` group with the numpy
version that recorded them: a change there under another numpy is an
environment change, not a code change.

The rule: a change that moves a digest regenerates the ledger and names
the cells and the reason in CHANGES.md.  Regenerate with::

    PYTHONPATH=src python tests/golden/ledger.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Tuple

LEDGER_PATH = Path(__file__).resolve().parent / "results.json"

#: CellResult fields a DAQ-measured cell samples through the DAQ.
DAQ_FIELDS = ("energy_j", "mean_power_w")

GRID_POLICIES = (
    "best", "best-voltage", "avg3-one", "avg9-peg", "past-double",
    "const-132.7", "cycleavg", "synth",
)
GRID_WORKLOADS = ("mpeg", "web", "chess", "editor")
GRID_MACHINES = ("itsy", "itsy-stock", "sa2", "itsy@1.23", "itsy-reconf")
GRID_DURATION_S = 2.0

#: The fixed fuzz campaign: ``repro fuzz --seed 2026`` with its default
#: count, duration, machines and policy.
FUZZ_COUNT = 25
FUZZ_SEED = 2026
FUZZ_DURATION_S = 1.0
FUZZ_MACHINES = ("itsy", "itsy-reconf")

#: ``repro diagnose`` and ``repro trace`` commands whose ``-o`` files
#: are pinned, with their exit codes.  The trace files come out the same
#: on both backends: clock-change stalls (best), rail sags (avg3-one on
#: sa2-reconf) and deadline-miss instants (const-59.0);
#: ``tests/test_cli.py`` checks them on both.
DIAGNOSE_COMMANDS = ("diagnose avg3-one mpeg --duration 5",)
TRACE_COMMANDS = (
    "trace mpeg --policy best --duration 2",
    "trace mpeg --policy avg3-one --machine sa2-reconf --duration 5",
    "trace mpeg --policy const-59.0 --duration 2",
)


def sha256_json(payload: object) -> str:
    """SHA-256 of the key-sorted JSON of ``payload``."""
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def cell_entry(result, drop=()) -> dict:
    """A result's entry: the digest of its key-sorted JSON without the
    ``drop`` fields, and its exact energy in clear."""
    payload = result.to_json()
    for name in drop:
        del payload[name]
    return {"sha256": sha256_json(payload),
            "exact_energy_j": result.exact_energy_j}


def cell_label(cell) -> str:
    return (f"{cell.policy.label} {cell.workload.name} "
            f"{cell.machine.label} seed={cell.seed}")


def _daq_group(cells, results) -> Tuple[Dict[str, dict], Dict[str, dict]]:
    """Entries of DAQ-measured cells, and their DAQ-sampled fields."""
    entries: Dict[str, dict] = {}
    sampled: Dict[str, dict] = {}
    for cell, result in zip(cells, results):
        label = cell_label(cell)
        entries[label] = cell_entry(result, drop=DAQ_FIELDS)
        daq = {name: getattr(result, name) for name in DAQ_FIELDS}
        sampled[label] = {"sha256": sha256_json(daq), **daq}
    return entries, sampled


def table2_group() -> Tuple[Dict[str, dict], Dict[str, dict]]:
    from repro.cli import TABLE2_ROWS, workload_spec
    from repro.measure.parallel import PolicySpec, SweepCell, SweepEngine

    cells = [
        SweepCell(workload=workload_spec("mpeg"), policy=PolicySpec(policy),
                  seed=1000 * i)
        for _, policy in TABLE2_ROWS
        for i in range(3)
    ]
    with SweepEngine(jobs=2) as engine:
        return _daq_group(cells, engine.run(cells))


def diagnosed_group() -> Tuple[Dict[str, dict], Dict[str, dict]]:
    from repro.cli import workload_spec
    from repro.measure.parallel import (
        PolicySpec, SweepCell, SweepEngine, cache_key,
    )

    cell = SweepCell(workload=workload_spec("mpeg"),
                     policy=PolicySpec("avg3-one"), seed=0)
    with SweepEngine(diagnose=True) as engine:
        [result] = engine.run([cell])
        diagnosis = engine.diagnoses[cache_key(cell)]
    entries, sampled = _daq_group([cell], [result])
    entries[cell_label(cell)]["diagnosis_sha256"] = sha256_json(
        diagnosis.to_json()
    )
    return entries, sampled


def grid_group() -> Dict[str, dict]:
    from repro.cli import workload_spec
    from repro.hw.machines import MachineSpec
    from repro.kernel.recorders import RECORDING_MINIMAL
    from repro.measure.parallel import PolicySpec, SweepCell

    entries: Dict[str, dict] = {}
    for policy in GRID_POLICIES:
        for workload in GRID_WORKLOADS:
            for machine in GRID_MACHINES:
                cell = SweepCell(
                    workload=workload_spec(workload, GRID_DURATION_S),
                    policy=PolicySpec(policy),
                    machine=MachineSpec.parse(machine),
                    use_daq=False, recording=RECORDING_MINIMAL,
                )
                try:
                    result = cell.run()
                except Exception as exc:  # noqa: BLE001 - the error is the result
                    entry = {"error": f"{type(exc).__name__}: {exc}"}
                else:
                    entry = cell_entry(result)
                entries[cell_label(cell)] = entry
    return entries


def fuzz_group() -> Dict[str, dict]:
    from repro.hw.machines import MachineSpec
    from repro.measure.differential import check_scenario
    from repro.measure.parallel import CellResult
    from repro.workloads.fuzz import fuzz_family

    entries: Dict[str, dict] = {}
    for spec in fuzz_family(FUZZ_COUNT, master_seed=FUZZ_SEED,
                            duration_s=FUZZ_DURATION_S):
        for machine in FUZZ_MACHINES:
            outcome = check_scenario(spec, "best", MachineSpec.parse(machine),
                                     seed=FUZZ_SEED)
            label = f"fuzz seed={spec.seed} {machine}"
            if not outcome.ok:
                entries[label] = {"error": outcome.describe()}
                continue
            entries[label] = cell_entry(
                CellResult.from_experiment(outcome.reference)
            )
    return entries


def command_file_digest(command: str, directory: Path) -> Tuple[int, str]:
    """Run a ``repro`` command with ``-o`` into ``directory``; return its
    exit code and the SHA-256 of the file it wrote."""
    from contextlib import redirect_stdout
    import io

    from repro.cli import main

    out = directory / "out.json"
    with redirect_stdout(io.StringIO()):
        code = main([*command.split(), "-o", str(out)])
    return code, hashlib.sha256(out.read_bytes()).hexdigest()


def files_group(directory: Path) -> Dict[str, Dict[str, dict]]:
    group: Dict[str, Dict[str, dict]] = {}
    for kind, commands in (("diagnose", DIAGNOSE_COMMANDS),
                           ("trace", TRACE_COMMANDS)):
        group[kind] = {}
        for command in commands:
            code, digest = command_file_digest(command, directory)
            group[kind][command] = {"exit": code, "sha256": digest}
    return group


def compute_ledger(directory: Path) -> dict:
    """Every group of the ledger, computed from the tree on ``sys.path``."""
    import numpy

    table2, table2_daq = table2_group()
    diagnosed, diagnosed_daq = diagnosed_group()
    return {
        "rule": (
            "A change that moves any digest here regenerates this file "
            "(PYTHONPATH=src python tests/golden/ledger.py) and names the "
            "cells and the reason in CHANGES.md."
        ),
        "cells": {
            "table2": table2,
            "diagnosed": diagnosed,
            "grid": grid_group(),
            "fuzz": fuzz_group(),
        },
        "files": files_group(directory),
        "daq": {
            "about": (
                "DAQ-sampled fields (energy_j, mean_power_w) of the "
                "DAQ-measured cells. numpy's Generator.normal draws the "
                "noise and is not promised across numpy releases."
            ),
            "numpy": numpy.__version__,
            "cells": {"table2": table2_daq, "diagnosed": diagnosed_daq},
        },
    }


def load_ledger() -> dict:
    return json.loads(LEDGER_PATH.read_text())


def main() -> int:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        ledger = compute_ledger(Path(tmp))
    LEDGER_PATH.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    cells = sum(len(group) for group in ledger["cells"].values())
    print(f"wrote {LEDGER_PATH} ({cells} cells)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
