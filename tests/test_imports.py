"""The import graph: each command loads only the code it runs.

At run time the program needs numpy alone, and only where it simulates or
analyses: scipy is only the tests' oracle for the Student-t code in
``repro.measure.stats``, and a sweep served from the result cache loads
neither numpy nor the simulator: no kernel, no power timeline, no
machine model.  Cells, cache keys and machine specs are named by value
without them.  The simulator loads where a cell runs: in-process, in a
pool worker, which imports a cell's whole path before its first cell,
or under ``fork`` in the parent, which imports it once before the pool
starts so the workers inherit it.  Every check of what a command loads
runs in a fresh interpreter, so the imports of this test process cannot
hide a regression.

Each public name has one import path, the module that defines it:
package namespaces hold only their docstrings and re-export nothing.
"""

import ast
import functools
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]
REPO = SRC.parent

#: The subpackages of ``repro``.
PACKAGES = [
    "repro.analysis",
    "repro.battery",
    "repro.core",
    "repro.hw",
    "repro.kernel",
    "repro.measure",
    "repro.obs",
    "repro.traces",
    "repro.workloads",
]

#: What a fresh ``import repro.cli`` or ``import repro.measure.parallel``
#: must not load (nor anything below it): numpy, the simulator (kernel,
#: power timeline, policies, machine models), the heavy observers and
#: the analysis stacks, which are imported only where a command or a
#: pool worker runs them.
OFF_THE_CACHE_HIT_PATH = (
    "numpy",
    "repro.kernel.scheduler",
    "repro.kernel.process",
    "repro.kernel.dvfs",
    "repro.kernel.governor",
    "repro.kernel.fastpath",
    "repro.traces",
    "repro.core",
    "repro.hw.cpu",
    "repro.hw.power",
    "repro.hw.machine",
    "repro.hw.itsy",
    "repro.hw.sa2",
    "repro.measure.runner",
    "repro.obs.diagnose",
    "repro.obs.report",
    "repro.obs.plot",
    "repro.analysis",
    "repro.battery",
)


def run_python(code, *args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", code, *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )


@functools.lru_cache(maxsize=None)
def modules_loaded_by(module):
    """Every module a fresh ``import module`` loads."""
    proc = run_python(
        f"import json, sys, {module}\nprint(json.dumps(sorted(sys.modules)))"
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def loaded_under(module, roots):
    """The modules ``import module`` loads at or below any of ``roots``."""
    return [
        m for m in modules_loaded_by(module)
        if any(m == root or m.startswith(root + ".") for root in roots)
    ]


@pytest.mark.parametrize(
    "module", ["repro.cli", "repro.measure.parallel", "repro.kernel"]
)
def test_import_loads_no_scipy(module):
    assert loaded_under(module, ["scipy"]) == []


@pytest.mark.parametrize("module", ["repro.cli", "repro.measure.parallel"])
def test_import_loads_no_numpy_and_no_simulator(module):
    assert loaded_under(module, OFF_THE_CACHE_HIT_PATH) == []


def test_diagnosing_engine_is_built_without_the_simulator(tmp_path):
    # The diagnosis log only appends what the engine hands it: the
    # diagnosis code loads where cells run, stamped as worker start
    # inside the sweep's clock, not while the CLI builds the engine.
    proc = run_python(
        "import json, sys\n"
        "from repro.cli import build_parser, sweep_engine\n"
        "args = build_parser().parse_args(sys.argv[1:])\n"
        "with sweep_engine(args) as engine:\n"
        "    assert engine.diagnosing\n"
        "print(json.dumps(sorted(sys.modules)))",
        "run", "mpeg", "--diagnoses", str(tmp_path / "diag.jsonl"),
    )
    assert proc.returncode == 0, proc.stderr
    loaded = [
        m for m in json.loads(proc.stdout)
        if any(m == root or m.startswith(root + ".")
               for root in OFF_THE_CACHE_HIT_PATH)
    ]
    assert loaded == []


def test_compare_runs_with_scipy_blocked(tmp_path):
    # A None entry in sys.modules makes every import of scipy raise.
    proc = run_python(
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from repro.cli import main\n"
        "sys.exit(main(sys.argv[1:]))",
        "compare", "mpeg", "const-206.4", "const-132.7",
        "--duration", "2", "--runs", "2",
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Welch p-value" in proc.stdout


def test_cached_table2_runs_with_numpy_blocked(tmp_path):
    argv = [
        "table2", "--runs", "2", "--jobs", "2",
        "--cache", str(tmp_path / "cache"),
        "--fleet", str(tmp_path / "fleet.jsonl"),
    ]
    cli = "import sys\nfrom repro.cli import main\nsys.exit(main(sys.argv[1:]))"
    filled = run_python(cli, *argv, cwd=tmp_path)
    assert filled.returncode == 0, filled.stderr
    assert "10 simulated, 0 cached" in filled.stderr
    # None entries make any import of numpy or the simulator raise.
    blocked = "".join(
        f"sys.modules[{name!r}] = None\n"
        for name in ("numpy", "repro.kernel.scheduler", "repro.traces.schema")
    )
    hit = run_python("import sys\n" + blocked + cli, *argv, cwd=tmp_path)
    assert hit.returncode == 0, hit.stderr
    assert "0 simulated, 10 cached" in hit.stderr
    assert hit.stdout == filled.stdout


#: Source that builds ``cells``: two 1 s MPEG cells.
TWO_CELLS = (
    "from repro.measure.parallel import (\n"
    "    PolicySpec, ResultCache, SweepCell, SweepEngine, WorkloadSpec,\n"
    ")\n"
    "from repro.workloads.mpeg import MpegConfig\n"
    "spec = WorkloadSpec('mpeg', MpegConfig(duration_s=1.0))\n"
    "cells = [SweepCell(workload=spec, policy=PolicySpec(p), seed=0)\n"
    "         for p in ('best', 'const-206.4')]\n"
)


@pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
def test_only_a_fork_pool_loads_the_simulator_in_the_parent(method):
    # Under fork the engine imports the cell path once, just before the
    # pool starts, and the workers inherit it; under forkserver and
    # spawn the workers import it themselves and the parent stays lean.
    proc = run_python(
        "import json, multiprocessing, sys\n"
        "multiprocessing.set_start_method(sys.argv[1])\n"
        + TWO_CELLS
        + "with SweepEngine(jobs=2) as engine:\n"
        "    engine.run(cells)\n"
        "print(json.dumps([engine.stats.executed, engine.start_method,\n"
        "                  'repro.measure.runner' in sys.modules]))",
        method,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [2, method, method == "fork"]


def test_cached_diagnosing_batch_runs_with_numpy_blocked(tmp_path):
    # A diagnosing engine imports the diagnosis stack (and numpy) only
    # when it starts a pool or runs a cell, never for cache hits.
    code = (
        "import json, sys\n"
        + TWO_CELLS
        + "engine = SweepEngine(jobs=2, diagnose=True,\n"
        "                     cache=ResultCache(sys.argv[1]))\n"
        "with engine:\n"
        "    results = engine.run(cells)\n"
        "print(json.dumps([engine.stats.cache_hits,\n"
        "                  [r.to_json() for r in results]]))"
    )
    cache = str(tmp_path / "cache")
    filled = run_python(code, cache)
    assert filled.returncode == 0, filled.stderr
    hit = run_python("import sys\nsys.modules['numpy'] = None\n" + code, cache)
    assert hit.returncode == 0, hit.stderr
    hits, results = json.loads(hit.stdout)
    assert hits == 2
    assert results == json.loads(filled.stdout)[1]


def test_cell_path_import_leaves_nothing_for_the_cells():
    # After the pool initializer's import, running a cell loads no module,
    # so no import lands inside a cell's kernel compute stamp: a Table 2
    # constant and PAST cell (60 s MPEG) and a diagnosed policy-grid cell.
    proc = run_python(
        "import json, sys\n"
        "from repro.hw.machines import MachineSpec\n"
        "from repro.measure.parallel import (\n"
        "    PolicySpec, SweepCell, WorkloadSpec, _execute_cell,\n"
        "    _import_cell_path,\n"
        ")\n"
        "from repro.workloads.web import WebConfig\n"
        "_import_cell_path(diagnosing=True)\n"
        "before = set(sys.modules)\n"
        "for policy in ('const-206.4', 'best'):\n"
        "    cell = SweepCell(workload=WorkloadSpec('mpeg'),\n"
        "                     policy=PolicySpec(policy), seed=0)\n"
        "    _execute_cell(cell, False)\n"
        "grid = SweepCell(\n"
        "    workload=WorkloadSpec('web', WebConfig(duration_s=20.0)),\n"
        "    policy=PolicySpec('avg3-one'), seed=0,\n"
        "    machine=MachineSpec.parse('sa2'),\n"
        ")\n"
        "assert _execute_cell(grid, True).diagnosis is not None\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def module_file(name):
    """The source file of module ``name`` under ``src/``, or ``None``."""
    base = SRC.joinpath(*name.split("."))
    for path in (base.with_suffix(".py"), base / "__init__.py"):
        if path.is_file():
            return path
    return None


@functools.lru_cache(maxsize=None)
def defined_names(path):
    """The names a module binds at its top level by ``def``, ``class`` or
    assignment; names it imports do not count."""
    names = set()
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(
                leaf.id
                for target in targets
                for leaf in ast.walk(target)
                if isinstance(leaf, ast.Name)
            )
    return frozenset(names)


@pytest.mark.parametrize("package", PACKAGES)
def test_package_imports_no_submodule_and_binds_no_submodule_name(package):
    proc = run_python(
        "import importlib, json, sys\n"
        f"pkg = importlib.import_module({package!r})\n"
        f"loaded = [m for m in sys.modules if m.startswith({package + '.'!r})]\n"
        "print(json.dumps({'loaded': loaded, 'names': sorted(vars(pkg))}))"
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["loaded"] == []
    defined = set().union(*(
        defined_names(path)
        for path in module_file(package).parent.glob("*.py")
        if path.name != "__init__.py"
    ))
    assert [name for name in result["names"] if name in defined] == []


def test_every_name_is_imported_from_its_defining_module():
    # One import path per public name: ``from repro.x import name`` must
    # name a submodule of ``repro.x`` or a name that ``repro.x`` itself
    # defines, never one it only imports.  perfbench is only read.
    wrong = []
    for top in ("src", "tests", "benchmarks", "examples", "perfbench"):
        for path in sorted((REPO / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if not (
                    isinstance(node, ast.ImportFrom)
                    and node.level == 0
                    and node.module.split(".")[0] == "repro"
                ):
                    continue
                source = module_file(node.module)
                for alias in node.names:
                    if source is None or not (
                        module_file(f"{node.module}.{alias.name}")
                        or alias.name in defined_names(source)
                    ):
                        where = path.relative_to(REPO)
                        wrong.append(
                            f"{where}:{node.lineno}: "
                            f"from {node.module} import {alias.name}"
                        )
    assert wrong == []
