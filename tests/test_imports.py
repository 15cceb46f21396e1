"""The import graph: each command loads only the code it runs.

At run time the program needs numpy alone, and only where it simulates or
analyses: scipy is only the tests' oracle for the Student-t code in
``repro.measure.stats``, and a sweep served from the result cache loads
neither numpy nor the simulator.  Package namespaces re-export their
public names lazily (:mod:`repro._lazy`).  Every check runs in a fresh
interpreter, so the imports of this test process cannot hide a
regression.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]

#: Packages whose ``__init__`` re-exports submodule names.
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
#: must not load (nor anything below it): numpy, the simulator, the heavy
#: observers and the analysis stacks, which are imported only where a
#: command or a pool worker runs them.
OFF_THE_CACHE_HIT_PATH = (
    "numpy",
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
    hit = run_python("import sys\nsys.modules['numpy'] = None\n" + cli, *argv,
                     cwd=tmp_path)
    assert hit.returncode == 0, hit.stderr
    assert "0 simulated, 10 cached" in hit.stderr
    assert hit.stdout == filled.stdout


@pytest.mark.parametrize("package", PACKAGES)
def test_package_reexports_resolve_lazily(package):
    proc = run_python(
        "import importlib, json, sys\n"
        f"pkg = importlib.import_module({package!r})\n"
        f"loaded = [m for m in sys.modules if m.startswith({package + '.'!r})]\n"
        "from repro._lazy import EXPORTS\n"
        "origins = EXPORTS[pkg.__name__]\n"
        "wrong = [\n"
        "    name for name in pkg.__all__\n"
        "    if name not in dir(pkg)\n"
        "    or getattr(pkg, name) is not (\n"
        "        getattr(importlib.import_module(origins[name]), name)\n"
        "        if name in origins else vars(pkg)[name]\n"
        "    )\n"
        "]\n"
        "print(json.dumps({'loaded': loaded, 'wrong': wrong}))"
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result == {"loaded": [], "wrong": []}
