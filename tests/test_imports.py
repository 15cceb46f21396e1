"""The import graph: at run time the program needs numpy alone.

scipy is only the tests' oracle for the Student-t code in
``repro.measure.stats``; no module of the program may load it.  Every
check runs in a fresh interpreter, so the imports of this test process
cannot hide a regression.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]


def run_python(code, *args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", code, *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize(
    "module", ["repro.cli", "repro.measure.parallel", "repro.kernel"]
)
def test_import_loads_no_scipy(module):
    proc = run_python(
        f"import sys, {module}\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
