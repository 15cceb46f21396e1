"""Documentation consistency: the docs must match the repository.

DESIGN.md's experiment index and EXPERIMENTS.md reference benchmark
targets by filename; the module map names source files; docs/api.md and
the README name the library's API.  These tests keep the documentation
honest as the code evolves.
"""

import ast
import importlib
import json
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def resolve_dotted(name: str) -> object:
    """The object a dotted ``repro.…`` name names: each prefix as a
    module where one exists, else as an attribute of the previous one."""
    parts = name.split(".")
    obj = importlib.import_module(parts[0])
    for i in range(1, len(parts)):
        try:
            obj = importlib.import_module(".".join(parts[: i + 1]))
        except ModuleNotFoundError:
            obj = getattr(obj, parts[i])
    return obj


def api_md_names() -> list:
    text = (REPO / "docs" / "api.md").read_text()
    return sorted(set(re.findall(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+", text)))


def readme_imports() -> list:
    """``(module, name)`` for every name imported from ``repro`` in the
    README's Python code blocks."""
    text = (REPO / "README.md").read_text()
    out = []
    for block in re.findall(r"```python\n(.*?)```", text, re.S):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module.startswith("repro"):
                out += [(node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                out += [
                    (alias.name, None)
                    for alias in node.names
                    if alias.name.startswith("repro")
                ]
    return out


class TestApiMd:
    def test_names_found(self):
        assert len(api_md_names()) > 50

    @pytest.mark.parametrize("name", api_md_names())
    def test_every_dotted_name_resolves(self, name):
        resolve_dotted(name)


class TestReadmeImports:
    def test_imports_found(self):
        assert readme_imports()

    @pytest.mark.parametrize(
        "module,name", readme_imports(), ids=lambda value: str(value)
    )
    def test_every_import_resolves(self, module, name):
        resolve_dotted(module if name is None else f"{module}.{name}")


def referenced_benchmarks(text: str) -> set:
    return set(re.findall(r"bench_[a-z0-9_]+\.py", text))


class TestDesignMd:
    def test_every_referenced_bench_exists(self):
        text = (REPO / "DESIGN.md").read_text()
        existing = {p.name for p in (REPO / "benchmarks").glob("bench_*.py")}
        for name in referenced_benchmarks(text):
            if "*" in name:
                continue
            assert name in existing, f"DESIGN.md references missing {name}"

    def test_every_bench_is_documented_somewhere(self):
        docs = (REPO / "DESIGN.md").read_text() + (REPO / "EXPERIMENTS.md").read_text()
        for path in (REPO / "benchmarks").glob("bench_*.py"):
            stem = path.stem.replace("bench_", "")
            assert (
                path.name in docs or "bench_ablation" in path.name and "bench_ablation_*" in docs
                or stem in docs
            ), f"{path.name} is not mentioned in DESIGN.md or EXPERIMENTS.md"

    def test_module_map_files_exist(self):
        text = (REPO / "DESIGN.md").read_text()
        # every "name.py" mentioned in the inventory block must exist
        inventory = text.split("## 3. System inventory")[1].split("## 4.")[0]
        for name in re.findall(r"([a-z_0-9]+\.py)", inventory):
            hits = list((REPO / "src").rglob(name))
            assert hits, f"DESIGN.md inventory names missing module {name}"


class TestExperimentsMd:
    def test_every_referenced_bench_exists(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        existing = {p.name for p in (REPO / "benchmarks").glob("bench_*.py")}
        for name in referenced_benchmarks(text):
            if "*" in name:
                continue
            assert name in existing, f"EXPERIMENTS.md references missing {name}"

    def test_tables_and_figures_all_covered(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        for anchor in (
            "Table 1",
            "Table 2",
            "Table 3",
            "Figure 3",
            "Figure 4",
            "Figure 5",
            "Figure 6",
            "Figure 7",
            "Figure 8",
            "Figure 9",
        ):
            assert anchor in text, f"EXPERIMENTS.md lost its {anchor} section"

    def test_figure7_trace_walkthrough_runs(self, tmp_path, monkeypatch):
        """The Figure 7 tracing walkthrough executes and shows what its
        prose says: 171 clock changes sweeping the whole clock table, and
        a trace file Perfetto can open."""
        from repro.obs.trace import validate_chrome_trace

        text = (REPO / "EXPERIMENTS.md").read_text()
        section = text.split("**Walkthrough: watching Figure 7's AVG_3")[1]
        section = section.split("**Metrics and run-logs.**")[0]
        block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
        assert "171 clock changes" in section
        assert "59.0–206.4 MHz" in section
        monkeypatch.chdir(tmp_path)
        namespace = {}
        exec(compile(block, "EXPERIMENTS.md", "exec"), namespace)
        run = namespace["run"]
        assert run.clock_changes == len(run.freq_changes) == 171
        targets = [change.to_mhz for change in run.freq_changes]
        assert (min(targets), max(targets)) == (59.0, 206.4)
        validate_chrome_trace(json.loads((tmp_path / "fig7_avg3.json").read_text()))


class TestReadme:
    def test_quickstart_snippet_runs(self):
        """The README's quick-start code must actually execute."""
        from repro.core.catalog import best_policy, constant_speed
        from repro.measure.runner import run_workload
        from repro.workloads.mpeg import MpegConfig, mpeg_workload

        # shortened for test speed; same API calls as the README
        wl = mpeg_workload(MpegConfig(duration_s=4.0))
        result = run_workload(wl, best_policy)
        assert result.energy_j > 0
        assert result.missed is False
        base = run_workload(wl, lambda: constant_speed(206.4))
        assert 0 < result.energy_j < base.energy_j * 1.05

    def test_examples_listed_in_readme_exist(self):
        text = (REPO / "README.md").read_text()
        for name in re.findall(r"examples/([a-z_]+\.py)", text):
            assert (REPO / "examples" / name).exists(), name

    def test_docs_listed_exist(self):
        for doc in ("docs/architecture.md", "docs/paper_notes.md"):
            assert (REPO / doc).exists()
