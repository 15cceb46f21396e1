"""Tests for execution-backend selection."""

import pytest

import repro.kernel.fastpath
import repro.measure.runner
from repro.core.catalog import resolve_policy
from repro.kernel.backend import (
    BACKENDS,
    DEFAULT_BACKEND,
    FORCE_BACKEND_ENV,
    resolve_backend,
)
from repro.kernel.fastpath import FastKernel
from repro.kernel.scheduler import Kernel
from repro.measure.runner import run_workload
from repro.workloads.mpeg import MpegConfig, mpeg_workload


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert BACKENDS == ("fastpath", "reference")

    def test_default_is_fastpath(self, monkeypatch):
        # Clear any forced backend: CI runs the whole suite once under
        # REPRO_FORCE_BACKEND=reference, and this test is about the
        # *unforced* default.
        monkeypatch.delenv(FORCE_BACKEND_ENV, raising=False)
        assert DEFAULT_BACKEND == "fastpath"
        assert resolve_backend(None) == "fastpath"

    def test_resolve_by_name(self):
        assert resolve_backend("reference") == "reference"
        assert resolve_backend("fastpath") == "fastpath"

    def test_unknown_name_rejected_with_known_names(self):
        with pytest.raises(ValueError, match="unknown backend 'batch'"):
            resolve_backend("batch")
        with pytest.raises(ValueError, match="fastpath, reference"):
            resolve_backend("batch")


class TestBuildKernel:
    """``run_workload`` builds the kernel its backend names."""

    def built_kernel(self, monkeypatch, backend):
        built = []

        def spy(kernel_type):
            class Spy(kernel_type):
                def __init__(self, *args, **kwargs):
                    super().__init__(*args, **kwargs)
                    built.append(kernel_type)

            return Spy

        monkeypatch.setattr(repro.measure.runner, "Kernel", spy(Kernel))
        monkeypatch.setattr(repro.kernel.fastpath, "FastKernel", spy(FastKernel))
        run_workload(
            mpeg_workload(MpegConfig(duration_s=0.1)),
            resolve_policy("best"),
            use_daq=False,
            backend=backend,
        )
        return built

    def test_reference_builds_reference_kernel(self, monkeypatch):
        assert self.built_kernel(monkeypatch, "reference") == [Kernel]

    def test_fastpath_builds_fast_kernel(self, monkeypatch):
        assert self.built_kernel(monkeypatch, "fastpath") == [FastKernel]


class TestForceEnv:
    """``REPRO_FORCE_BACKEND`` overrides only the *default* resolution."""

    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv(FORCE_BACKEND_ENV, "reference")
        assert resolve_backend(None) == "reference"

    def test_env_does_not_override_explicit_choice(self, monkeypatch):
        # Differential harnesses name both backends explicitly; a forced
        # CI leg must not collapse them onto one backend.
        monkeypatch.setenv(FORCE_BACKEND_ENV, "reference")
        assert resolve_backend("fastpath") == "fastpath"

    def test_env_unknown_name_rejected(self, monkeypatch):
        monkeypatch.setenv(FORCE_BACKEND_ENV, "warp")
        with pytest.raises(ValueError, match="unknown backend 'warp'"):
            resolve_backend(None)

    def test_empty_env_means_default(self, monkeypatch):
        monkeypatch.setenv(FORCE_BACKEND_ENV, "")
        assert resolve_backend(None) == DEFAULT_BACKEND

    def test_forced_run_matches_explicit_reference(self, monkeypatch):
        workload = mpeg_workload(MpegConfig(duration_s=0.3))
        gov = resolve_policy("best")
        explicit = run_workload(
            workload, gov, use_daq=False, backend="reference"
        )
        monkeypatch.setenv(FORCE_BACKEND_ENV, "reference")
        forced = run_workload(workload, gov, use_daq=False)
        assert forced.exact_energy_j == explicit.exact_energy_j
        assert forced.run.quanta == explicit.run.quanta
