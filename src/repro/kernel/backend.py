"""Pluggable execution backends: one simulation contract, many engines.

The simulation core exists in two implementations with a bitwise-equality
contract between them: the reference :class:`~repro.kernel.scheduler.Kernel`
(the oracle — pluggable recorders, straightforward dispatch) and the
fast-path :class:`~repro.kernel.fastpath.FastKernel` (the same loop
flattened, ~3× faster).  This module is the seam that selects between
them — and between any future engine, such as a numpy-vectorized
multi-lane batch core — without the measurement layer knowing which one
it drives:

- :class:`ExecutionBackend` is the protocol: a named factory that builds
  a ready-to-run kernel for a (machine, governor, config, recording,
  extra_recorders) request.  Observers attach through the same
  backend-agnostic recorder/tap layer on every backend, so observation
  never forces a different execution path than the measured one.
- :data:`BACKENDS` / :func:`register_backend` is the registry.  The
  ``"reference"`` and ``"fastpath"`` backends are built in; a ``"batch"``
  backend registers here when it lands.
- :func:`resolve_backend` turns a caller's choice (a name, a backend
  instance, or None for the default) into a backend.  The default is
  ``"fastpath"``; the :data:`REPRO_FORCE_BACKEND` environment variable
  overrides the *default* resolution (every run that does not explicitly
  pick a backend), which is how CI keeps the reference oracle exercised
  across the whole suite without trivializing the equivalence tests that
  explicitly compare the two backends.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Union

from repro.hw.machine import Machine
from repro.kernel.governor import Governor
from repro.kernel.recorders import (
    RECORDING_FULL,
    RunRecorder,
    recorders_for,
)
from repro.kernel.scheduler import Kernel, KernelConfig

#: The backend used when a caller passes ``backend=None``.
DEFAULT_BACKEND = "fastpath"

#: Environment variable overriding the default backend (see
#: :func:`resolve_backend`).  Explicit ``backend=`` arguments still win.
FORCE_BACKEND_ENV = "REPRO_FORCE_BACKEND"


class ExecutionBackend:
    """A named kernel factory the measurement layer drives.

    Subclasses implement :meth:`build_kernel` to return a ready-to-run
    kernel honouring the recording mode and any extra recorder taps.
    The contract every backend must keep: results are **bitwise
    identical** to the reference backend's, with or without observers
    attached (``tests/kernel/test_fastpath.py`` enforces it across every
    catalog policy × workload × machine).
    """

    #: Registry name (``"reference"``, ``"fastpath"``, ...).
    name: str = "?"

    def build_kernel(
        self,
        machine: Machine,
        governor: Optional[Governor] = None,
        config: Optional[KernelConfig] = None,
        recording: str = RECORDING_FULL,
        extra_recorders: Optional[Iterable[RunRecorder]] = None,
    ) -> Kernel:
        """Build a single-use kernel for one run."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<{type(self).__name__} {self.name!r}>"


class ReferenceBackend(ExecutionBackend):
    """The oracle: the reference kernel with live recorder dispatch."""

    name = "reference"

    def build_kernel(
        self,
        machine: Machine,
        governor: Optional[Governor] = None,
        config: Optional[KernelConfig] = None,
        recording: str = RECORDING_FULL,
        extra_recorders: Optional[Iterable[RunRecorder]] = None,
    ) -> Kernel:
        recorders = recorders_for(
            recording, config if config is not None else KernelConfig()
        )
        if extra_recorders is not None:
            recorders.extend(extra_recorders)
        return Kernel(
            machine, governor=governor, config=config, recorders=recorders
        )


class FastpathBackend(ExecutionBackend):
    """The flattened hot loop; observers attach via replay-at-end taps."""

    name = "fastpath"

    def build_kernel(
        self,
        machine: Machine,
        governor: Optional[Governor] = None,
        config: Optional[KernelConfig] = None,
        recording: str = RECORDING_FULL,
        extra_recorders: Optional[Iterable[RunRecorder]] = None,
    ) -> Kernel:
        # Imported on first use: choosing a backend (the CLI's --backend
        # choices, a sweep's fleet record) must not load the hot loop.
        from repro.kernel.fastpath import FastKernel

        return FastKernel(
            machine,
            governor=governor,
            config=config,
            recording=recording,
            extra_recorders=extra_recorders,
        )


#: Name → backend registry.  The ``"batch"`` numpy backend plugs in here.
BACKENDS: Dict[str, ExecutionBackend] = {}


def register_backend(backend: ExecutionBackend) -> ExecutionBackend:
    """Register ``backend`` under its :attr:`~ExecutionBackend.name`.

    Re-registration replaces the previous entry (latest wins), so tests
    can shadow a backend and restore it.
    """
    BACKENDS[backend.name] = backend
    return backend


register_backend(ReferenceBackend())
register_backend(FastpathBackend())


def backend_names() -> List[str]:
    """The registered backend names, sorted (CLI choices)."""
    return sorted(BACKENDS)


def resolve_backend(
    backend: Union[str, ExecutionBackend, None] = None,
) -> ExecutionBackend:
    """Resolve a caller's backend choice to a registered backend.

    ``None`` means "the default": :data:`DEFAULT_BACKEND`, unless the
    :data:`REPRO_FORCE_BACKEND` environment variable names another
    registered backend — the hook CI uses to run the whole tier-1 suite
    on the reference oracle.  An explicit name or instance always wins
    over the environment, so code that deliberately compares backends
    (the differential harness, the equivalence suite) stays meaningful
    under a forced run.

    Raises:
        ValueError: for names not in :data:`BACKENDS`.
    """
    if backend is None:
        backend = os.environ.get(FORCE_BACKEND_ENV) or DEFAULT_BACKEND
    if isinstance(backend, ExecutionBackend):
        return backend
    try:
        return BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown backend {backend!r}; registered: "
            f"{', '.join(backend_names())}"
        ) from None
