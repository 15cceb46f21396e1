"""Execution backends: one simulation contract, two kernels.

The simulation core exists in two implementations with a bitwise-equality
contract between them: the reference :class:`~repro.kernel.scheduler.Kernel`
(the oracle — straightforward dispatch and record keeping) and the
fast-path :class:`~repro.kernel.fastpath.FastKernel` (the same loop
flattened, ~3× faster).  A backend is named by a string, and
:func:`repro.measure.runner.run_workload` builds the kernel it names.
Both build the same :class:`~repro.kernel.scheduler.KernelRun`, so every
reader of a run (the trace exporter, diagnosis, the sweep summary) sees
identical records on either backend.

:func:`resolve_backend` validates a caller's choice (a name, or None for
the default).  The default is ``"fastpath"``; the
:data:`FORCE_BACKEND_ENV` environment variable overrides the *default*
resolution (every run that does not explicitly pick a backend), which is
how CI keeps the reference oracle exercised across the whole suite
without trivializing the equivalence tests that explicitly compare the
two backends.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

#: The backend names, sorted (the CLI's ``--backend`` choices).
BACKENDS: Tuple[str, ...] = ("fastpath", "reference")

#: The backend used when a caller passes ``backend=None``.
DEFAULT_BACKEND = "fastpath"

#: Environment variable overriding the default backend (see
#: :func:`resolve_backend`).  Explicit ``backend=`` arguments still win.
FORCE_BACKEND_ENV = "REPRO_FORCE_BACKEND"


def resolve_backend(backend: Optional[str] = None) -> str:
    """Validate a caller's backend choice and return its name.

    ``None`` means "the default": :data:`DEFAULT_BACKEND`, unless the
    :data:`FORCE_BACKEND_ENV` environment variable names another
    backend — the hook CI uses to run the whole tier-1 suite on the
    reference oracle.  An explicit name always wins over the
    environment, so code that deliberately compares backends (the
    differential harness, the equivalence suite) stays meaningful under
    a forced run.

    Raises:
        ValueError: for names not in :data:`BACKENDS`.
    """
    if backend is None:
        backend = os.environ.get(FORCE_BACKEND_ENV) or DEFAULT_BACKEND
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; known: {', '.join(BACKENDS)}"
        )
    return backend
