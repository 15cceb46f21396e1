"""Kernel tunables, importable without the simulator.

A sweep cell names its kernel config by value, and cache keys digest
it, so :class:`KernelConfig` lives apart from the scheduler: a sweep
served from the result cache builds keys without loading the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class KernelConfig:
    """Kernel tunables.

    Attributes:
        quantum_us: scheduling quantum / clock-interrupt period (10 ms).
        sched_overhead_us: cost of forcing the scheduler every tick
            (measured ~6 us in the paper); charged as busy time.
        record_sched_log: keep the per-decision scheduler activity log
            (sizeable for long runs; off by default).
    """

    quantum_us: float = 10_000.0
    sched_overhead_us: float = 6.0
    record_sched_log: bool = False

    def __post_init__(self) -> None:
        if self.quantum_us <= 0:
            raise ValueError("quantum must be positive")
        if self.sched_overhead_us < 0:
            raise ValueError("scheduler overhead must be non-negative")
        if self.sched_overhead_us >= self.quantum_us:
            raise ValueError("scheduler overhead must be below the quantum")
