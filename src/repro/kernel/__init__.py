"""Discrete-event simulator of the Itsy's Linux 2.0.30 kernel.

The paper's measurements rely on two kernel modifications (§4.3):

1. a *scheduler activity log* recording every scheduling decision with
   microsecond resolution, and
2. an *extensible clock-scaling policy module* called from the clock
   interrupt handler, fed by per-quantum CPU-utilization accounting (the
   idle process is pid 0; non-idle execution time is summed and cleared on
   every clock interrupt).

This package reproduces that environment in simulation:

- :mod:`repro.kernel.process` -- processes as generator coroutines yielding
  actions (compute, sleep, spin, yield, exit);
- :mod:`repro.kernel.config` -- the kernel tunables (stdlib only, so
  sweep cells and cache keys name them without loading the simulator);
- :mod:`repro.kernel.scheduler` -- the scheduling core: 100 Hz tick, 10 ms
  quanta with the scheduler forced every tick (the paper sets the process
  counter to 1), round-robin run queue, nap-mode idle, utilization
  accounting, governor invocation;
- :mod:`repro.kernel.dvfs` -- voltage/frequency sequencing (request
  clamping, raise-before/drop-after ordering, stall and sag accounting);
- :mod:`repro.kernel.recorders` -- run instrumentation: the recording
  modes (the full record, or energy/utilization aggregates for
  energy-only cells) that shape the :class:`KernelRun` a run returns;
- :mod:`repro.kernel.governor` -- the clock-scaling module interface.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "config": ("KernelConfig",),
        "dvfs": ("DvfsEngine",),
        "governor": (
            "ConstantGovernor",
            "Governor",
            "GovernorRequest",
            "TickInfo",
        ),
        "process": (
            "Compute",
            "Exit",
            "Process",
            "ProcessContext",
            "ProcessState",
            "Sleep",
            "SleepUntil",
            "SpinUntil",
            "Yield",
        ),
        "recorders": (
            "RECORDING_FULL",
            "RECORDING_MINIMAL",
            "EnergyTotals",
            "QuantumStats",
            "check_recording",
        ),
        "scheduler": ("Kernel", "KernelRun"),
    },
)
