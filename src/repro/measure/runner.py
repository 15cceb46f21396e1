"""One measured run: the experiment harness every sweep cell executes.

Mirrors the paper's procedure: boot the machine, install the clock-scaling
module, start the workload with the GPIO trigger, record power with the
DAQ, time the run, and compute energy over the window.

Governors and kernels carry state, so :func:`run_workload` takes
*factories* and builds a fresh machine, kernel and governor per run.
Repeated runs with confidence intervals and the ideal-constant oracle
batch cells through the sweep engine
(:func:`repro.measure.parallel.repeat_workload`,
:func:`repro.measure.parallel.find_ideal_constant`); run-to-run variation
"from interactions between application threads, other processes and
system daemons" is modelled by the workloads' seeded jitter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.hw.machine import Machine
from repro.hw.machines import MachineSpec
from repro.kernel.backend import resolve_backend
from repro.kernel.config import KernelConfig
from repro.kernel.governor import Governor
from repro.kernel.recorders import RECORDING_FULL, check_recording
from repro.kernel.scheduler import Kernel, KernelRun
from repro.measure.daq import DaqCapture, DaqSystem
from repro.traces.schema import AppEvent
from repro.workloads.base import Workload

GovernorFactory = Callable[[], Governor]
#: Anything that yields a fresh machine per run: a zero-argument callable
#: or a (callable) :class:`~repro.hw.machines.MachineSpec`.
MachineFactory = Callable[[], Machine]


@dataclass
class ExperimentResult:
    """Outcome of one workload run.

    Attributes:
        run: the full kernel record.
        energy_j: DAQ-estimated energy over the run (the paper's number).
        exact_energy_j: the analytic integral, for validating the DAQ.
        mean_power_w: DAQ-estimated average power.
        misses: deadline misses beyond the workload's tolerance.
        capture: the raw DAQ capture (None if the DAQ was disabled).
        tolerance_us: the workload's perceptibility tolerance the misses
            were judged against (diagnostics reuse it downstream).
    """

    run: KernelRun
    energy_j: float
    exact_energy_j: float
    mean_power_w: float
    misses: List[AppEvent]
    capture: Optional[DaqCapture]
    tolerance_us: float = 0.0

    @property
    def missed(self) -> bool:
        """True if any deadline was perceptibly missed."""
        return bool(self.misses)


def run_workload(
    workload: Workload,
    governor_factory: GovernorFactory,
    machine_factory: MachineFactory = MachineSpec(),
    seed: int = 0,
    kernel_config: Optional[KernelConfig] = None,
    use_daq: bool = True,
    daq_seed: Optional[int] = None,
    recording: str = RECORDING_FULL,
    backend: Optional[str] = None,
) -> ExperimentResult:
    """Run one workload under one governor and measure it.

    Args:
        workload: the workload descriptor (spawns its own processes).
        governor_factory: builds a fresh governor for this run.
        machine_factory: builds a fresh machine for this run (a callable
            or a :class:`~repro.hw.machines.MachineSpec`; default: the
            modified Itsy booted at 206.4 MHz / 1.5 V).
        seed: workload jitter seed.
        kernel_config: kernel tunables (None means a fresh default; a
            shared default-argument instance could alias between calls).
        use_daq: measure energy through the DAQ model (True, as in the
            paper) or use the analytic integral only.
        daq_seed: DAQ noise seed (defaults to ``seed``).
        recording: kernel instrumentation level, ``"full"`` or
            ``"minimal"`` (energy totals and quantum statistics only;
            bitwise-equal energies, but no timeline for the DAQ).
        backend: the execution backend, ``"reference"`` (the
            :class:`~repro.kernel.scheduler.Kernel`) or ``"fastpath"``
            (the :class:`~repro.kernel.fastpath.FastKernel`), or None for
            the default (``"fastpath"``, overridable via the
            ``REPRO_FORCE_BACKEND`` environment variable).  Results are
            bitwise identical across backends.
    """
    check_recording(recording)
    if use_daq and recording != RECORDING_FULL:
        raise ValueError(
            "the DAQ samples the power timeline; minimal recording "
            "requires use_daq=False"
        )
    if kernel_config is None:
        kernel_config = KernelConfig()
    if resolve_backend(backend) == "fastpath":
        # Imported on first use: naming a backend (the CLI's --backend
        # choices, a sweep's fleet record) must not load the hot loop.
        from repro.kernel.fastpath import FastKernel as kernel_type
    else:
        kernel_type = Kernel
    machine = machine_factory()
    kernel = kernel_type(machine, governor_factory(), kernel_config, recording)
    workload.setup(kernel, seed)
    run = kernel.run(workload.duration_us)

    exact = run.energy_joules()
    capture = None
    if use_daq:
        daq = DaqSystem(seed=daq_seed if daq_seed is not None else seed)
        capture = daq.capture(run.timeline)
        energy = capture.energy_joules()
        mean_power = capture.mean_power_w()
    else:
        energy = exact
        mean_power = run.mean_power_w()

    misses = run.deadline_misses(tolerance_us=workload.tolerance_us)
    return ExperimentResult(
        run=run,
        energy_j=energy,
        exact_energy_j=exact,
        mean_power_w=mean_power,
        misses=misses,
        capture=capture,
        tolerance_us=workload.tolerance_us,
    )
