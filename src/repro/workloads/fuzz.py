"""Generative workload fuzzing: seeded scenario space for the policy catalog.

The paper's finding is that interval-policy quality is driven by the
*shape* of utilization, yet the evaluation sweeps only four hand-written
workloads.  This module generates whole families of scenarios from a
seed: periodic jobs with deadlines, demand ramps, bursty job sizes, busy
spins and idle storms, each knob a field of :class:`FuzzSpec`.  A spec is
a frozen dataclass, so it is a first-class, cache-keyed sweep axis
exactly like :class:`~repro.hw.machines.MachineSpec` — register name
``"fuzz"`` in :data:`~repro.measure.parallel.WORKLOAD_BUILDERS`.

Determinism is the point: the whole schedule (job sizes, periods,
deadlines, phase types) is precomputed from ``spec.seed`` mixed with the
run seed, using integer arithmetic that is stable across processes and
platforms.  The same spec + seed always produces the same workload,
bitwise — which is what makes the fuzzer usable as the repo's
differential-testing engine (:mod:`repro.measure.differential`): any
fuzzed run must be bitwise-identical between the reference kernel and
the fast-path core, and its energy decomposition must close.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, List, Optional, Sequence, Tuple

from repro.hw.work import Work
from repro.workloads.base import (
    CHESS_PROFILE,
    FULL_SPEED,
    JAVA_PROFILE,
    MPEG_FRAME_PROFILE,
    SYNTH_PROFILE,
    Workload,
    WorkProfile,
)

if TYPE_CHECKING:
    from repro.kernel.process import Action, ProcessContext
    from repro.kernel.scheduler import Kernel

#: Work compositions a fuzzed phase can draw from: media-decode,
#: pointer-chasing, core-bound DSP, and hash-probing mixes — the span of
#: memory-boundedness the calibrated workloads cover.
FUZZ_PROFILES: Tuple[WorkProfile, ...] = (
    MPEG_FRAME_PROFILE,
    JAVA_PROFILE,
    SYNTH_PROFILE,
    CHESS_PROFILE,
)

#: Large odd multipliers decorrelate the spec seed, the run seed and the
#: per-process streams without tuple-hashing (whose value is not stable
#: across PYTHONHASHSEED settings).
_SPEC_SEED_MIX = 1_000_003
_RUN_SEED_MIX = 7_919
_PROC_SEED_MIX = 104_729


@dataclass(frozen=True)
class FuzzSpec:
    """One point of fuzzed-scenario space, named entirely by value.

    Attributes:
        seed: generator seed; the scenario is a pure function of it (and
            of the run seed it is mixed with).
        duration_s: trace length in seconds.
        phases: number of demand regimes the run is divided into.
        burstiness: 0..1, dispersion of per-job work around the phase's
            utilization target (0 = perfectly regular jobs).
        periodicity_ms: mean job period in milliseconds; actual phase
            periods vary around it.
        ramp: 0..1, strength of intra-phase demand ramps (0 = flat
            demand within each phase).
        idle_storm: 0..1, probability that a phase is an idle storm
            (no demand at all — the regime battery life depends on).
        deadline_tightness: 0..1, how close each job's deadline sits to
            its full-speed execution time (0 = deadline at the period
            end, 1 = only the fastest clock step can be on time).
        processes: concurrently scheduled fuzzed processes.
        tolerance_us: per-deadline perceptibility tolerance.
    """

    seed: int = 0
    duration_s: float = 1.5
    phases: int = 4
    burstiness: float = 0.5
    periodicity_ms: float = 40.0
    ramp: float = 0.5
    idle_storm: float = 0.25
    deadline_tightness: float = 0.6
    processes: int = 1
    tolerance_us: float = 10_000.0

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.phases < 1:
            raise ValueError("phases must be at least 1")
        if self.processes < 1:
            raise ValueError("processes must be at least 1")
        if self.periodicity_ms <= 0:
            raise ValueError("periodicity_ms must be positive")
        if self.tolerance_us < 0:
            raise ValueError("tolerance_us must be non-negative")
        for knob in ("burstiness", "ramp", "idle_storm", "deadline_tightness"):
            value = getattr(self, knob)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{knob} must be in [0, 1], got {value}")


#: One step of a fuzz plan, relative to the process start time:
#: ``("work", cpu_cycles, mem_refs, cache_refs, deadline_rel, job_index)``
#: computes a job and emits its deadline;
#: ``("spin", end_rel)`` busy-waits and ``("sleep", end_rel)`` idles
#: until the given offset.
PlanOp = Tuple


def _plan(spec: FuzzSpec, rng: random.Random) -> List[PlanOp]:
    """Precompute one process's deterministic schedule of plan ops."""
    total_us = spec.duration_s * 1e6
    phase_us = total_us / spec.phases
    ops: List[PlanOp] = []
    job_index = 0
    for phase in range(spec.phases):
        phase_start = phase * phase_us
        phase_end = phase_start + phase_us
        if rng.random() < spec.idle_storm:
            ops.append(("sleep", phase_end))
            continue
        profile = FUZZ_PROFILES[rng.randrange(len(FUZZ_PROFILES))]
        period_us = spec.periodicity_ms * 1000.0 * (0.5 + rng.random())
        period_us = min(period_us, phase_us)
        jobs = max(1, int(phase_us // period_us))
        # Demand regime: utilization starts at u0 and ramps toward u1.
        u0 = 0.1 + 0.8 * rng.random()
        u1 = u0 + spec.ramp * (2.0 * rng.random() - 1.0)
        u1 = min(0.95, max(0.05, u1))
        # A strongly bursty phase may be time-based (busy spins): those
        # stress TIME-replay-like feedback, where demand is wall-clock.
        spin_phase = rng.random() < 0.5 * spec.burstiness
        for j in range(jobs):
            release = phase_start + j * period_us
            frac = j / (jobs - 1) if jobs > 1 else 0.0
            target_u = u0 + (u1 - u0) * frac
            jitter = 1.0 + spec.burstiness * (2.0 * rng.random() - 1.0) * 0.6
            busy_us = target_u * period_us * max(0.05, jitter)
            busy_us = min(busy_us, period_us)
            if spin_phase:
                ops.append(("spin", release + busy_us))
            else:
                work = profile.work_for_duration(busy_us, FULL_SPEED)
                # Deadline between the full-speed finish time and the
                # period end, pulled toward the former by tightness.
                slack = (period_us - busy_us) * (1.0 - spec.deadline_tightness)
                deadline_rel = release + busy_us + slack
                ops.append(
                    (
                        "work",
                        work.cpu_cycles,
                        work.mem_refs,
                        work.cache_refs,
                        deadline_rel,
                        job_index,
                    )
                )
                job_index += 1
            next_release = release + period_us
            if next_release < phase_end:
                ops.append(("sleep", next_release))
        ops.append(("sleep", phase_end))
    return ops


def _fuzz_body(plan: Sequence[PlanOp]):
    """A process body executing a precomputed plan.

    Offsets are relative to the process start time, so the nominal
    schedule is fixed: an overloaded process slips past its releases
    (the sleeps become no-ops) and misses deadlines — the feedback a
    live system has.
    """
    from repro.kernel.process import Compute, SleepUntil, SpinUntil


    def body(ctx: ProcessContext) -> Generator[Action, None, None]:
        start = ctx.now_us
        for op in plan:
            kind = op[0]
            if kind == "work":
                _, cpu_cycles, mem_refs, cache_refs, deadline_rel, idx = op
                yield Compute(
                    Work(
                        cpu_cycles=cpu_cycles,
                        mem_refs=mem_refs,
                        cache_refs=cache_refs,
                    )
                )
                ctx.emit(
                    "fuzz_job",
                    deadline_us=start + deadline_rel,
                    payload=float(idx),
                )
            elif kind == "spin":
                target = start + op[1]
                if ctx.now_us < target:
                    yield SpinUntil(target)
            else:  # sleep
                target = start + op[1]
                if ctx.now_us < target:
                    yield SleepUntil(target)

    return body


def fuzz_plan(spec: FuzzSpec, seed: int = 0) -> List[List[PlanOp]]:
    """The deterministic per-process plans for ``spec`` at run ``seed``.

    Exposed for tests and shrinking diagnostics; :func:`fuzz_workload`
    consumes the same plans.
    """
    plans: List[List[PlanOp]] = []
    for proc in range(spec.processes):
        rng = random.Random(
            spec.seed * _SPEC_SEED_MIX
            + seed * _RUN_SEED_MIX
            + proc * _PROC_SEED_MIX
        )
        plans.append(_plan(spec, rng))
    return plans


def fuzz_workload(spec: Optional[FuzzSpec] = None) -> Workload:
    """A workload descriptor generating the fuzzed scenario of ``spec``."""
    cfg = spec if spec is not None else FuzzSpec()

    def setup(kernel: Kernel, seed: int) -> None:
        for proc, plan in enumerate(fuzz_plan(cfg, seed)):
            kernel.spawn(f"fuzz-{cfg.seed}-p{proc}", _fuzz_body(plan))

    return Workload(
        name=f"fuzz-{cfg.seed}",
        duration_s=cfg.duration_s,
        tolerance_us=cfg.tolerance_us,
        setup=setup,
    )


def fuzz_family(
    count: int,
    master_seed: int = 0,
    duration_s: float = 1.0,
) -> List[FuzzSpec]:
    """``count`` diverse specs derived deterministically from one seed.

    The family sweeps the knob space (burstiness, periodicity, ramps,
    idle storms, deadline tightness, process count) so a fixed-seed CI
    job covers a representative slice of scenario space; the CI
    fuzz-smoke job and ``repro fuzz`` both build their batches here.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = random.Random(master_seed * _SPEC_SEED_MIX + 1)
    specs = []
    for i in range(count):
        specs.append(
            FuzzSpec(
                seed=master_seed * 1_000_000 + i,
                duration_s=duration_s,
                phases=rng.randint(2, 6),
                burstiness=round(rng.random(), 3),
                periodicity_ms=round(10.0 + 90.0 * rng.random(), 3),
                ramp=round(rng.random(), 3),
                idle_storm=round(0.4 * rng.random(), 3),
                deadline_tightness=round(0.15 + 0.7 * rng.random(), 3),
                processes=1 + (i % 2),
            )
        )
    return specs
