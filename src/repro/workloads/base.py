"""Workload building blocks.

The paper's applications are real binaries (mpeg_play, IceWeb, Crafty,
mpedit + DECtalk, the Kaffe JVM); we rebuild them as scripted processes
whose *demand structure* matches what the paper reports: the same
periodicities, burst shapes, and memory-intensity, with small seeded
run-to-run jitter (the paper's repeated measurements had 95 % confidence
intervals under 0.7 % of the mean).

Work composition matters because of the frequency-dependent memory costs
(Table 3): the more memory-bound a burst is, the less it speeds up with the
clock.  Each application gets a :class:`WorkProfile` -- a fixed mix of core
cycles, individual-word references and cache-line fills -- and bursts are
scalar multiples of that mix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol

from repro.hw.clocksteps import ClockStep, SA1100_CLOCK_TABLE
from repro.hw.memory import SA1100_MEMORY_TIMINGS, MemoryTimings
from repro.hw.work import Work

if TYPE_CHECKING:
    from repro.kernel.scheduler import Kernel


@dataclass(frozen=True)
class WorkProfile:
    """A work composition: one *unit* of application activity.

    Attributes:
        cpu_cycles: core cycles per unit.
        mem_refs: individual-word memory references per unit.
        cache_refs: cache-line fills per unit.
    """

    cpu_cycles: float
    mem_refs: float
    cache_refs: float

    def work(self, scale: float = 1.0) -> Work:
        """A :class:`Work` of ``scale`` units of this profile."""
        cpu_cycles = self.cpu_cycles * scale
        mem_refs = self.mem_refs * scale
        cache_refs = self.cache_refs * scale
        if cpu_cycles < 0 or mem_refs < 0 or cache_refs < 0:
            # Let Work's own validation raise the usual error.
            return Work(
                cpu_cycles=cpu_cycles, mem_refs=mem_refs, cache_refs=cache_refs
            )
        # Work is frozen; building it through the instance dict skips
        # three object.__setattr__ calls plus the (just re-checked)
        # non-negativity validation.  Every workload burst comes through
        # here -- ~1500 times per 60 s run.
        w = Work.__new__(Work)
        w.__dict__.update(
            cpu_cycles=cpu_cycles, mem_refs=mem_refs, cache_refs=cache_refs
        )
        return w

    def unit_duration_us(
        self,
        step: ClockStep,
        timings: MemoryTimings = SA1100_MEMORY_TIMINGS,
    ) -> float:
        """Wall-clock duration of one unit at ``step``."""
        return self.work(1.0).duration_us(step, timings)

    def work_for_duration(
        self,
        duration_us: float,
        step: ClockStep,
        timings: MemoryTimings = SA1100_MEMORY_TIMINGS,
    ) -> Work:
        """Work sized to run for ``duration_us`` at ``step``.

        Used to express bursts as "x ms of computation at 206.4 MHz"; at
        other clock steps the same work takes correspondingly longer
        (sub-linearly, through the memory model).
        """
        if duration_us < 0:
            raise ValueError("duration must be non-negative")
        unit = self.unit_duration_us(step, timings)
        return self.work(duration_us / unit)


#: MPEG decode: media-decode mix, substantially memory-bound (framebuffer
#: and reference-frame traffic).  One unit ~= one mean video frame; see
#: :mod:`repro.workloads.mpeg` for the calibration.
MPEG_FRAME_PROFILE = WorkProfile(cpu_cycles=5.05e6, mem_refs=7.8e4, cache_refs=4.5e4)

#: Audio decode/copy: small, moderately memory-bound.
AUDIO_CHUNK_PROFILE = WorkProfile(cpu_cycles=1.6e5, mem_refs=4.0e3, cache_refs=2.0e3)

#: Java/JIT execution (browser, editor UI, chess GUI): pointer-chasing and
#: code-generation heavy, the most memory-bound mix.
JAVA_PROFILE = WorkProfile(cpu_cycles=1.0e6, mem_refs=2.4e4, cache_refs=1.4e4)

#: Speech synthesis (DECtalk): signal-processing loops, mostly core-bound.
SYNTH_PROFILE = WorkProfile(cpu_cycles=1.0e6, mem_refs=8.0e3, cache_refs=3.0e3)

#: Chess search (Crafty): hash-table probing, moderately memory-bound.
CHESS_PROFILE = WorkProfile(cpu_cycles=1.0e6, mem_refs=1.5e4, cache_refs=8.0e3)


def jitter_factor(rng: random.Random, sigma: float = 0.02) -> float:
    """A small multiplicative jitter around 1.0, clipped to +-4 sigma.

    Applied to burst sizes so repeated runs differ slightly, reproducing
    the paper's sub-0.7 % run-to-run confidence intervals.
    """
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    f = rng.gauss(1.0, sigma)
    # max(lo, min(hi, f)) as comparisons, ties and NaN alike (hot path).
    hi = 1.0 + 4.0 * sigma
    lo = 1.0 - 4.0 * sigma
    f = f if f < hi else hi
    return f if f > lo else lo


class WorkloadSetup(Protocol):
    """Spawns a workload's processes into a kernel."""

    def __call__(self, kernel: Kernel, seed: int) -> None: ...


@dataclass(frozen=True)
class Workload:
    """A named, runnable workload.

    Attributes:
        name: workload name as used in the paper ("MPEG", "Web", ...).
        duration_s: trace length (MPEG 60 s, Web 190 s, Chess 218 s,
            TalkingEditor 70 s).
        tolerance_us: per-event lateness below which the user cannot
            perceive a difference (the paper's "on time if delaying its
            completion did not adversely affect the user").
        setup: function spawning the processes into a kernel.
    """

    name: str
    duration_s: float
    tolerance_us: float
    setup: WorkloadSetup

    @property
    def duration_us(self) -> float:
        """Trace length in microseconds."""
        return self.duration_s * 1e6


#: Convenience: the fastest SA-1100 step, used to express burst durations
#: as "time at full speed".
FULL_SPEED = SA1100_CLOCK_TABLE.max_step
