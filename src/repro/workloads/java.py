"""Kaffe JVM behaviours shared by the Java workloads (§4.2, §5.1).

The paper's Web, Chess and TalkingEditor applications run on the Kaffe JVM,
whose GRX graphics library "uses a polling I/O model to check for new input
every 30 milliseconds"; when the application is otherwise idle this polling
"takes about a millisecond to complete" and injects the constant background
periodicity that destabilizes the clock-setting algorithms (§3, §5.3).

Kaffe also JITs: the first execution of new code costs an extra burst,
modelled as warm-up work attached to the first occurrence of each UI
action.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

from repro.workloads.base import FULL_SPEED, JAVA_PROFILE, jitter_factor

if TYPE_CHECKING:
    from repro.kernel.process import Action, ProcessContext
    from repro.kernel.scheduler import Kernel


@dataclass(frozen=True)
class JavaConfig:
    """JVM background behaviour parameters.

    Attributes:
        poll_period_us: the GRX input polling period (30 ms).
        poll_cost_us_at_206: CPU time one poll takes at full speed (~1 ms).
        duration_s: how long the JVM lives.
        jit_unit_us_at_206: warm-up burst per unit of JIT magnitude.
    """

    poll_period_us: float = 30_000.0
    poll_cost_us_at_206: float = 1_000.0
    duration_s: float = 60.0
    jit_unit_us_at_206: float = 120_000.0


def jvm_poller_body(cfg: JavaConfig, seed: int):
    """The 30 ms GRX input-polling loop, running for the workload's life."""
    from repro.kernel.process import Compute, Sleep


    def body(ctx: ProcessContext) -> Generator[Action, None, None]:
        rng = random.Random(seed ^ 0x3A7A)
        end = ctx.now_us + cfg.duration_s * 1e6
        poll_work = JAVA_PROFILE.work_for_duration(cfg.poll_cost_us_at_206, FULL_SPEED)
        poll_sleep = Sleep(cfg.poll_period_us)
        while ctx.now_us < end:
            yield Compute(poll_work.scaled(jitter_factor(rng, 0.05)))
            yield poll_sleep

    return body


def spawn_jvm_poller(
    kernel: Kernel, seed: int, cfg: JavaConfig = JavaConfig()
) -> None:
    """Add the JVM polling process to a kernel."""
    kernel.spawn("kaffe_poll", jvm_poller_body(cfg, seed))


def jit_warmup_work(cfg: JavaConfig, magnitude: float):
    """JIT warm-up work for a first-time UI action of the given magnitude."""
    return JAVA_PROFILE.work_for_duration(
        cfg.jit_unit_us_at_206 * magnitude, FULL_SPEED
    )
