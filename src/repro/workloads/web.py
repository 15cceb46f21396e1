"""The Web workload: the IceWeb Java browser (§4.2).

The user opens a stored www.news.com article, scrolls through the full
text, returns to the root menu, then opens an HTML version of WRL technical
report TN-56 ("which has many tables describing characteristics of power
usage in Itsy components") and scrolls through that.  190 seconds of
activity.

The browser is a Java application: it carries the Kaffe 30 ms polling loop
and pays JIT warm-up on first-time actions.  Each input event triggers a
render burst (layout + paint); page loads are large bursts, scrolls
moderate ones, with the TN-56 tables costing more per scroll.  Every event
emits a ``ui_response`` application event whose deadline encodes the
responsiveness budget the user tolerates (chosen so a constant 132.7 MHz
meets every deadline, per §5.1, while very low speeds visibly lag).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

from repro.workloads.base import FULL_SPEED, JAVA_PROFILE, Workload, jitter_factor
from repro.workloads.events import InputTrace, web_trace
from repro.workloads.java import JavaConfig, jit_warmup_work, spawn_jvm_poller

if TYPE_CHECKING:
    from repro.kernel.process import Action, ProcessContext
    from repro.kernel.scheduler import Kernel


@dataclass(frozen=True)
class WebConfig:
    """Parameters of the Web browsing workload.

    Attributes:
        duration_s: trace length (190 s in the paper).
        page_load_us_at_206: render burst for a page load at full speed.
        scroll_us_at_206: render burst per scroll at full speed.
        response_budget_us: lateness budget for a ``ui_response`` --
            how much longer than the burst itself the user will tolerate.
    """

    duration_s: float = 190.0
    page_load_us_at_206: float = 650_000.0
    scroll_us_at_206: float = 110_000.0
    back_us_at_206: float = 60_000.0
    response_budget_us: float = 450_000.0
    burst_jitter_sigma: float = 0.08

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")
        for field_name in (
            "page_load_us_at_206",
            "scroll_us_at_206",
            "back_us_at_206",
            "response_budget_us",
        ):
            if getattr(self, field_name) < 0:
                raise ValueError(f"{field_name} must be non-negative")


_EVENT_COST_FIELD = {
    "page_load": "page_load_us_at_206",
    "scroll": "scroll_us_at_206",
    "back": "back_us_at_206",
}


def browser_body(cfg: WebConfig, trace: InputTrace, seed: int):
    """The IceWeb browser process: sleep until each input, then render."""
    from repro.kernel.process import Compute, SleepUntil


    def body(ctx: ProcessContext) -> Generator[Action, None, None]:
        rng = random.Random(seed ^ 0x1CE3)
        java_cfg = JavaConfig(duration_s=cfg.duration_s)
        seen_kinds = set()
        for event in trace:
            if ctx.now_us < event.time_us:
                yield SleepUntil(event.time_us)
            base_us = getattr(cfg, _EVENT_COST_FIELD[event.kind])
            burst_us = base_us * event.magnitude * jitter_factor(
                rng, cfg.burst_jitter_sigma
            )
            work = JAVA_PROFILE.work_for_duration(burst_us, FULL_SPEED)
            if event.kind not in seen_kinds:
                seen_kinds.add(event.kind)
                work = work + jit_warmup_work(java_cfg, event.magnitude)
            yield Compute(work)
            # The user notices if the render lags the input by more than
            # the burst-plus-budget: the budget already covers the time the
            # work takes at the slowest acceptable speed.
            deadline = event.time_us + burst_us + cfg.response_budget_us
            ctx.emit("ui_response", deadline_us=deadline, payload=event.time_us)

    return body


def setup_web(
    kernel: Kernel,
    seed: int,
    cfg: WebConfig = WebConfig(),
) -> None:
    """Spawn the browser and the JVM poller into ``kernel``."""
    trace = web_trace(seed, cfg.duration_s)
    kernel.spawn("iceweb", browser_body(cfg, trace, seed))
    spawn_jvm_poller(kernel, seed, JavaConfig(duration_s=cfg.duration_s))


def web_workload(cfg: WebConfig = WebConfig()) -> Workload:
    """The Web workload descriptor."""
    return Workload(
        name="Web",
        duration_s=cfg.duration_s,
        tolerance_us=0.0,  # the budget is already inside the deadlines
        setup=lambda kernel, seed: setup_web(kernel, seed, cfg),
    )
