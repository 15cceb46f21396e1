"""The Chess workload: a Java GUI driving Crafty (§4.2).

A 218 s trace covers a complete game of Crafty v16.10 against a novice
player.  Crafty runs as a separate (non-Java) process; it "uses a play book
for opening moves and then plays for specific periods of time in later
stages of the games and plays the best move available when time expires."

Demand structure (Figure 4c): utilization is low while the user thinks or
moves (only the GUI and the Kaffe poll loop run) and reaches 100 % while
Crafty plans.  Because the search is *time-bounded* rather than
work-bounded, slowing the clock does not lengthen the search -- it only
reduces the number of positions examined -- so the deadline-bearing events
are the GUI responses (move animation, board redraw), not the search
itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

from repro.workloads.base import (
    CHESS_PROFILE,
    FULL_SPEED,
    JAVA_PROFILE,
    Workload,
    jitter_factor,
)
from repro.workloads.events import InputTrace, chess_trace
from repro.workloads.java import JavaConfig, jit_warmup_work, spawn_jvm_poller

if TYPE_CHECKING:
    from repro.kernel.process import Action, ProcessContext
    from repro.kernel.scheduler import Kernel


@dataclass(frozen=True)
class ChessConfig:
    """Parameters of the Chess workload.

    Attributes:
        duration_s: trace length (218 s in the paper).
        gui_burst_us_at_206: GUI work per move (animation, board redraw).
        search_slice_us_at_206: Crafty's search is a loop of short
            evaluation slices until its time budget expires; this is the
            slice size at full speed.
        response_budget_us: lateness budget for GUI responses.
    """

    duration_s: float = 218.0
    gui_burst_us_at_206: float = 90_000.0
    search_slice_us_at_206: float = 5_000.0
    response_budget_us: float = 350_000.0
    burst_jitter_sigma: float = 0.08

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")
        if self.gui_burst_us_at_206 < 0 or self.response_budget_us < 0:
            raise ValueError("burst and budget must be non-negative")
        if self.search_slice_us_at_206 <= 0:
            raise ValueError("search slice must be positive")


def chess_gui_body(cfg: ChessConfig, trace: InputTrace, seed: int):
    """The Java GUI: animate user moves and display engine replies."""
    from repro.kernel.process import Compute, SleepUntil


    def body(ctx: ProcessContext) -> Generator[Action, None, None]:
        rng = random.Random(seed ^ 0xC4E5)
        java_cfg = JavaConfig(duration_s=cfg.duration_s)
        first = True
        for event in trace:
            if event.kind not in ("user_move", "engine_move"):
                continue
            # The GUI reacts to a user move immediately; an engine move is
            # displayed once the search delivers it (event time + budget).
            anchor = event.time_us
            if event.kind == "engine_move":
                anchor += event.magnitude * 1e6
            if ctx.now_us < anchor:
                yield SleepUntil(anchor)
            burst_us = cfg.gui_burst_us_at_206 * jitter_factor(
                rng, cfg.burst_jitter_sigma
            )
            work = JAVA_PROFILE.work_for_duration(burst_us, FULL_SPEED)
            if first:
                first = False
                work = work + jit_warmup_work(java_cfg, 1.0)
            yield Compute(work)
            deadline = anchor + burst_us + cfg.response_budget_us
            ctx.emit("ui_response", deadline_us=deadline, payload=anchor)

    return body


def crafty_body(cfg: ChessConfig, trace: InputTrace, seed: int):
    """The Crafty engine: time-bounded search after each user move.

    The search loop issues short evaluation slices until the wall-clock
    budget attached to the ``engine_move`` event expires -- at a slower
    clock the same wall time simply covers fewer positions.
    """
    from repro.kernel.process import Compute, SleepUntil


    def body(ctx: ProcessContext) -> Generator[Action, None, None]:
        rng = random.Random(seed ^ 0xCF47)
        slice_work = CHESS_PROFILE.work_for_duration(
            cfg.search_slice_us_at_206, FULL_SPEED
        )
        for event in trace.of_kind("engine_move"):
            if ctx.now_us < event.time_us:
                yield SleepUntil(event.time_us)
            search_end = event.time_us + event.magnitude * 1e6
            while ctx.now_us < search_end:
                yield Compute(slice_work.scaled(jitter_factor(rng, 0.1)))
            ctx.emit("engine_reply", deadline_us=None, payload=event.time_us)

    return body


def setup_chess(
    kernel: Kernel,
    seed: int,
    cfg: ChessConfig = ChessConfig(),
) -> None:
    """Spawn the GUI, the engine and the JVM poller into ``kernel``."""
    trace = chess_trace(seed, cfg.duration_s)
    kernel.spawn("chess_gui", chess_gui_body(cfg, trace, seed))
    kernel.spawn("crafty", crafty_body(cfg, trace, seed))
    spawn_jvm_poller(kernel, seed, JavaConfig(duration_s=cfg.duration_s))


def chess_workload(cfg: ChessConfig = ChessConfig()) -> Workload:
    """The Chess workload descriptor."""
    return Workload(
        name="Chess",
        duration_s=cfg.duration_s,
        tolerance_us=0.0,
        setup=lambda kernel, seed: setup_chess(kernel, seed, cfg),
    )
