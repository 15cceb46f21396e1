"""The TalkingEditor workload: mpedit + DECtalk speech synthesis (§4.2).

The input trace records the user navigating the file dialogue, opening a
short text file, having it spoken aloud, then opening and speaking a second
file; 70 seconds in total.  The paper's Figure 3d/4d shows the structure:
bursty behaviour first ("dragging images, JIT'ing applications and opening
files"), then "long bursts of computation as the text is actually
synthesized and sent to the OSS-compatible sound driver," then further
cycles in the sound driver.

Processes:

- ``mpedit``: the Java editor, handling dialogue/open events (bursty UI);
- ``dectalk``: the synthesis engine (separate process).  Text is spoken in
  chunks; chunk *n+1* must be synthesized before chunk *n* finishes
  playing or the speech gaps audibly.  Synthesis runs faster than real
  time at high clock rates (~0.35 s of CPU at 206.4 MHz per second of
  speech), so a constant 132.7 MHz still keeps up while very low speeds
  starve the audio;
- ``oss_audio``: the sound driver, small periodic work while speech plays.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, List, Tuple

from repro.workloads.base import (
    AUDIO_CHUNK_PROFILE,
    FULL_SPEED,
    JAVA_PROFILE,
    SYNTH_PROFILE,
    Workload,
    jitter_factor,
)
from repro.workloads.events import InputTrace, editor_trace
from repro.workloads.java import JavaConfig, jit_warmup_work, spawn_jvm_poller

if TYPE_CHECKING:
    from repro.kernel.process import Action, ProcessContext
    from repro.kernel.scheduler import Kernel


@dataclass(frozen=True)
class EditorConfig:
    """Parameters of the TalkingEditor workload.

    Attributes:
        duration_s: trace length (70 s in the paper).
        ui_burst_us_at_206: editor UI work per dialogue event.
        open_burst_us_at_206: work to open and lay out a file.
        synth_cpu_per_speech_s_at_206: seconds of CPU (at 206.4 MHz) needed
            to synthesize one second of speech (~0.35: faster than real
            time, but not by a huge margin).
        chunk_speech_s: seconds of speech per synthesis chunk.
        gap_tolerance_us: audible speech-gap threshold.
        response_budget_us: lateness budget for UI responses.
    """

    duration_s: float = 70.0
    ui_burst_us_at_206: float = 180_000.0
    open_burst_us_at_206: float = 350_000.0
    synth_cpu_per_speech_s_at_206: float = 0.35
    chunk_speech_s: float = 2.0
    gap_tolerance_us: float = 30_000.0
    response_budget_us: float = 400_000.0
    burst_jitter_sigma: float = 0.08

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")
        if self.chunk_speech_s <= 0:
            raise ValueError("chunk length must be positive")
        if self.synth_cpu_per_speech_s_at_206 <= 0:
            raise ValueError("synthesis rate must be positive")
        if self.gap_tolerance_us < 0 or self.response_budget_us < 0:
            raise ValueError("tolerances must be non-negative")


def editor_ui_body(cfg: EditorConfig, trace: InputTrace, seed: int):
    """The mpedit Java UI: dialogue navigation and file opening."""
    from repro.kernel.process import Compute, SleepUntil


    def body(ctx: ProcessContext) -> Generator[Action, None, None]:
        rng = random.Random(seed ^ 0xED17)
        java_cfg = JavaConfig(duration_s=cfg.duration_s)
        seen_kinds = set()
        for event in trace:
            if event.kind not in ("dialog", "open_file"):
                continue
            if ctx.now_us < event.time_us:
                yield SleepUntil(event.time_us)
            base = (
                cfg.open_burst_us_at_206
                if event.kind == "open_file"
                else cfg.ui_burst_us_at_206
            )
            burst_us = base * event.magnitude * jitter_factor(
                rng, cfg.burst_jitter_sigma
            )
            work = JAVA_PROFILE.work_for_duration(burst_us, FULL_SPEED)
            if event.kind not in seen_kinds:
                seen_kinds.add(event.kind)
                work = work + jit_warmup_work(java_cfg, event.magnitude)
            yield Compute(work)
            deadline = event.time_us + burst_us + cfg.response_budget_us
            ctx.emit("ui_response", deadline_us=deadline, payload=event.time_us)

    return body


def _speech_chunks(cfg: EditorConfig, trace: InputTrace) -> List[Tuple[float, float]]:
    """Flatten speak events into (request_time_us, speech_seconds) chunks."""
    chunks: List[Tuple[float, float]] = []
    for event in trace.of_kind("speak"):
        remaining = event.magnitude
        t = event.time_us
        while remaining > 1e-9:
            chunk = min(cfg.chunk_speech_s, remaining)
            chunks.append((t, chunk))
            remaining -= chunk
    return chunks


def dectalk_body(cfg: EditorConfig, trace: InputTrace, seed: int):
    """The DECtalk synthesis engine.

    Chunk *n* may start once it has been requested and chunk *n-1* is
    synthesized; it must be ready by the time the already-queued audio runs
    out (its ``speech_chunk`` deadline).  Playback of a chunk begins when
    both the synthesizer finishes it and the previous chunk has drained.
    """
    from repro.kernel.process import Compute, SleepUntil


    def body(ctx: ProcessContext) -> Generator[Action, None, None]:
        rng = random.Random(seed ^ 0xDEC7)
        playback_end = None  # when queued audio runs out
        for request_us, speech_s in _speech_chunks(cfg, trace):
            if ctx.now_us < request_us:
                yield SleepUntil(request_us)
                playback_end = None  # a new utterance starts fresh
            cpu_s = speech_s * cfg.synth_cpu_per_speech_s_at_206
            work = SYNTH_PROFILE.work_for_duration(
                cpu_s * 1e6 * jitter_factor(rng, cfg.burst_jitter_sigma),
                FULL_SPEED,
            )
            yield Compute(work)
            deadline = playback_end  # None for the first chunk of a speak
            ctx.emit("speech_chunk", deadline_us=deadline, payload=speech_s)
            play_start = (
                ctx.now_us if playback_end is None else max(ctx.now_us, playback_end)
            )
            playback_end = play_start + speech_s * 1e6

    return body


def oss_audio_body(cfg: EditorConfig, trace: InputTrace, seed: int):
    """The OSS sound driver: small periodic work while speech plays.

    The driver's schedule is approximated from the nominal (full-speed)
    synthesis timeline; it is background load, not a deadline source.
    """
    from repro.kernel.process import Compute, SleepUntil


    def body(ctx: ProcessContext) -> Generator[Action, None, None]:
        rng = random.Random(seed ^ 0x0551)
        period_us = 100_000.0
        for event in trace.of_kind("speak"):
            start = event.time_us + cfg.synth_cpu_per_speech_s_at_206 * 1e6
            if ctx.now_us < start:
                yield SleepUntil(start)
            end = start + event.magnitude * 1e6
            while ctx.now_us < end:
                yield Compute(
                    AUDIO_CHUNK_PROFILE.work(jitter_factor(rng, 0.05))
                )
                yield SleepUntil(ctx.now_us + period_us)

    return body


def setup_editor(
    kernel: Kernel,
    seed: int,
    cfg: EditorConfig = EditorConfig(),
) -> None:
    """Spawn the editor UI, DECtalk, the sound driver and the JVM poller."""
    trace = editor_trace(seed, cfg.duration_s)
    kernel.spawn("mpedit", editor_ui_body(cfg, trace, seed))
    kernel.spawn("dectalk", dectalk_body(cfg, trace, seed))
    kernel.spawn("oss_audio", oss_audio_body(cfg, trace, seed))
    spawn_jvm_poller(kernel, seed, JavaConfig(duration_s=cfg.duration_s))


def editor_workload(cfg: EditorConfig = EditorConfig()) -> Workload:
    """The TalkingEditor workload descriptor."""
    return Workload(
        name="TalkingEditor",
        duration_s=cfg.duration_s,
        tolerance_us=cfg.gap_tolerance_us,
        setup=lambda kernel, seed: setup_editor(kernel, seed, cfg),
    )
