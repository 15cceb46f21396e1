"""The MPEG workload: 320x200 video at 15 frames/s with WAV audio (§4.2).

Structure, per the paper:

- the player decodes and renders 15 frames per second (66.67 ms per frame,
  just under 7 scheduling quanta); a 14 s clip loops for 60 s of playback;
- audio is a WAV stream handed to a separate forked player process; the
  two stay synchronized only through their common 15 frame/s pacing;
- per-frame computation varies widely: I-frames (key frames) cost much
  more than P-frames and "do not necessarily occur at predictable
  intervals";
- the player's own scheduling heuristic (§5.3): when a frame finishes
  more than 12 ms before it is needed the player *sleeps*; closer than
  that it *spins*, so once the clock scales near the optimal value the
  apparent work increases -- "the kernel has no method of determining
  that this is wasteful work."

Calibration (with :data:`~repro.workloads.base.MPEG_FRAME_PROFILE` and
Table 3 memory costs): the mean frame needs ~60.5 ms of CPU at 132.7 MHz
and ~47 ms at 206.4 MHz, so with the audio process the workload runs at
~93 % utilization at 132.7 MHz (the slowest feasible step, as measured in
the paper) and ~72 % at 206.4 MHz, while 118.0 MHz cannot keep up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

from repro.workloads.base import (
    AUDIO_CHUNK_PROFILE,
    MPEG_FRAME_PROFILE,
    Workload,
    jitter_factor,
)

if TYPE_CHECKING:
    from repro.kernel.process import Action, ProcessContext
    from repro.kernel.scheduler import Kernel


@dataclass(frozen=True)
class MpegConfig:
    """Parameters of the MPEG playback workload.

    Attributes:
        fps: frame rate (15 in the paper; 30 fps models the shorter-deadline
            input discussed in §5.3 -- pair it with a smaller
            ``frame_work_scale`` for a clip encoded at lower cost per
            frame, or keep 1.0 for an infeasible stream).
        frame_work_scale: per-frame work relative to the paper's clip
            (input-dependent demand, §5.3: "an application may have
            different deadline requirements depending on its input").
        duration_s: total playback time (the 14 s clip looped to 60 s).
        gop: frames per group-of-pictures (one I-frame per ``gop`` frames).
        i_scale / p_scale: work of I- and P-frames relative to the mean
            frame; chosen so a GOP averages ~1.0.
        i_jitter_prob: probability that an extra I-frame replaces a P-frame
            (scene cut), making key frames unpredictable.
        spin_threshold_us: the player's spin-vs-sleep boundary (12 ms).
        frame_jitter_sigma: per-frame multiplicative work jitter.
        run_scale_sigma: per-run multiplicative work factor (content and
            background-daemon differences between runs); sized so repeated
            measurements show the paper's run-to-run spread -- 95 %
            confidence intervals a few tenths of a percent of the mean,
            "less than 0.7 %" (§4.1).
        spin_enabled: ablation switch for the spin loop.
        elastic: Pering-style player (§3 contrast): frames whose display
            time has already passed when decoding would start are dropped
            (emitting ``frame_drop``) instead of accumulating lateness.
            The paper deliberately assumes inelastic constraints; the
            elastic player exists to reproduce the energy-vs-frame-rate
            tradeoff its predecessors reported.
        sync_tolerance_us: audio/video desynchronization the user notices
            (80 ms: the ITU-style acceptability bound; transient I-frame
            lateness at 132.7 MHz stays under it, the unbounded drift at
            118.0 MHz blows through it).
    """

    fps: float = 15.0
    frame_work_scale: float = 1.0
    duration_s: float = 60.0
    gop: int = 8
    i_scale: float = 1.30
    p_scale: float = 0.957
    i_jitter_prob: float = 0.04
    spin_threshold_us: float = 12_000.0
    frame_jitter_sigma: float = 0.05
    run_scale_sigma: float = 0.0045
    spin_enabled: bool = True
    elastic: bool = False
    sync_tolerance_us: float = 80_000.0
    audio_chunk_ms: float = 100.0

    def __post_init__(self) -> None:
        if self.fps <= 0 or self.duration_s <= 0:
            raise ValueError("fps and duration must be positive")
        if self.gop < 1:
            raise ValueError("gop must be at least 1")
        if self.i_scale <= 0 or self.p_scale <= 0 or self.frame_work_scale <= 0:
            raise ValueError("frame work scales must be positive")
        if not 0.0 <= self.i_jitter_prob <= 1.0:
            raise ValueError("i_jitter_prob must be a probability")
        if self.spin_threshold_us < 0 or self.sync_tolerance_us < 0:
            raise ValueError("thresholds must be non-negative")
        if self.audio_chunk_ms <= 0:
            raise ValueError("audio chunk must be positive")

    @property
    def frame_interval_us(self) -> float:
        """Time between successive frame display deadlines."""
        return 1e6 / self.fps

    @property
    def n_frames(self) -> int:
        """Total frames in the playback."""
        return int(self.duration_s * self.fps)


def mpeg_player_body(cfg: MpegConfig, seed: int):
    """The video player process: decode, then sleep or spin to the deadline."""
    from repro.kernel.process import Compute, SleepUntil, SpinUntil


    def body(ctx: ProcessContext) -> Generator[Action, None, None]:
        rng = random.Random(seed)
        session = jitter_factor(rng, cfg.run_scale_sigma)
        start = ctx.now_us
        interval = cfg.frame_interval_us
        for n in range(cfg.n_frames):
            deadline = start + (n + 1) * interval
            if cfg.elastic and ctx.now_us >= deadline:
                # Pering-style elasticity: the frame is already stale;
                # drop it rather than decode late.
                ctx.emit("frame_drop", deadline_us=None, payload=float(n))
                continue
            is_key = (n % cfg.gop == 0) or (rng.random() < cfg.i_jitter_prob)
            scale = (cfg.i_scale if is_key else cfg.p_scale) * session
            scale *= cfg.frame_work_scale
            scale *= jitter_factor(rng, cfg.frame_jitter_sigma)
            yield Compute(MPEG_FRAME_PROFILE.work(scale))
            ctx.emit("frame", deadline_us=deadline, payload=float(n))
            slack = deadline - ctx.now_us
            if slack > cfg.spin_threshold_us or (slack > 0 and not cfg.spin_enabled):
                yield SleepUntil(deadline)
            elif slack > 0:
                yield SpinUntil(deadline)
            # If the frame is late there is no wait: decoding of the next
            # frame starts immediately so synchronization can recover.

    return body


def audio_player_body(cfg: MpegConfig, seed: int):
    """The forked audio process: decode one WAV chunk per period.

    Each chunk must be delivered before the previous chunk finishes
    playing; chunk ``n`` therefore carries the deadline ``start + (n+1) *
    chunk_period``.
    """
    from repro.kernel.process import Compute, SleepUntil


    def body(ctx: ProcessContext) -> Generator[Action, None, None]:
        rng = random.Random(seed ^ 0xA0D10)
        start = ctx.now_us
        period = cfg.audio_chunk_ms * 1000.0
        n_chunks = int(cfg.duration_s * 1e6 / period)
        # One chunk is chunk_ms of audio; the profile unit is calibrated to
        # ~2.3 ms of CPU per 100 ms chunk at 132.7 MHz.
        unit_per_chunk = cfg.audio_chunk_ms / 100.0
        for n in range(n_chunks):
            scale = unit_per_chunk * jitter_factor(rng, 0.03)
            yield Compute(AUDIO_CHUNK_PROFILE.work(scale))
            deadline = start + (n + 1) * period
            ctx.emit("audio_chunk", deadline_us=deadline, payload=float(n))
            if ctx.now_us < deadline:
                yield SleepUntil(deadline)

    return body


def setup_mpeg(kernel: Kernel, seed: int, cfg: MpegConfig = MpegConfig()) -> None:
    """Spawn the MPEG player and its audio process into ``kernel``."""
    kernel.spawn("mpeg_play", mpeg_player_body(cfg, seed))
    kernel.spawn("wav_play", audio_player_body(cfg, seed))


def mpeg_workload(cfg: MpegConfig = MpegConfig()) -> Workload:
    """The MPEG workload descriptor."""
    return Workload(
        name="MPEG",
        duration_s=cfg.duration_s,
        tolerance_us=cfg.sync_tolerance_us,
        setup=lambda kernel, seed: setup_mpeg(kernel, seed, cfg),
    )
