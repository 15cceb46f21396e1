"""The paper's workloads (§4.2), rebuilt as scripted processes.

Four applications drive the evaluation: MPEG video+audio playback, the
IceWeb Java browser, a Java GUI around the Crafty chess engine, and the
TalkingEditor (mpedit + DECtalk speech synthesis).  Interactive workloads
replay timestamped input-event traces with millisecond accuracy
(:mod:`repro.workloads.events`); MPEG is untraced, as in the paper.

:mod:`repro.workloads.synthetic` adds the idealized signals of the
stability analysis (§5.3), and :mod:`repro.workloads.fuzz` generates
seeded scenario families beyond the hand-written four.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

if TYPE_CHECKING:
    from repro.workloads.base import Workload


def all_workloads() -> List[Workload]:
    """The paper's four workloads with default configurations."""
    from repro.workloads.chess import chess_workload
    from repro.workloads.editor import editor_workload
    from repro.workloads.mpeg import mpeg_workload
    from repro.workloads.web import web_workload

    return [mpeg_workload(), web_workload(), chess_workload(), editor_workload()]
