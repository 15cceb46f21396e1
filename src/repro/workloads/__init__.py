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

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.workloads.base import Workload

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "base": ("WorkProfile", "Workload", "combine_workloads"),
        "chess": ("ChessConfig", "chess_workload", "setup_chess"),
        "editor": ("EditorConfig", "editor_workload", "setup_editor"),
        "events": ("InputEvent", "InputTrace"),
        "fuzz": ("FuzzSpec", "fuzz_family", "fuzz_workload"),
        "java": ("JavaConfig", "spawn_jvm_poller"),
        "mpeg": ("MpegConfig", "mpeg_workload", "setup_mpeg"),
        "replay": (
            "RecordedQuantum",
            "ReplayMode",
            "record_from_run",
            "replay_workload",
        ),
        "web": ("WebConfig", "setup_web", "web_workload"),
    },
)
__all__.append("all_workloads")


def all_workloads() -> List[Workload]:
    """The paper's four workloads with default configurations."""
    from repro.workloads.chess import chess_workload
    from repro.workloads.editor import editor_workload
    from repro.workloads.mpeg import mpeg_workload
    from repro.workloads.web import web_workload

    return [mpeg_workload(), web_workload(), chess_workload(), editor_workload()]
