"""Process model: generator coroutines yielding kernel actions.

A workload process is a Python generator.  Each ``yield`` hands the kernel
an *action*; the generator is resumed when the action completes, at which
point the simulated clock (visible through :class:`ProcessContext`) has
advanced.  This mirrors how the paper's applications interact with the
kernel: they compute, block in ``select``/``usleep``, or busy-wait on the
3.6 MHz processor timer (the MPEG player's 12 ms spin loop).

Actions:

- :class:`Compute` -- execute a :class:`~repro.hw.work.Work` amount of
  computation; duration depends on the clock step and the memory model.
- :class:`Sleep` / :class:`SleepUntil` -- block; wake-ups happen on the
  10 ms timer tick, as in Linux 2.0 (``jiffies`` granularity).
- :class:`SpinUntil` -- stay runnable and burn cycles until a precise time
  (polling ``gettimeofday``, which has microsecond resolution).
- :class:`Yield` -- go to the back of the run queue.
- :class:`Exit` -- terminate (returning from the generator does the same).

A process yields exactly one of these six classes: both kernels dispatch
on the action's class itself, so a subclass of an action, like any other
object, ends the run with ``TypeError: unknown process action``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Generator, Iterator, Optional, Union

from repro.hw.work import Work
from repro.traces.schema import AppEvent


@dataclass(frozen=True)
class Compute:
    """Execute ``work``; resumes when all of it has run."""

    work: Work


@dataclass(frozen=True)
class Sleep:
    """Block for ``duration_us`` (rounded up to the next timer tick)."""

    duration_us: float

    def __post_init__(self) -> None:
        if self.duration_us < 0:
            raise ValueError("sleep duration must be non-negative")


@dataclass(frozen=True)
class SleepUntil:
    """Block until ``wake_us`` (rounded up to the next timer tick)."""

    wake_us: float


@dataclass(frozen=True)
class SpinUntil:
    """Busy-wait (remaining runnable) until the precise time ``until_us``."""

    until_us: float


@dataclass(frozen=True)
class Yield:
    """Relinquish the CPU; rejoin the back of the run queue."""


@dataclass(frozen=True)
class Exit:
    """Terminate the process."""


Action = Union[Compute, Sleep, SleepUntil, SpinUntil, Yield, Exit]

#: A process body: a generator of actions, given its context at spawn.
ProcessBody = Callable[["ProcessContext"], Generator[Action, None, None]]


class ProcessState(enum.Enum):
    """Lifecycle states of a simulated process."""

    RUNNABLE = "runnable"
    SLEEPING = "sleeping"
    EXITED = "exited"


class ProcessContext:
    """The view a process body has of the kernel.

    Attributes are maintained by the kernel as simulation advances; bodies
    read :attr:`now_us` to make timing decisions (the MPEG player's
    spin-vs-sleep choice, deadline bookkeeping) and call :meth:`emit` to
    record application events for the deadline analysis.
    """

    def __init__(self, pid: int, name: str):
        self.pid = pid
        self.name = name
        self.now_us: float = 0.0
        self._events: list[AppEvent] = []

    def emit(
        self,
        kind: str,
        deadline_us: Optional[float] = None,
        payload: Optional[float] = None,
    ) -> AppEvent:
        """Record an application event at the current simulated time."""
        # AppEvent is a frozen dataclass; its generated __init__ funnels
        # every field through object.__setattr__.  Writing the instance
        # dict directly is several times cheaper, and emit() runs for
        # every frame/chunk/response of a workload (~1500 times per 60 s
        # run).  AppEvent has no __post_init__ or __slots__, so the
        # resulting object is indistinguishable from a normal one.
        event = AppEvent.__new__(AppEvent)
        event.__dict__.update(
            time_us=self.now_us,
            pid=self.pid,
            kind=kind,
            deadline_us=deadline_us,
            payload=payload,
        )
        self._events.append(event)
        return event

    @property
    def events(self) -> "list[AppEvent]":
        """All events emitted so far (kernel collects these per run)."""
        return self._events


class Process:
    """Kernel-side bookkeeping for one process.

    Attributes:
        pid: process identifier (pid 0 is reserved for the idle process).
        name: human-readable name for logs.
        state: lifecycle state.
        pending_work: remainder of an in-progress :class:`Compute`.
        spin_until_us: target of an in-progress :class:`SpinUntil`.
        wake_us: absolute wake time while sleeping.
    """

    def __init__(self, pid: int, name: str, body: ProcessBody):
        if pid <= 0:
            raise ValueError("user process pids must be positive (0 is idle)")
        self.pid = pid
        self.name = name
        self.context = ProcessContext(pid, name)
        self._gen: Iterator[Action] = body(self.context)
        self.state = ProcessState.RUNNABLE
        self.pending_work: Optional[Work] = None
        self.spin_until_us: Optional[float] = None
        self.wake_us: Optional[float] = None

    def advance(self, now_us: float) -> Optional[Action]:
        """Resume the generator and return its next action.

        Returns None when the generator finishes (process exits).
        """
        self.context.now_us = now_us
        try:
            return next(self._gen)
        except StopIteration:
            return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Process(pid={self.pid}, name={self.name!r}, state={self.state.value})"
