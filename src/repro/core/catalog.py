"""Named policy configurations used in the paper's evaluation.

Factories return fresh governor instances (policies carry predictor state,
so they must not be shared between runs).

Every policy of the evaluation is reachable by *name* through
:func:`resolve_policy` (the grammar the CLI exposes).  Names — unlike
governor instances or lambdas — pickle cleanly and digest stably, which
is what lets :mod:`repro.measure.parallel` ship sweep cells to worker
processes and cache their results content-addressed.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.core.cycleavg import CycleAverageGovernor
from repro.core.hysteresis import (
    BEST_POLICY_THRESHOLDS,
    PERING_THRESHOLDS,
    ThresholdPair,
)
from repro.core.policy import IntervalPolicy, VoltageRule
from repro.core.predictors import AvgN, Past
from repro.core.speed import Double, OneStep, Peg, SpeedSetter
from repro.hw.clocksteps import ClockTable, SA1100_CLOCK_TABLE
from repro.kernel.governor import ConstantGovernor, Governor

#: The speed setters of the paper, by name.
SPEED_SETTERS: Dict[str, type] = {
    "one": OneStep,
    "double": Double,
    "peg": Peg,
}


def make_setter(name: str) -> SpeedSetter:
    """Instantiate a speed setter by its paper name (one / double / peg)."""
    try:
        return SPEED_SETTERS[name]()
    except KeyError:
        raise ValueError(f"unknown speed setter {name!r}") from None


def constant_speed(
    mhz: float,
    volts: Optional[float] = None,
    clock_table: ClockTable = SA1100_CLOCK_TABLE,
) -> ConstantGovernor:
    """A constant-speed control run (the first rows of Table 2).

    With ``volts=None`` the kernel manages the rail by the machine's own
    convention (the Itsy holds its boot voltage; the SA-2 follows its
    per-step schedule); an explicit voltage pins the rail instead.

    Raises:
        ValueError: if the table has no step at ``mhz``.
    """
    try:
        step = clock_table.step_for_mhz(mhz)
    except KeyError:
        raise ValueError(
            f"no {mhz:g} MHz step in the clock table "
            f"(steps: {', '.join(f'{s.mhz:g}' for s in clock_table)})"
        ) from None
    return ConstantGovernor(step_index=step.index, volts=volts)


def pering_avg(
    n: int,
    up: str = "one",
    down: str = "one",
    thresholds: ThresholdPair = PERING_THRESHOLDS,
    voltage_rule: Optional[VoltageRule] = None,
    clock_table: ClockTable = SA1100_CLOCK_TABLE,
) -> IntervalPolicy:
    """An AVG_N policy with Pering's 50 %/70 % starting-point thresholds."""
    return IntervalPolicy(
        predictor=AvgN(n),
        thresholds=thresholds,
        up=make_setter(up),
        down=make_setter(down),
        voltage_rule=voltage_rule,
        clock_table=clock_table,
    )


def best_policy(
    voltage_scaling: bool = False,
    clock_table: ClockTable = SA1100_CLOCK_TABLE,
) -> IntervalPolicy:
    """The best policy of the empirical study (§5.4).

    PAST (= AVG_0) prediction, pegging both directions, scale up above 98 %
    utilization and down below 93 %.  With ``voltage_scaling`` the core
    rail drops to 1.23 V whenever the clock is at or below 162.2 MHz
    (the last row of Table 2).
    """
    return IntervalPolicy(
        predictor=Past(),
        thresholds=BEST_POLICY_THRESHOLDS,
        up=Peg(),
        down=Peg(),
        voltage_rule=VoltageRule() if voltage_scaling else None,
        clock_table=clock_table,
    )


def cycle_average(window: int = 4) -> CycleAverageGovernor:
    """The naive busy-cycle averaging policy of Figure 5."""
    return CycleAverageGovernor(window=window)


_INTERVAL_PATTERN = re.compile(
    r"^(?:past|avg(\d+))-(one|double|peg)(?:-(\d+)-(\d+))?$"
)
_CONST_PATTERN = re.compile(r"^const-(\d+(?:\.\d+)?)(?:@(\d+(?:\.\d+)?))?$")


def resolve_policy(
    name: str, clock_table: Optional[ClockTable] = None
) -> Callable[[], Governor]:
    """Map a policy name to a fresh-governor factory.

    The grammar (also printed by ``python -m repro list-policies``):

    - ``const-<mhz>`` — constant speed, rail managed by the machine
      (e.g. ``const-132.7``);
    - ``const-<mhz>@<volts>`` — constant speed at an explicit core
      voltage (e.g. ``const-132.7@1.23``, the third row of Table 2);
    - ``best`` / ``best-voltage`` — the paper's best policy, optionally
      with voltage scaling at 162.2 MHz;
    - ``<pred>-<setter>`` — an interval policy: ``<pred>`` is ``past``
      or ``avg<N>``, ``<setter>`` is one/double/peg both directions,
      with Pering's 50/70 thresholds (e.g. ``avg9-peg``, ``past-one``);
    - ``<pred>-<setter>-<hi>-<lo>`` — the same with explicit scale-up /
      scale-down thresholds in percent: ``past-peg-98-93`` is the best
      policy of §5.4 by its construction;
    - ``cycleavg`` — the naive busy-cycle averaging policy of Figure 5;
    - ``synth`` — the synthesized-deadline governor (§6 future work).

    Args:
        name: a policy name in the grammar above.
        clock_table: the clock table constant speeds resolve against
            (None = the SA-1100 table).

    Raises:
        ValueError: for unknown names.
    """
    table = clock_table if clock_table is not None else SA1100_CLOCK_TABLE
    if name == "best":
        return lambda: best_policy(False, clock_table=table)
    if name == "best-voltage":
        return lambda: best_policy(True, clock_table=table)
    if name == "cycleavg":
        return lambda: cycle_average()
    if name == "synth":
        from repro.core.deadline import SynthesizedDeadlineGovernor

        return lambda: SynthesizedDeadlineGovernor()
    match = _CONST_PATTERN.match(name)
    if match:
        mhz = float(match.group(1))
        volts = float(match.group(2)) if match.group(2) else None
        return lambda: constant_speed(mhz, volts=volts, clock_table=table)
    match = _INTERVAL_PATTERN.match(name)
    if match:
        n_text, setter, hi_text, lo_text = match.groups()
        thresholds = (
            ThresholdPair(low=int(lo_text) / 100, high=int(hi_text) / 100)
            if hi_text is not None
            else PERING_THRESHOLDS
        )
        if n_text is None:
            return lambda: IntervalPolicy(
                predictor=Past(),
                thresholds=thresholds,
                up=make_setter(setter),
                down=make_setter(setter),
                clock_table=table,
            )
        n = int(n_text)
        return lambda: pering_avg(
            n, up=setter, down=setter, thresholds=thresholds, clock_table=table
        )
    raise ValueError(f"unknown policy {name!r}; see 'list-policies'")


def predictor_decay_n(name: str) -> Optional[int]:
    """The AVG_N decay length of a named policy's predictor, if any.

    Diagnostics recompute a policy's weighted-utilization series offline
    to compare predictions against realized utilization; that only works
    for policies whose predictor is AVG_N (PAST being AVG_0).  Returns
    ``0`` for ``past-*``/``best``/``best-voltage``, ``N`` for ``avg<N>-*``,
    and None for policies without an AVG_N predictor (constants,
    ``cycleavg``, ``synth``, unknown names).
    """
    if name in ("best", "best-voltage"):
        return 0
    match = _INTERVAL_PATTERN.match(name)
    if match:
        n_text = match.group(1)
        return 0 if n_text is None else int(n_text)
    return None


def sweep_avg_policies(
    n_values: Tuple[int, ...] = tuple(range(11)),
    setter_names: Tuple[str, ...] = ("one", "double", "peg"),
    thresholds: ThresholdPair = PERING_THRESHOLDS,
) -> Iterator[Tuple[str, Governor]]:
    """The comprehensive sweep of §5.3: AVG_N for N in 0..10 x setters.

    Yields ``(label, governor)`` pairs; the same setter is used both
    directions, as in the paper's summary sweep.
    """
    for n in n_values:
        for name in setter_names:
            label = f"AVG_{n}/{name}-{name}"
            yield label, pering_avg(n, up=name, down=name, thresholds=thresholds)
