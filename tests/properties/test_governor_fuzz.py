"""Fuzzing: arbitrary governors must never corrupt kernel invariants.

A governor is third-party policy code; whatever (clamped-range) requests
it makes, the kernel must keep its accounting sound on *every* machine
model: rail safety holds, power recording stays gap-free, utilization
stays bounded, and transitions are all accounted for.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.machines import MachineSpec
from repro.hw.rails import CoreRail, VOLTAGE_HIGH, VOLTAGE_LOW
from repro.kernel.config import KernelConfig
from repro.kernel.governor import Governor, GovernorRequest
from repro.kernel.scheduler import Kernel
from repro.workloads.mpeg import MpegConfig, setup_mpeg

Q = 10_000.0

MACHINES = ["itsy", "itsy-stock", "sa2"]

request_strategy = st.one_of(
    st.none(),
    st.builds(
        GovernorRequest,
        step_index=st.one_of(st.none(), st.integers(-3, 14)),
        volts=st.one_of(st.none(), st.sampled_from([VOLTAGE_HIGH, VOLTAGE_LOW])),
    ),
)


class ScriptedFuzzGovernor(Governor):
    """Replays a fixed list of requests, sanitized for rail safety.

    The sanitizing mirrors what any real governor must do on the machine
    it actually runs on: never ask for a voltage outside the rail's safe
    envelope at the requested clock.  Everything else -- random jumps,
    redundant requests, None -- is fair game.
    """

    def __init__(self, requests, machine):
        self.requests = list(requests)
        self.machine = machine
        self._i = 0

    def _safe_volts(self, volts, effective_step_index):
        rail = self.machine.cpu.rail
        if not isinstance(rail, CoreRail):
            # scheduled rails (sa2) pick their own per-step voltage
            return None
        if volts != VOLTAGE_LOW:
            return volts
        config = getattr(self.machine, "config", None)
        if config is not None and not config.low_voltage_available:
            # stock Itsy: the reduced rail setting does not exist
            return VOLTAGE_HIGH
        step = self.machine.clock_table[effective_step_index]
        if not rail.allows(VOLTAGE_LOW, step):
            return VOLTAGE_HIGH
        return VOLTAGE_LOW

    def on_tick(self, info):
        if self._i >= len(self.requests):
            return None
        req = self.requests[self._i]
        self._i += 1
        if req is None:
            return None
        step_index = req.step_index
        table = self.machine.clock_table
        effective = step_index if step_index is not None else info.step_index
        effective = table.clamp_index(effective)
        return GovernorRequest(
            step_index=step_index,
            volts=self._safe_volts(req.volts, effective),
        )

    def reset(self):
        self._i = 0


def supported_voltages(machine):
    rail = machine.cpu.rail
    if isinstance(rail, CoreRail):
        return {rail.high_volts, rail.low_volts}
    return set(rail.volts_by_index)


@pytest.mark.parametrize("preset", MACHINES)
@settings(max_examples=20, deadline=None)
@given(requests=st.lists(request_strategy, min_size=1, max_size=60))
def test_fuzzed_governor_preserves_invariants(preset, requests):
    machine = MachineSpec.parse(preset).build()
    table = machine.clock_table
    kernel = Kernel(
        machine,
        governor=ScriptedFuzzGovernor(requests, machine),
        config=KernelConfig(sched_overhead_us=6.0),
    )
    setup_mpeg(kernel, seed=0, cfg=MpegConfig(duration_s=1.0))
    run = kernel.run(100 * Q)

    # rail safety: the final machine state is a legal combination
    assert machine.cpu.rail.allows(machine.volts, machine.step)

    # power recording is gap-free and covers the whole run
    segments = list(run.timeline)
    assert segments[0][0] == 0.0
    for (s1, e1, _), (s2, _, __) in zip(segments, segments[1:]):
        assert abs(e1 - s2) < 1e-6
    assert abs(segments[-1][1] - run.duration_us) < 1e-6

    # utilization bounded; quanta contiguous
    for q in run.quanta:
        assert 0.0 <= q.utilization <= 1.0
    assert len(run.quanta) == 100

    # every recorded frequency change cost exactly one stall
    assert run.clock_changes == len(run.freq_changes)
    assert run.clock_stall_us == sum(f.stall_us for f in run.freq_changes)

    # voltage changes stay within the machine's own supported settings
    allowed_volts = supported_voltages(machine)
    for change in run.volt_changes:
        assert {change.from_volts, change.to_volts} <= allowed_volts

    # quantum frequencies only ever take this machine's table values
    assert {q.mhz for q in run.quanta} <= set(table.frequencies_mhz())
