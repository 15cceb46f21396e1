"""Voltage/frequency sequencing: the DVFS side of the simulated kernel.

:class:`DvfsEngine` applies governor requests to the machine the way the
paper's modified kernel (and any real cpufreq driver) must: clamp the
requested step into the table, raise the core rail *before* a frequency
increase and drop it *after* a decrease, charge the ~200 us clock-change
stall, and track the rail-sag window after a voltage drop (during which
the rail — and hence power — is still at the old voltage).

The engine is machine-generic: when a request names a frequency without a
voltage, it asks :meth:`~repro.hw.machine.Machine.auto_volts_for` what the
machine's voltage-management convention wants.  On the Itsy that raises
the rail only when the requested frequency is unsafe at the present
voltage; on the SA-2 it tracks the per-step voltage schedule in both
directions.

Time accounting stays in the scheduler core: the engine calls back into a
small host interface (``now_us``, ``stall``, ``emit_freq_change``,
``emit_volt_change``) implemented by the kernel.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.hw.machine import Machine
from repro.kernel.governor import GovernorRequest
from repro.traces.schema import FreqChange, VoltChange

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.scheduler import Kernel


class DvfsEngine:
    """Sequences clock and voltage transitions for one machine.

    Attributes:
        machine: the machine being driven.
        sag_until_us: end of the current voltage-sag window (power must be
            computed at :attr:`sag_volts` before this time).
        sag_volts: the pre-drop voltage in effect during the sag window.
    """

    def __init__(self, machine: Machine):
        self.machine = machine
        self.sag_until_us = -1.0
        self.sag_volts = 0.0
        # auto_volts_for is pure in (requested step, present rail
        # voltage) on every machine (Itsy checks rail safety, SA-2 reads
        # its per-step schedule); a busy interval policy asks the same
        # handful of questions ~1000 times per run.
        self._auto_volts: dict = {}

    def apply(self, request: GovernorRequest, host: "Kernel") -> None:
        """Apply a governor request with safe voltage/frequency sequencing.

        Like a real cpufreq driver, the kernel adjusts the core rail on
        its own (per the machine's convention) when a requested frequency
        comes without a voltage.  An *explicit* voltage request that is
        unsafe with the requested frequency is a governor bug and raises
        ``VoltageError``.
        """
        machine = self.machine
        target_volts = request.volts
        if request.step_index is not None and target_volts is None:
            key = (request.step_index, machine.volts)
            cache = self._auto_volts
            if key in cache:
                target_volts = cache[key]
            else:
                table = machine.clock_table
                clamped = table[table.clamp_index(request.step_index)]
                target_volts = machine.auto_volts_for(clamped)
                cache[key] = target_volts
        raise_volts_first = (
            target_volts is not None and target_volts > machine.volts
        )
        if raise_volts_first:
            self._apply_voltage(target_volts, host)

        if request.step_index is not None:
            old = machine.step
            stall = machine.set_step_index(request.step_index)
            if machine.step.index != old.index:
                if stall > 0:
                    # The processor cannot execute during the switch; the
                    # clock generator output is treated as the new step's
                    # nap power.
                    host.stall(stall)
                # FreqChange is frozen; building it through the instance
                # dict skips four object.__setattr__ calls, and a busy
                # interval policy applies ~1000 changes per minute run.
                change = FreqChange.__new__(FreqChange)
                change.__dict__.update(
                    time_us=host.now_us,
                    from_mhz=old.mhz,
                    to_mhz=machine.step.mhz,
                    stall_us=stall,
                )
                host.emit_freq_change(change)

        if target_volts is not None and not raise_volts_first:
            self._apply_voltage(target_volts, host)

    def _apply_voltage(self, volts: float, host: "Kernel") -> None:
        old = self.machine.volts
        if volts == old:
            return
        settle = self.machine.set_voltage(volts)
        if volts < old and settle > 0:
            # The rail sags slowly: power stays at the old voltage until
            # the rail settles.  Execution continues meanwhile.
            self.sag_until_us = host.now_us + settle
            self.sag_volts = old
        change = VoltChange.__new__(VoltChange)
        change.__dict__.update(
            time_us=host.now_us, from_volts=old, to_volts=volts, settle_us=settle
        )
        host.emit_volt_change(change)
