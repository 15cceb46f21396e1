"""Hardware model of the Itsy pocket computer (StrongARM SA-1100).

This package models every hardware property the paper's policies and
measurements depend on:

- :mod:`repro.hw.clocksteps` -- the 11 discrete clock steps of the SA-1100
  (59.0 .. 206.4 MHz) and index arithmetic over them.
- :mod:`repro.hw.memory` -- the frequency-dependent memory timings of
  Table 3 (cycles per single-word reference and per cache-line fill).
- :mod:`repro.hw.work` -- the unit of application demand: a mix of core
  cycles, memory references and cache-line fills, whose wall-clock duration
  depends on the clock step through the memory model.
- :mod:`repro.hw.rails` -- the two power rails (1.5 V / 1.23 V core,
  3.3 V peripherals) and voltage transition behaviour (about 250 us to
  settle downward, effectively instantaneous upward).
- :mod:`repro.hw.power` -- the calibrated power model (core dynamic,
  pad/bus, frequency-tracking system power, fixed peripherals, nap).
- :mod:`repro.hw.cpu` -- the CPU execution model, including the ~200 us
  stall on every clock-frequency change and the "nap" idle mode.
- :mod:`repro.hw.machine` -- the abstract machine interface the kernel
  simulator drives.
- :mod:`repro.hw.itsy` -- the Itsy: whole-machine composition and presets.
- :mod:`repro.hw.sa2` -- the hypothetical SA-2 with true voltage scaling.
- :mod:`repro.hw.machines` -- named machine presets (:class:`MachineSpec`)
  for the sweep/cache layer and the CLI ``--machine`` flag.
"""
