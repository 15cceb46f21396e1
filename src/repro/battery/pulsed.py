"""Pulsed-discharge battery model (§2.1; Chiasserini & Rao 1999).

The paper notes that battery capacity "can also be increased by
interspacing periods of high power demand with much longer periods of low
power demand resulting in a 'pulsed power' system", but argues the effect
matters less for pocket computers because recovery needs long quiet
periods while computer loads are comparatively steady.

We model this with the standard Kinetic Battery Model (KiBaM): charge
lives in an *available* well (directly usable) and a *bound* well that
replenishes the available well at a finite rate ``k'``.  High steady drain
exhausts the available well while charge remains bound (capacity loss);
rest periods let the wells equalize (recovery).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple


@dataclass
class PulsedDischargeModel:
    """KiBaM two-well battery.

    Attributes:
        capacity_c: total charge capacity (arbitrary charge units).
        c_fraction: fraction of capacity in the available well at rest.
        k_rate: well-equalization rate constant, 1/s.
        volts: pack voltage (converts power demand to current).
    """

    capacity_c: float
    c_fraction: float = 0.5
    k_rate: float = 1e-3
    volts: float = 3.0

    def __post_init__(self) -> None:
        if self.capacity_c <= 0:
            raise ValueError("capacity must be positive")
        if not 0.0 < self.c_fraction < 1.0:
            raise ValueError("c_fraction must be in (0, 1)")
        if self.k_rate <= 0 or self.volts <= 0:
            raise ValueError("rate and voltage must be positive")
        self.reset()

    def reset(self) -> None:
        """Return to a fully charged, equalized state."""
        self.available = self.c_fraction * self.capacity_c
        self.bound = (1.0 - self.c_fraction) * self.capacity_c
        self.delivered = 0.0
        self.dead = False

    @property
    def remaining(self) -> float:
        """Total charge remaining in both wells."""
        return self.available + self.bound

    def step(self, power_w: float, dt_s: float, substep_s: float = 1.0) -> float:
        """Drain at ``power_w`` for ``dt_s`` seconds.

        Integrates the KiBaM ODEs with forward-Euler substeps.  Returns the
        charge actually delivered; if the available well empties the
        battery is *dead* (voltage collapse under load) and delivery stops.
        """
        if dt_s < 0 or power_w < 0:
            raise ValueError("negative time or power")
        if self.dead:
            return 0.0
        current = power_w / self.volts
        delivered = 0.0
        t = 0.0
        while t < dt_s and not self.dead:
            h = min(substep_s, dt_s - t)
            # Well heights normalize by the well size so equalization pulls
            # toward equal *fractional* fill.
            h1 = self.available / self.c_fraction
            h2 = self.bound / (1.0 - self.c_fraction)
            flow = self.k_rate * (h2 - h1) * h
            draw = current * h
            if draw > self.available + flow:
                # The available well empties mid-step: the battery dies.
                delivered += max(0.0, self.available + flow)
                self.bound -= flow
                self.available = 0.0
                self.dead = True
                break
            self.available += flow - draw
            self.bound -= flow
            delivered += draw
            t += h
        self.delivered += delivered
        return delivered

    def time_to_death_s(
        self, power_w: float, rest_power_w: float = 0.0,
        pulse_s: float = 0.0, rest_s: float = 0.0, max_s: float = 1e7,
    ) -> float:
        """Runtime under constant or pulsed drain.

        With ``pulse_s == 0`` the drain is constant at ``power_w``;
        otherwise it alternates ``pulse_s`` at ``power_w`` with ``rest_s``
        at ``rest_power_w``.
        """
        self.reset()
        t = 0.0
        phases: List[Tuple[float, float]] = (
            [(power_w, 60.0)]
            if pulse_s <= 0
            else [(power_w, pulse_s), (rest_power_w, rest_s)]
        )
        while not self.dead and t < max_s:
            for p, d in phases:
                self.step(p, d)
                t += d
                if self.dead or t >= max_s:
                    break
        return t
