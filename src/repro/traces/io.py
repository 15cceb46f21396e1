"""Trace export: per-quantum records as CSV.

The paper's host computer stored DAQ streams and kernel logs for offline
analysis; :func:`save_quanta_csv` saves the per-quantum series behind
Figure 3 next to the benchmark's printed output.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Sequence, Union

from repro.traces.schema import QuantumRecord


def save_quanta_csv(
    path: Union[str, Path], quanta: Sequence[QuantumRecord]
) -> None:
    """Write per-quantum records (the Figure 3 raw data) as CSV."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(
            ["end_us", "busy_us", "quantum_us", "step_index", "mhz", "volts"]
        )
        for q in quanta:
            writer.writerow(
                [q.end_us, q.busy_us, q.quantum_us, q.step_index, q.mhz, q.volts]
            )
