"""Utilization-series helpers for Figures 3 and 4.

Figure 3 plots the raw per-10 ms-quantum utilization over 30-40 s windows;
because most processes run whole quanta, the signal is mostly 0 or 1.
Figure 4 smooths the same data with a 100 ms moving average, making each
application's structure visible (frame periodicity, think/search phases,
synthesis bursts).  The paper notes that even a 1 s moving average of MPEG
still swings 60-80 %.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.kernel.scheduler import KernelRun


def utilization_series(run: KernelRun) -> Tuple[np.ndarray, np.ndarray]:
    """Per-quantum (time_us, utilization) arrays from a kernel run."""
    times = np.array([q.end_us for q in run.quanta])
    utils = np.array([q.utilization for q in run.quanta])
    return times, utils


def moving_average(values: Sequence[float], window: int) -> np.ndarray:
    """Trailing moving average with a ramp-in head.

    Entry ``i`` averages ``values[max(0, i-window+1) .. i]``; a 100 ms
    window over 10 ms quanta is ``window=10`` (Figure 4), a 1 s window is
    ``window=100``.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return arr.copy()
    csum = np.concatenate([[0.0], np.cumsum(arr)])
    out = np.empty_like(arr)
    for i in range(arr.size):
        lo = max(0, i - window + 1)
        out[i] = (csum[i + 1] - csum[lo]) / (i + 1 - lo)
    return out


def busy_idle_runs(utilizations: Sequence[float], busy_above: float = 0.5) -> List[Tuple[bool, int]]:
    """Run-length encode a utilization series into busy/idle stretches.

    Used to characterize application time-scales (e.g. MPEG's ~7-quantum
    frames, §5.1).  Returns ``[(is_busy, length), ...]``.
    """
    runs: List[Tuple[bool, int]] = []
    for u in utilizations:
        busy = u > busy_above
        if runs and runs[-1][0] == busy:
            runs[-1] = (busy, runs[-1][1] + 1)
        else:
            runs.append((busy, 1))
    return runs
