"""Statistical comparison of repeated experiments.

The paper reasons about Table 2 through 95 % confidence-interval overlap
("statistically significant reduction", "no statistical decrease").  This
module adds the sharper standard tool -- Welch's unequal-variance t-test
-- so configurations can be compared with explicit p-values, plus a small
report type used by benchmarks and examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, sqrt
from typing import Sequence

import numpy as np

from repro.measure.stats import t_sf


@dataclass(frozen=True)
class Comparison:
    """Outcome of comparing two samples of measured energies.

    Attributes:
        mean_a / mean_b: sample means.
        difference: ``mean_a - mean_b``.
        relative_difference: difference as a fraction of ``mean_b``.
        t_statistic: Welch's t.
        p_value: two-sided p-value.
        significant: whether p < alpha.
        alpha: the significance level used.
    """

    mean_a: float
    mean_b: float
    difference: float
    relative_difference: float
    t_statistic: float
    p_value: float
    significant: bool
    alpha: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        verdict = "significant" if self.significant else "not significant"
        return (
            f"{self.mean_a:.2f} vs {self.mean_b:.2f} "
            f"(diff {self.difference:+.2f}, p={self.p_value:.4f}, {verdict})"
        )


def welch_compare(
    sample_a: Sequence[float],
    sample_b: Sequence[float],
    alpha: float = 0.05,
) -> Comparison:
    """Welch's two-sided t-test on two samples.

    The statistic is the mean difference over its unpooled standard
    error; its degrees of freedom are the Welch–Satterthwaite estimate,
    and the p-value is twice the Student-t survival function at |t|.

    Args:
        sample_a / sample_b: at least two observations each.
        alpha: significance level.

    Raises:
        ValueError: with fewer than two observations or a bad alpha.
    """
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    if a.size < 2 or b.size < 2:
        raise ValueError("need at least two observations per sample")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    mean_a, mean_b = float(np.mean(a)), float(np.mean(b))
    # Squared standard errors of the two means.
    se2_a = float(np.var(a, ddof=1)) / a.size
    se2_b = float(np.var(b, ddof=1)) / b.size
    if se2_a == 0.0 and se2_b == 0.0:
        t_stat, p_value = (0.0, 1.0) if mean_a == mean_b else (inf, 0.0)
    else:
        t_stat = (mean_a - mean_b) / sqrt(se2_a + se2_b)
        df = (se2_a + se2_b) ** 2 / (
            se2_a ** 2 / (a.size - 1) + se2_b ** 2 / (b.size - 1)
        )
        p_value = 2.0 * t_sf(abs(t_stat), df)
    diff = mean_a - mean_b
    return Comparison(
        mean_a=mean_a,
        mean_b=mean_b,
        difference=diff,
        relative_difference=diff / mean_b if mean_b else float("inf"),
        t_statistic=t_stat,
        p_value=p_value,
        significant=p_value < alpha,
        alpha=alpha,
    )


def energies(results) -> "list[float]":
    """Extract the measured energies from a
    :class:`~repro.measure.parallel.RepeatedSummary`."""
    return [r.energy_j for r in results.results]
