"""Confidence intervals over repeated runs (§4.1).

The paper reports 95 % confidence intervals for energy over multiple runs
of each workload and found them "to be less than 0.7 % of the mean energy".
We use the standard two-sided Student-t interval on the sample mean.

The module needs ``math`` alone, so a command that only prints intervals
over cached results never loads numpy.  The Student-t survival function
is a regularized incomplete beta evaluated by its continued fraction;
the quantile has closed forms for df = 1 and 2 and is Newton-refined
from the survival function otherwise.  The sample mean and standard
error sum in numpy's pairwise order (:func:`_pairwise_sum`), so they
equal ``np.mean`` and ``np.std(ddof=1) / np.sqrt(n)`` bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, expm1, isnan, lgamma, log, log1p, pi, sqrt, tan
from typing import List, Sequence, Tuple

# Convergence tolerance of the continued fraction, and the floor that
# keeps Lentz's method from dividing by zero.
_CF_EPS = 1e-16
_CF_TINY = 1e-300
_CF_MAX_TERMS = 100_000
_NEWTON_MAX_STEPS = 100
_HALF_LOG_PI = 0.5 * log(pi)


def _stirling_tail(x: float) -> float:
    """lgamma(x) - ((x - 1/2) log x - x + log(2 pi) / 2), for large x."""
    return (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * x * x)) / (x * x)) / x


def _log_gamma_ratio(a: float) -> float:
    """log Gamma(a + 1/2) - log Gamma(a).

    For large a the two lgamma values are big and nearly equal, and their
    difference keeps only ~11 digits at a = 5000; there Stirling's series
    is differenced term by term instead.
    """
    if a < 50.0:
        return lgamma(a + 0.5) - lgamma(a)
    return (
        a * log1p(0.5 / a) + 0.5 * log(a) - 0.5
        + _stirling_tail(a + 0.5) - _stirling_tail(a)
    )


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of I_x(a, b), by the modified Lentz method.

    Converges quickly for x < (a + 1) / (a + b + 2); the caller uses
    the symmetry I_x(a, b) = 1 - I_{1-x}(b, a) above that point.
    """
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
    h = d
    for m in range(1, _CF_MAX_TERMS):
        m2 = 2 * m
        for coef in (
            m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
            -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0)),
        ):
            d = 1.0 + coef * d
            d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
            c = 1.0 + coef / c
            c = c if abs(c) > _CF_TINY else _CF_TINY
            h *= c * d
        if abs(c * d - 1.0) < _CF_EPS:
            return h
    raise ArithmeticError(f"incomplete beta did not converge (a={a}, b={b})")


def _t_log_pdf(t: float, df: float) -> float:
    """Log of the Student-t density with ``df`` degrees of freedom."""
    return (
        _log_gamma_ratio(0.5 * df) - 0.5 * (df + 1.0) * log1p(t * t / df)
        - 0.5 * log(df * pi)
    )


def t_sf(t: float, df: float) -> float:
    """Student-t survival function P(T > t) with ``df`` > 0 degrees of
    freedom.

    P(|T| > t) is the regularized incomplete beta I_x(df/2, 1/2) at
    x = df / (df + t²).  Both x and 1 - x are formed without
    subtraction, which keeps full relative precision in either tail.
    """
    if not df > 0.0:
        raise ValueError("degrees of freedom must be positive")
    if isnan(t):
        return t
    a = 0.5 * df
    t2 = t * t
    x = df / (df + t2)
    y = t2 / (df + t2)
    if x == 0.0:
        two_tail = 0.0
    elif y == 0.0:
        two_tail = 1.0
    else:
        log_x = log(x) if x < 0.5 else log1p(-y)
        log_y = log(y) if y < 0.5 else log1p(-x)
        # x^a y^(1/2) / B(a, 1/2); B(a, 1/2) = Gamma(a) sqrt(pi) / Gamma(a + 1/2).
        front = exp(a * log_x + 0.5 * log_y + _log_gamma_ratio(a) - _HALF_LOG_PI)
        if x < (a + 1.0) / (a + 2.5):
            two_tail = front * _beta_cf(a, 0.5, x) / a
        else:
            two_tail = 1.0 - 2.0 * front * _beta_cf(0.5, a, y)
    tail = 0.5 * two_tail
    return tail if t > 0.0 else 1.0 - tail


def t_ppf(p: float, df: float) -> float:
    """Student-t quantile: the t with P(T <= t) = ``p``, for ``df`` > 0.

    Works on the smaller tail q = min(p, 1 - p), which is exact in
    floating point, and restores the sign by symmetry.  df = 1 (Cauchy)
    and df = 2 have closed forms.  Otherwise Newton's method solves
    H(t) = q^(-1/df) for H = sf^(-1/df), which is convex because the
    t density is (-1/(df+1))-concave; so after the first step from
    t = 0 the iterates fall monotonically onto the root.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("probability must be in (0, 1)")
    if not df > 0.0:
        raise ValueError("degrees of freedom must be positive")
    if p == 0.5:
        return 0.0
    q = min(p, 1.0 - p)
    if df == 1.0:
        t = 1.0 / tan(pi * q)
    elif df == 2.0:
        t = (1.0 - 2.0 * q) / sqrt(2.0 * q * (1.0 - q))
    else:
        t, log_q = 0.0, log(q)
        for _ in range(_NEWTON_MAX_STEPS):
            sf = t_sf(t, df)
            if sf == 0.0:
                # For a tiny q at large df the first step can land where
                # sf underflows; back off, staying right of the root.
                t *= 0.5
                continue
            log_sf = log(sf)
            # The Newton step, in logs so that a density which underflows
            # far in the tail cannot divide by zero.
            step = df * expm1((log_sf - log_q) / df)
            step *= exp(log_sf - _t_log_pdf(t, df))
            t += step
            if abs(step) <= 1e-13 * t:
                break
    return t if p > 0.5 else -t


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided confidence interval on a mean.

    Attributes:
        mean: sample mean.
        low / high: interval bounds.
        level: confidence level (0.95).
        n: number of observations.
    """

    mean: float
    low: float
    high: float
    level: float
    n: int

    @property
    def half_width(self) -> float:
        """Half the interval width."""
        return (self.high - self.low) / 2.0

    @property
    def relative_half_width(self) -> float:
        """Half-width as a fraction of the mean (the paper's 0.7 % metric)."""
        if self.mean == 0:
            return float("inf")
        return abs(self.half_width / self.mean)

    def contains(self, value: float) -> bool:
        """True if ``value`` lies inside the interval."""
        return self.low <= value <= self.high

    def overlaps(self, other: "ConfidenceInterval") -> bool:
        """True if the two intervals overlap.

        The paper uses non-overlap as its "statistically significant
        difference" criterion when comparing Table 2 rows.
        """
        return self.low <= other.high and other.low <= self.high

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.low:.2f} - {self.high:.2f} (mean {self.mean:.2f}, n={self.n})"


def confidence_interval(
    values: Sequence[float], level: float = 0.95
) -> ConfidenceInterval:
    """Student-t confidence interval on the mean of ``values``.

    Args:
        values: at least two observations.
        level: confidence level in (0, 1).

    Raises:
        ValueError: with fewer than two observations or a bad level.
    """
    mean, sem = mean_and_sem(values)
    if not 0.0 < level < 1.0:
        raise ValueError("confidence level must be in (0, 1)")
    n = len(values)
    if sem == 0.0:
        return ConfidenceInterval(mean, mean, mean, level, n)
    t = t_ppf(0.5 + level / 2.0, n - 1)
    half = t * sem
    return ConfidenceInterval(mean, mean - half, mean + half, level, n)


def _pairwise_sum(xs: List[float], start: int, n: int) -> float:
    """``xs[start:start + n]`` summed in the order numpy's ``add.reduce``
    sums a contiguous float64 array: sequentially below 8 values, in 8
    interleaved accumulators up to 128, and by recursive halving (split
    at a multiple of 8) above.
    """
    if n < 8:
        total = 0.0
        for i in range(start, start + n):
            total += xs[i]
        return total
    if n <= 128:
        acc = xs[start : start + 8]
        stop = start + n - n % 8
        for i in range(start + 8, stop, 8):
            for j in range(8):
                acc[j] += xs[i + j]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + (
            (acc[4] + acc[5]) + (acc[6] + acc[7])
        )
        for i in range(stop, start + n):
            total += xs[i]
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(xs, start, half) + _pairwise_sum(
        xs, start + half, n - half
    )


def mean_and_sem(values: Sequence[float]) -> Tuple[float, float]:
    """Sample mean and standard error of the mean (ddof = 1).

    Bitwise equal to ``np.mean(a)`` and ``np.std(a, ddof=1) /
    np.sqrt(a.size)`` for ``a = np.asarray(values, dtype=float)``: both
    sums take numpy's pairwise order, and every other step is one
    correctly rounded operation, as in numpy.

    Raises:
        ValueError: with fewer than two observations.
    """
    xs = [float(v) for v in values]
    n = len(xs)
    if n < 2:
        raise ValueError("need at least two observations for an interval")
    mean = _pairwise_sum(xs, 0, n) / n
    deviations = [x - mean for x in xs]
    variance = _pairwise_sum([d * d for d in deviations], 0, n) / (n - 1)
    return mean, sqrt(variance) / sqrt(n)
