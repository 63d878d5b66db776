"""Streaming moment accumulation and small distribution diagnostics.

RunningMoments keeps count/mean and 2nd..4th central moment sums with
single-pass updates, one value at a time.  The Kolmogorov-Smirnov distance is
against a fully specified normal null (erf-based CDF), which is all the
harness needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Below this variance a sample is treated as degenerate (e.g. c = 0 runs).
DEGENERATE_VARIANCE = 1e-30


@dataclass
class RunningMoments:
    """Single-pass mean and central moment sums M2..M4 (Pebay update)."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0
    m3: float = 0.0
    m4: float = 0.0

    def update(self, x: float) -> None:
        n1 = self.count
        n = n1 + 1
        delta = x - self.mean
        dn = delta / n
        dn2 = dn * dn
        term1 = delta * dn * n1
        self.mean += dn
        self.m4 += term1 * dn2 * (n * n - 3 * n + 3) + 6 * dn2 * self.m2 - 4 * dn * self.m3
        self.m3 += term1 * dn * (n - 2) - 3 * dn * self.m2
        self.m2 += term1
        self.count = n

    def extend(self, xs) -> "RunningMoments":
        for x in xs:
            self.update(float(x))
        return self

    def variance(self, ddof: int = 1) -> float:
        if self.count <= ddof:
            return math.nan
        return self.m2 / (self.count - ddof)

    @property
    def degenerate(self) -> bool:
        return self.count < 2 or self.m2 / max(self.count - 1, 1) < DEGENERATE_VARIANCE

    def skewness(self) -> float:
        """Moment skewness g1 = m3 / m2^(3/2) (population form)."""
        if self.degenerate:
            return math.nan
        n = self.count
        return (self.m3 / n) / (self.m2 / n) ** 1.5

    def excess_kurtosis(self) -> float:
        """g2 = m4 / m2^2 - 3 (population form)."""
        if self.degenerate:
            return math.nan
        n = self.count
        return (self.m4 / n) / (self.m2 / n) ** 2 - 3.0


_ERF = np.vectorize(math.erf, otypes=[np.float64])


def normal_cdf(x: np.ndarray, mu: float = 0.0, sigma: float = 1.0) -> np.ndarray:
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    z = (np.asarray(x, dtype=np.float64) - mu) / (sigma * math.sqrt(2.0))
    return 0.5 * (1.0 + _ERF(z))


def ks_normal_distance(sample, mu: float, sigma2: float) -> float:
    """sup-norm distance between the empirical CDF and Normal(mu, sigma2)."""
    if not sigma2 > 0.0:
        raise ValueError("sigma2 must be positive")
    xs = np.sort(np.asarray(sample, dtype=np.float64))
    n = xs.shape[0]
    if n == 0:
        raise ValueError("empty sample")
    cdf = normal_cdf(xs, mu, math.sqrt(sigma2))
    hi = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    return float(max(np.max(hi - cdf), np.max(cdf - lo)))


def binomial_se(p_hat: float, n: int) -> float:
    return math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n)


def nonincreasing_with_allowance(values, allowed_inversions: int = 1) -> bool:
    """Trend check: nonincreasing sequence, tolerating a bounded number of
    upticks (finite-replica noise has no monotonicity guarantee)."""
    vals = list(values)
    inversions = sum(1 for a, b in zip(vals, vals[1:]) if b > a)
    return inversions <= allowed_inversions
