"""Occupancy (load-distribution) analysis.

Beyond the maximum load, the *distribution* of bin loads is informative: in
the classical one-shot experiment the load of a bin is asymptotically
Poisson(1), while in the repeated process the paper's drift argument
suggests a geometrically decaying tail (each extra unit of load requires
another "unlucky" round).  These helpers compute empirical occupancy
distributions from simulations, the Poisson reference, geometric tail fits,
and summary divergences, and they back the occupancy columns of the m-balls
and leaky-bins experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ..core.config import LoadConfiguration
from ..core.process import RepeatedBallsIntoBins
from ..errors import ConfigurationError
from ..metrics.trackers import BatchedLoadHistogramTracker
from ..types import SeedLike

__all__ = [
    "OccupancyDistribution",
    "empirical_occupancy",
    "poisson_occupancy",
    "geometric_tail_fit",
]


@dataclass(frozen=True)
class OccupancyDistribution:
    """A probability distribution over per-bin loads 0, 1, 2, ...

    Attributes
    ----------
    pmf:
        ``pmf[k]`` is the probability that a uniformly chosen (bin, round)
        pair holds exactly ``k`` balls.
    """

    pmf: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.pmf, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ConfigurationError("pmf must be a non-empty one-dimensional array")
        if np.any(arr < -1e-12):
            raise ConfigurationError("pmf entries must be non-negative")
        total = float(arr.sum())
        if total <= 0:
            raise ConfigurationError("pmf must have positive total mass")
        arr = np.clip(arr, 0.0, None) / total
        arr.setflags(write=False)
        object.__setattr__(self, "pmf", arr)

    @property
    def support_size(self) -> int:
        return int(self.pmf.size)

    @property
    def mean(self) -> float:
        """Mean load (equals m/n for a ball-conserving process)."""
        return float(np.dot(np.arange(self.pmf.size), self.pmf))

    @property
    def empty_fraction(self) -> float:
        """Probability of load zero (the empty-bin fraction)."""
        return float(self.pmf[0])

    def tail(self, k: int) -> float:
        """``P(load >= k)``."""
        if k < 0:
            raise ConfigurationError(f"k must be >= 0, got {k}")
        if k >= self.pmf.size:
            return 0.0
        return float(self.pmf[k:].sum())

    def quantile(self, q: float) -> int:
        """Smallest ``k`` with ``P(load <= k) >= q``."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"q must be in [0, 1], got {q}")
        cdf = np.cumsum(self.pmf)
        return int(np.searchsorted(cdf, q))

    def total_variation(self, other: "OccupancyDistribution") -> float:
        """Total variation distance to another occupancy distribution."""
        size = max(self.pmf.size, other.pmf.size)
        a = np.zeros(size)
        b = np.zeros(size)
        a[: self.pmf.size] = self.pmf
        b[: other.pmf.size] = other.pmf
        return 0.5 * float(np.abs(a - b).sum())


def empirical_occupancy(
    n_bins: int,
    rounds: int,
    n_balls: Optional[int] = None,
    warmup: Optional[int] = None,
    initial: Union[LoadConfiguration, np.ndarray, None] = None,
    seed: SeedLike = None,
    max_tracked_load: int = 256,
) -> OccupancyDistribution:
    """Empirical occupancy distribution of the repeated balls-into-bins process.

    Runs the process for ``warmup`` rounds (default ``4 n``, enough to forget
    the start by Theorem 1), then aggregates the load histogram over
    ``rounds`` further rounds.
    """
    if rounds < 1:
        raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
    process = RepeatedBallsIntoBins(n_bins, n_balls=n_balls, initial=initial, seed=seed)
    warmup_rounds = 4 * n_bins if warmup is None else int(warmup)
    if warmup_rounds < 0:
        raise ConfigurationError(f"warmup must be >= 0, got {warmup_rounds}")
    if warmup_rounds:
        process.run(warmup_rounds)
    tracker = BatchedLoadHistogramTracker(max_tracked_load=max_tracked_load)
    process.run(rounds, observers=[tracker])
    return OccupancyDistribution(tracker.counts[0])


def poisson_occupancy(mean: float = 1.0, support: int = 64) -> OccupancyDistribution:
    """The Poisson(mean) occupancy — the one-shot (independent throws) limit."""
    if mean < 0:
        raise ConfigurationError(f"mean must be >= 0, got {mean}")
    if support < 1:
        raise ConfigurationError(f"support must be >= 1, got {support}")
    ks = np.arange(support)
    log_pmf = ks * math.log(mean) - mean - np.asarray(
        [math.lgamma(k + 1) for k in ks]
    ) if mean > 0 else None
    if mean == 0:
        pmf = np.zeros(support)
        pmf[0] = 1.0
    else:
        pmf = np.exp(log_pmf)
    return OccupancyDistribution(pmf)


def geometric_tail_fit(
    distribution: OccupancyDistribution, start: int = 1, stop: Optional[int] = None
) -> float:
    """Fit the decay rate ``r`` of a geometric tail ``P(load >= k) ~ r^k``.

    Returns the fitted ratio ``r`` in (0, 1); smaller is faster decay.  The
    fit is a least-squares line through ``log P(load >= k)`` over the range
    ``k = start .. stop`` (``stop`` defaults to the last k with tail mass
    above 1e-9).
    """
    if start < 0:
        raise ConfigurationError(f"start must be >= 0, got {start}")
    tails = []
    ks = []
    k = start
    limit = distribution.support_size if stop is None else min(stop + 1, distribution.support_size)
    while k < limit:
        tail = distribution.tail(k)
        if tail <= 1e-9 and stop is None:
            break
        if tail > 0:
            ks.append(k)
            tails.append(tail)
        k += 1
    if len(ks) < 2:
        raise ConfigurationError("not enough tail mass to fit a geometric decay rate")
    slope, _intercept = np.polyfit(np.asarray(ks, dtype=float), np.log(np.asarray(tails)), 1)
    return float(np.exp(slope))
