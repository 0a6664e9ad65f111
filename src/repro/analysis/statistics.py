"""Descriptive statistics for Monte-Carlo trials.

Experiments run many independent trials of a stochastic quantity (maximum
load over a window, convergence time, cover time, ...).  These helpers turn
the raw trial vectors into the summaries reported in EXPERIMENTS.md:
means with confidence intervals, quantiles, and the empirical "w.h.p."
probability of an event holding across trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..rng import as_generator
from ..types import SeedLike

__all__ = [
    "TrialSummary",
    "summarize_trials",
    "mean_confidence_interval",
    "bootstrap_confidence_interval",
    "empirical_whp_probability",
]


@dataclass(frozen=True)
class TrialSummary:
    """Summary statistics of one scalar quantity across independent trials."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    median: float
    q10: float
    q90: float
    ci_low: float
    ci_high: float

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "max": self.maximum,
            "median": self.median,
            "q10": self.q10,
            "q90": self.q90,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
        }


def _as_clean_array(values: Sequence[float]) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ConfigurationError(f"values must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ConfigurationError("values must be non-empty")
    if np.any(~np.isfinite(arr)):
        raise ConfigurationError("values must be finite")
    return arr


def mean_confidence_interval(
    values: Sequence[float], confidence: float = 0.95
) -> Tuple[float, float, float]:
    """Return ``(mean, low, high)`` of a Student-t confidence interval."""
    if not 0 < confidence < 1:
        raise ConfigurationError(f"confidence must be in (0, 1), got {confidence}")
    arr = _as_clean_array(values)
    mean = float(arr.mean())
    if arr.size == 1:
        return mean, mean, mean
    sem = float(arr.std(ddof=1) / math.sqrt(arr.size))
    if sem == 0.0:
        return mean, mean, mean
    # lazy, and scipy.special rather than scipy.stats, whose import takes
    # longer than many an experiment: stdtrit is the t quantile t.ppf calls
    from scipy.special import stdtrit

    half = float(stdtrit(arr.size - 1, 0.5 + confidence / 2.0) * sem)
    return mean, mean - half, mean + half


def summarize_trials(values: Sequence[float], confidence: float = 0.95) -> TrialSummary:
    """Full descriptive summary of a trial vector."""
    arr = _as_clean_array(values)
    mean, low, high = mean_confidence_interval(arr, confidence)
    return TrialSummary(
        count=int(arr.size),
        mean=mean,
        std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        minimum=float(arr.min()),
        maximum=float(arr.max()),
        median=float(np.median(arr)),
        q10=float(np.quantile(arr, 0.10)),
        q90=float(np.quantile(arr, 0.90)),
        ci_low=low,
        ci_high=high,
    )


def bootstrap_confidence_interval(
    values: Sequence[float],
    statistic: Callable[[np.ndarray], float] = np.mean,
    confidence: float = 0.95,
    n_resamples: int = 2000,
    seed: SeedLike = None,
) -> Tuple[float, float, float]:
    """Percentile-bootstrap interval ``(point, low, high)`` for an arbitrary statistic."""
    if not 0 < confidence < 1:
        raise ConfigurationError(f"confidence must be in (0, 1), got {confidence}")
    if n_resamples < 10:
        raise ConfigurationError(f"n_resamples must be >= 10, got {n_resamples}")
    arr = _as_clean_array(values)
    rng = as_generator(seed)
    point = float(statistic(arr))
    resampled = np.empty(n_resamples)
    for i in range(n_resamples):
        sample = arr[rng.integers(0, arr.size, size=arr.size)]
        resampled[i] = statistic(sample)
    alpha = (1.0 - confidence) / 2.0
    return point, float(np.quantile(resampled, alpha)), float(np.quantile(resampled, 1.0 - alpha))


def empirical_whp_probability(
    successes: int, trials: int, confidence: float = 0.95
) -> Tuple[float, float, float]:
    """Estimate of an event probability with a Wilson-score interval.

    Used to report statements like "the domination held in 100/100 trials"
    together with a defensible lower confidence bound.
    """
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise ConfigurationError(f"successes must be in [0, {trials}], got {successes}")
    if not 0 < confidence < 1:
        raise ConfigurationError(f"confidence must be in (0, 1), got {confidence}")
    p_hat = successes / trials
    from scipy.special import ndtri  # the normal quantile; see above

    z = float(ndtri(0.5 + confidence / 2.0))
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p_hat * (1 - p_hat) / trials + z * z / (4 * trials * trials)) / denom
    return p_hat, max(0.0, center - half), min(1.0, center + half)
