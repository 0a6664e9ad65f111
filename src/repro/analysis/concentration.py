"""Concentration inequalities (Appendix A) and exact binomial tails.

The paper's Appendix A states the multiplicative Chernoff bounds used
throughout the analysis (inequalities (6) and (7)).  These functions
evaluate the bounds and, for validation, the exact binomial tails they
dominate, so the test-suite can check both that the implementation is
correct and that the bounds really do upper-bound the exact probabilities.
"""

from __future__ import annotations

import math

from ..errors import ConfigurationError

__all__ = [
    "chernoff_lower_tail",
    "chernoff_upper_tail",
    "hoeffding_bound",
    "binomial_tail_exact",
    "lemma1_empty_bins_bound",
    "lemma4_tetris_bound",
    "lemma5_exponent",
]


def chernoff_lower_tail(mu: float, delta: float) -> float:
    """Appendix A, inequality (6): ``P(X <= (1 - delta) mu) <= exp(-delta^2 mu / 2)``.

    ``mu`` is a lower bound on ``E[X]`` and ``delta`` must lie in ``(0, 1)``.
    """
    if mu < 0:
        raise ConfigurationError(f"mu must be >= 0, got {mu}")
    if not 0 < delta < 1:
        raise ConfigurationError(f"delta must be in (0, 1), got {delta}")
    return math.exp(-(delta**2) * mu / 2.0)


def chernoff_upper_tail(mu: float, delta: float) -> float:
    """Appendix A, inequality (7): ``P(X >= (1 + delta) mu) <= exp(-delta^2 mu / 3)``.

    ``mu`` is an upper bound on ``E[X]`` and ``delta`` must lie in ``(0, 1)``.
    """
    if mu < 0:
        raise ConfigurationError(f"mu must be >= 0, got {mu}")
    if not 0 < delta < 1:
        raise ConfigurationError(f"delta must be in (0, 1), got {delta}")
    return math.exp(-(delta**2) * mu / 3.0)


def hoeffding_bound(n: int, deviation: float) -> float:
    """Hoeffding's inequality for ``n`` independent [0, 1] variables:
    ``P(X - E[X] >= n * deviation) <= exp(-2 n deviation^2)``."""
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    if deviation < 0:
        raise ConfigurationError(f"deviation must be >= 0, got {deviation}")
    return math.exp(-2.0 * n * deviation * deviation)


def binomial_tail_exact(n: int, p: float, threshold: float, upper: bool = True) -> float:
    """Exact binomial tail: ``P(X >= threshold)`` (``upper=True``) or
    ``P(X <= threshold)`` for ``X ~ Binomial(n, p)``."""
    if n < 0:
        raise ConfigurationError(f"n must be >= 0, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"p must be in [0, 1], got {p}")
    from scipy import stats  # lazy: keeps scipy out of `import repro`

    dist = stats.binom(n, p)
    if upper:
        return float(dist.sf(math.ceil(threshold) - 1))
    return float(dist.cdf(math.floor(threshold)))


# ----------------------------------------------------------------------
# The specific exponential bounds instantiated in the paper's lemmas.
# ----------------------------------------------------------------------
def lemma1_empty_bins_bound(n: int, epsilon: float = 0.1) -> float:
    """Lemma 1's bound ``P(X <= n/4) <= exp(-eps^2 n / (4 (1 + eps)))``.

    ``epsilon`` is the slack constant from the proof (any fixed value in
    (0, 1) works for large ``n``); the default matches a conservative choice.
    """
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    if not 0 < epsilon < 1:
        raise ConfigurationError(f"epsilon must be in (0, 1), got {epsilon}")
    return math.exp(-(epsilon**2) * n / (4.0 * (1.0 + epsilon)))


def lemma4_tetris_bound(n: int) -> float:
    """Lemma 4's per-bin failure bound ``exp(-n / 180)`` for the event that a
    bin stays non-empty for all of the first ``5 n`` Tetris rounds."""
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    return math.exp(-n / 180.0)


def lemma5_exponent(t: float) -> float:
    """Lemma 5's tail exponent: ``exp(-t / 144)``."""
    if t < 0:
        raise ConfigurationError(f"t must be >= 0, got {t}")
    return math.exp(-t / 144.0)
