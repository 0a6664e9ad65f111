"""Negative-association diagnostics (Appendix B).

Appendix B shows that the per-round arrival counts ``X_t`` at a fixed bin of
the repeated balls-into-bins process are *not* negatively associated, by an
exact ``n = 2`` counterexample: with both balls starting in separate bins,

``P(X_1 = 0, X_2 = 0) = 1/8  >  P(X_1 = 0) * P(X_2 = 0) = 1/4 * 3/8``.

The exact enumeration lives in :func:`repro.markov.small_n.appendix_b_counterexample`;
this module adds the generic pairwise test used on joint distributions and a
Monte-Carlo estimator of the same correlation for larger ``n`` (where exact
enumeration is infeasible), which experiment E14 reports alongside the exact
``n = 2`` numbers.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..core.config import LoadConfiguration
from ..core.process import RepeatedBallsIntoBins
from ..errors import ConfigurationError
from ..rng import as_generator
from ..types import SeedLike

__all__ = [
    "is_negatively_associated_pair",
    "negative_association_gap",
    "empirical_arrival_correlation",
    "empirical_zero_zero_probability",
]


def negative_association_gap(joint: Dict[Tuple[int, int], float]) -> float:
    """Return ``P(X=0, Y=0) - P(X=0) P(Y=0)`` for a joint pmf of two counts.

    Negative association (applied with the indicator of ``{0}``, which is a
    non-increasing function) requires this gap to be ``<= 0``; a positive gap
    certifies that the pair is *not* negatively associated.
    """
    if not joint:
        raise ConfigurationError("joint distribution must be non-empty")
    total = sum(joint.values())
    if not np.isclose(total, 1.0, atol=1e-8):
        raise ConfigurationError(f"joint distribution must sum to 1, got {total}")
    p_x0 = sum(p for (x, _y), p in joint.items() if x == 0)
    p_y0 = sum(p for (_x, y), p in joint.items() if y == 0)
    p_00 = joint.get((0, 0), 0.0)
    return p_00 - p_x0 * p_y0


def is_negatively_associated_pair(joint: Dict[Tuple[int, int], float], atol: float = 1e-12) -> bool:
    """Whether the zero-zero test of negative association passes (gap <= 0)."""
    return negative_association_gap(joint) <= atol


def empirical_zero_zero_probability(
    n_bins: int,
    trials: int,
    observed_bin: int = 0,
    rounds: Tuple[int, int] = (1, 2),
    seed: SeedLike = None,
) -> Dict[str, float]:
    """Monte-Carlo estimate of the Appendix B quantities for general ``n``.

    Runs ``trials`` independent copies of the process from the balanced
    configuration and estimates ``P(X_a = 0)``, ``P(X_b = 0)`` and the joint
    ``P(X_a = 0, X_b = 0)`` where ``X_t`` counts arrivals at ``observed_bin``
    in round ``t`` and ``(a, b) = rounds``.
    """
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    if n_bins < 2:
        raise ConfigurationError(f"n_bins must be >= 2, got {n_bins}")
    if not 0 <= observed_bin < n_bins:
        raise ConfigurationError(f"observed_bin out of range [0, {n_bins})")
    a, b = rounds
    if not 1 <= a < b:
        raise ConfigurationError(f"rounds must satisfy 1 <= a < b, got {rounds}")

    # one process, reset to the balanced start for every trial: a reset
    # draws nothing, so the trials run on one stream as fresh processes would
    start = LoadConfiguration.balanced(n_bins)
    process = RepeatedBallsIntoBins(n_bins, initial=start, seed=as_generator(seed))
    count_a0 = 0
    count_b0 = 0
    count_joint = 0
    for _ in range(trials):
        process.reset(start)
        arrivals_a = arrivals_b = None
        previous = process.loads.copy()
        for t in range(1, b + 1):
            nonempty_before = previous > 0
            loads = process.step()
            # arrivals at u = new load - (old load - 1 if old load > 0 else 0)
            departed = 1 if nonempty_before[observed_bin] else 0
            arrived = int(loads[observed_bin]) - (int(previous[observed_bin]) - departed)
            if t == a:
                arrivals_a = arrived
            if t == b:
                arrivals_b = arrived
            previous = loads.copy()
        if arrivals_a == 0:
            count_a0 += 1
        if arrivals_b == 0:
            count_b0 += 1
        if arrivals_a == 0 and arrivals_b == 0:
            count_joint += 1

    p_a0 = count_a0 / trials
    p_b0 = count_b0 / trials
    p_joint = count_joint / trials
    return {
        "p_first_zero": p_a0,
        "p_second_zero": p_b0,
        "p_joint_zero": p_joint,
        "product": p_a0 * p_b0,
        "gap": p_joint - p_a0 * p_b0,
    }


def empirical_arrival_correlation(
    n_bins: int,
    window: int,
    trials: int,
    observed_bin: int = 0,
    seed: SeedLike = None,
) -> float:
    """Empirical lag-1 autocorrelation of the arrival counts at one bin.

    A strictly positive value is the large-``n`` analogue of the Appendix B
    counterexample (arrivals in consecutive rounds are positively, not
    negatively, correlated).
    """
    if window < 3:
        raise ConfigurationError(f"window must be >= 3, got {window}")
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    start = LoadConfiguration.balanced(n_bins)
    process = RepeatedBallsIntoBins(n_bins, initial=start, seed=as_generator(seed))
    correlations = []
    for _ in range(trials):
        process.reset(start)  # as in empirical_zero_zero_probability
        arrivals = np.empty(window, dtype=np.int64)
        previous = process.loads.copy()
        for t in range(window):
            nonempty_before = previous[observed_bin] > 0
            loads = process.step()
            departed = 1 if nonempty_before else 0
            arrivals[t] = int(loads[observed_bin]) - (int(previous[observed_bin]) - departed)
            previous = loads.copy()
        x = arrivals[:-1].astype(float)
        y = arrivals[1:].astype(float)
        if x.std() > 0 and y.std() > 0:
            correlations.append(float(np.corrcoef(x, y)[0, 1]))
    if not correlations:
        return 0.0
    return float(np.mean(correlations))
