"""Statistical gates for the conformance harness.

The harness compares *empirical* distributions (tuples of final loads,
window maxima, empty-bin counts over ``R`` independent replicas) against
*exact* probability vectors computed from the small-``n`` Markov layer.
This module owns the decision rule:

* :func:`pooled_chi_square` — Pearson goodness-of-fit with the classic
  small-cell remedy: cells whose expected count falls below
  ``min_expected`` are pooled (smallest expected first) so the chi-square
  approximation is valid even far out in the configuration space's tail.
  A sample landing in a zero-probability cell is an *impossible event*
  and fails outright (``p_value = 0``) — that is the strongest signal the
  harness can emit, and exactly what an off-by-one destination bug
  produces at small ``n``.
* :func:`total_variation` — the distance the paper's convergence
  statements are phrased in; reported alongside every gate for
  diagnostics (it is not itself a pass/fail criterion).
* :func:`bonferroni_alpha` — the harness runs hundreds of tests per
  invocation, so per-test thresholds are Bonferroni-corrected from one
  family-wise ``alpha_total``.  With the defaults the false-alarm rate of
  a full run is below one in a thousand, while a systematically biased
  kernel fails with astronomical confidence (the statistic grows linearly
  in ``R``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "GofResult",
    "pooled_chi_square",
    "total_variation",
    "bonferroni_alpha",
]


@dataclass(frozen=True)
class GofResult:
    """Outcome of one pooled chi-square goodness-of-fit test."""

    statistic: float
    df: int
    p_value: float
    n_samples: int
    n_cells: int
    tv_distance: float
    impossible_mass: float

    def passed(self, alpha: float) -> bool:
        """Gate decision at per-test significance ``alpha``."""
        if self.impossible_mass > 0:
            return False
        return self.p_value >= alpha


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """Total-variation distance between two probability vectors."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ConfigurationError(
            f"distributions have mismatched shapes {p.shape} vs {q.shape}"
        )
    return float(0.5 * np.abs(p - q).sum())


def bonferroni_alpha(alpha_total: float, n_tests: int) -> float:
    """Per-test significance level controlling the family-wise error rate."""
    if not 0.0 < alpha_total < 1.0:
        raise ConfigurationError(
            f"alpha_total must be in (0, 1), got {alpha_total}"
        )
    if n_tests < 1:
        raise ConfigurationError(f"n_tests must be >= 1, got {n_tests}")
    return alpha_total / n_tests


def pooled_chi_square(
    observed_counts: np.ndarray,
    expected_probs: np.ndarray,
    min_expected: float = 5.0,
) -> GofResult:
    """Pearson chi-square test of ``observed_counts`` against exact probs.

    Cells are pooled smallest-expected-first until every pooled cell's
    expected count reaches ``min_expected`` (or only one cell remains).
    Observed mass on cells with *zero* exact probability is returned as
    ``impossible_mass`` and fails the gate unconditionally — no amount of
    sampling noise can place a sample outside the chain's support.
    """
    observed = np.asarray(observed_counts, dtype=float)
    probs = np.asarray(expected_probs, dtype=float)
    if observed.shape != probs.shape:
        raise ConfigurationError(
            f"observed/expected shapes differ: {observed.shape} vs {probs.shape}"
        )
    if observed.ndim != 1:
        raise ConfigurationError("observed_counts must be one-dimensional")
    if np.any(observed < 0):
        raise ConfigurationError("observed_counts must be non-negative")
    if np.any(probs < -1e-12):
        raise ConfigurationError("expected_probs must be non-negative")
    probs = np.clip(probs, 0.0, None)
    total_prob = probs.sum()
    if not np.isclose(total_prob, 1.0, atol=1e-8):
        raise ConfigurationError(
            f"expected_probs must sum to 1, got {total_prob!r}"
        )
    n = float(observed.sum())
    if n <= 0:
        raise ConfigurationError("need at least one observation")

    # mass observed outside the exact support is an unconditional failure
    zero = probs <= 0.0
    impossible = float(observed[zero].sum())
    observed = observed[~zero]
    probs = probs[~zero]
    probs = probs / probs.sum()

    empirical = observed / n
    tv = total_variation(empirical, probs * 1.0)

    # pool smallest-expected cells until the chi-square approximation holds
    order = np.argsort(probs)
    observed = observed[order]
    expected = probs[order] * n
    cells_obs: list = []
    cells_exp: list = []
    acc_obs = 0.0
    acc_exp = 0.0
    for o, e in zip(observed, expected):
        acc_obs += o
        acc_exp += e
        if acc_exp >= min_expected:
            cells_obs.append(acc_obs)
            cells_exp.append(acc_exp)
            acc_obs = 0.0
            acc_exp = 0.0
    if acc_exp > 0:
        if cells_exp:
            cells_obs[-1] += acc_obs
            cells_exp[-1] += acc_exp
        else:
            cells_obs.append(acc_obs)
            cells_exp.append(acc_exp)
    obs_arr = np.asarray(cells_obs)
    exp_arr = np.asarray(cells_exp)
    df = len(cells_exp) - 1
    if df <= 0:
        # the support collapsed to one cell: nothing left to test
        statistic = 0.0
        p_value = 1.0
        df = 0
    else:
        from scipy import stats  # lazy: keeps scipy out of `import repro`

        statistic = float(((obs_arr - exp_arr) ** 2 / exp_arr).sum())
        p_value = float(stats.chi2.sf(statistic, df))
    return GofResult(
        statistic=statistic,
        df=df,
        p_value=p_value,
        n_samples=int(n),
        n_cells=max(len(cells_exp), 1),
        tv_distance=tv,
        impossible_mass=impossible / n,
    )
