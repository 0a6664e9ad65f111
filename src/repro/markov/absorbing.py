"""The absorbing bin-load chain of Lemma 5.

Lemma 5 analyzes a one-dimensional Markov chain ``Z_t`` that dominates the
load of a single bin in the Tetris process during a "phase":

* ``Z_t = 0`` if ``Z_{t-1} = 0`` (0 is absorbing), and
* ``Z_t = Z_{t-1} - 1 + X_t`` otherwise, with ``X_t ~ Binomial((3/4) n, 1/n)``
  i.i.d. arrivals.

The paper proves ``P_k(tau > t) <= exp(-t / 144)`` for every ``t >= 8 k``,
where ``tau`` is the absorption time started from ``Z_0 = k``.  This module
provides

* :class:`BinLoadChain` — exact tail probabilities by dynamic programming
  over the (truncated) load distribution, plus Monte-Carlo simulation of the
  absorption time, and
* :func:`absorption_tail_bound` — the paper's analytic envelope.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..errors import ConfigurationError
from ..rng import as_generator
from ..types import SeedLike

__all__ = ["BinLoadChain", "absorption_tail_bound"]


def absorption_tail_bound(t: float, k: int = 0) -> float:
    """The Lemma 5 envelope ``exp(-t/144)``, valid for ``t >= 8 k``.

    For ``t < 8 k`` the lemma makes no claim; we return 1.0 (the trivial
    bound) so the function is safe to evaluate on a whole grid.
    """
    if k < 0:
        raise ConfigurationError(f"k must be >= 0, got {k}")
    if t < 8 * k:
        return 1.0
    return math.exp(-t / 144.0)


class BinLoadChain:
    """The Lemma 5 chain for a system with ``n`` bins.

    Parameters
    ----------
    n_bins:
        System size ``n``; arrivals per round are ``Binomial(arrivals, 1/n)``.
    arrivals:
        Number of balls thrown per round in the dominating Tetris process;
        defaults to ``floor(3 n / 4)`` as in the paper.
    """

    def __init__(self, n_bins: int, arrivals: Optional[int] = None) -> None:
        if n_bins < 1:
            raise ConfigurationError(f"n_bins must be >= 1, got {n_bins}")
        self._n = n_bins
        self._arrivals = (3 * n_bins) // 4 if arrivals is None else int(arrivals)
        if self._arrivals < 0:
            raise ConfigurationError(f"arrivals must be >= 0, got {self._arrivals}")
        self._p = 1.0 / n_bins
        from scipy import stats  # lazy: keeps scipy out of `import repro`

        # Per-round arrival pmf, truncated where negligible.
        dist = stats.binom(self._arrivals, self._p)
        upper = int(dist.ppf(1.0 - 1e-15)) + 1
        ks = np.arange(0, max(upper, 2))
        pmf = dist.pmf(ks)
        pmf = pmf / pmf.sum()
        self._arrival_pmf = pmf

    # ------------------------------------------------------------------
    @property
    def n_bins(self) -> int:
        return self._n

    @property
    def arrivals(self) -> int:
        return self._arrivals

    @property
    def drift(self) -> float:
        """Expected one-round change ``E[X] - 1`` while above zero (negative)."""
        return self._arrivals * self._p - 1.0

    @property
    def arrival_pmf(self) -> np.ndarray:
        """Truncated pmf of the per-round arrival count ``X_t``."""
        return np.array(self._arrival_pmf, copy=True)

    # ------------------------------------------------------------------
    # Exact computations
    # ------------------------------------------------------------------
    def survival_probabilities(self, start: int, horizon: int, cap: Optional[int] = None) -> np.ndarray:
        """Exact ``P_k(tau > t)`` for ``t = 0 .. horizon``.

        The load distribution is propagated by convolution with the arrival
        pmf; probability mass reaching the cap is clipped there, which makes
        the returned survival probabilities (slight) *over*-estimates — i.e.
        still valid for checking the upper-bound claim of Lemma 5.
        """
        if start < 0:
            raise ConfigurationError(f"start must be >= 0, got {start}")
        if horizon < 0:
            raise ConfigurationError(f"horizon must be >= 0, got {horizon}")
        if cap is None:
            cap = max(4 * start + 8 * len(self._arrival_pmf), 64)
        dist = np.zeros(cap + 1)
        dist[min(start, cap)] = 1.0
        absorbed = 0.0 if start > 0 else 1.0
        if start == 0:
            dist[:] = 0.0

        survival = np.empty(horizon + 1)
        survival[0] = 1.0 - absorbed
        pmf = self._arrival_pmf
        for t in range(1, horizon + 1):
            # shift down by one (the departure), then convolve with arrivals
            shifted = np.zeros_like(dist)
            shifted[:-1] = dist[1:]
            new = np.convolve(shifted, pmf)[: cap + 1]
            # mass that would exceed the cap is folded onto the cap
            overflow = 1.0 - absorbed - new.sum()
            if overflow > 0:
                new[cap] += overflow
            # transitions into state 0 are absorbing: remove them from the
            # transient distribution and account them in `absorbed`
            absorbed += float(new[0])
            new[0] = 0.0
            dist = new
            survival[t] = max(1.0 - absorbed, 0.0)
        return survival

    def expected_absorption_time(self, start: int) -> float:
        """Expected absorption time from ``Z_0 = start``.

        With negative drift ``delta = 1 - E[X]`` the exact expectation is
        ``start / delta`` by Wald's identity (the walk is skip-free
        downward), which we return in closed form.
        """
        if start < 0:
            raise ConfigurationError(f"start must be >= 0, got {start}")
        delta = 1.0 - self._arrivals * self._p
        if delta <= 0:
            return math.inf
        return start / delta

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def simulate_absorption_time(
        self, start: int, max_rounds: int, seed: SeedLike = None
    ) -> Optional[int]:
        """Simulate one trajectory; return ``tau`` or ``None`` if not absorbed
        within ``max_rounds``."""
        if start < 0:
            raise ConfigurationError(f"start must be >= 0, got {start}")
        if start == 0:
            return 0
        rng = as_generator(seed)
        z = start
        for t in range(1, max_rounds + 1):
            z = z - 1 + int(rng.binomial(self._arrivals, self._p))
            if z <= 0:
                return t
        return None

    def simulate_absorption_times(
        self, start: int, trials: int, max_rounds: int, seed: SeedLike = None
    ) -> np.ndarray:
        """Simulate ``trials`` absorption times (censored values are ``-1``)."""
        if trials < 0:
            raise ConfigurationError(f"trials must be >= 0, got {trials}")
        rng = as_generator(seed)
        out = np.empty(trials, dtype=np.int64)
        for i in range(trials):
            tau = self.simulate_absorption_time(start, max_rounds, seed=rng)
            out[i] = -1 if tau is None else tau
        return out

    def empirical_survival(
        self, start: int, trials: int, horizon: int, seed: SeedLike = None
    ) -> np.ndarray:
        """Monte-Carlo estimate of ``P_k(tau > t)`` for ``t = 0 .. horizon``."""
        taus = self.simulate_absorption_times(start, trials, max_rounds=horizon, seed=seed)
        # censored runs (tau == -1) survived past the horizon
        taus = np.where(taus < 0, horizon + 1, taus)
        ts = np.arange(horizon + 1)
        return (taus[None, :] > ts[:, None]).mean(axis=1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BinLoadChain(n_bins={self._n}, arrivals={self._arrivals})"
