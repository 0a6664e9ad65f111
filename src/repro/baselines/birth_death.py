"""The independent-throws approximation behind the earlier O(sqrt(t)) bound.

The prior analysis of the repeated process ([12], Becchetti et al., SODA
2015) treats each bin like a birth-death chain whose expected in/out balance
is non-positive and derives a maximum-load bound that grows like
``O(sqrt(t))`` with the length ``t`` of the observation window.  To contrast
that "standard-deviation" envelope with the paper's flat ``O(log n)``
result (experiment E11), this module provides

* :func:`sqrt_t_envelope` — the ``c * sqrt(t)`` curve, and
* :class:`IndependentThrowsProcess` — a simulable surrogate of the
  approximation: in every round each non-empty bin still loses one ball, but
  a *full* complement of ``n`` balls is re-thrown independently of the
  state (so arrivals are i.i.d. ``Binomial(n, 1/n)`` per bin, with zero
  expected drift at every bin).  Its maximum load does grow with the window
  length, unlike the real process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ..core.config import LoadConfiguration
from ..errors import ConfigurationError
from ..metrics.base import BatchedObserverList
from ..rng import as_generator
from ..types import LoadVector, SeedLike

__all__ = ["sqrt_t_envelope", "IndependentThrowsProcess", "IndependentThrowsResult"]


def sqrt_t_envelope(t: float, constant: float = 1.0) -> float:
    """The ``constant * sqrt(t)`` envelope of the prior analysis."""
    if t < 0:
        raise ConfigurationError(f"t must be >= 0, got {t}")
    return constant * math.sqrt(t)


@dataclass
class IndependentThrowsResult:
    """Summary of an :class:`IndependentThrowsProcess` run."""

    rounds: int
    final_configuration: LoadConfiguration
    max_load_seen: int


class IndependentThrowsProcess:
    """Zero-drift surrogate with state-independent arrivals.

    Every round: each non-empty bin loses one ball, and ``arrivals_per_round``
    fresh balls (default ``n``) are thrown independently and uniformly at
    random.  Unlike Tetris (which throws only ``(3/4) n`` and therefore has
    strictly negative drift), this process has zero expected drift at a
    non-empty bin, which is why its maximum load creeps upward like a random
    walk — the behaviour the O(sqrt(t)) analysis cannot rule out.
    """

    def __init__(
        self,
        n_bins: int,
        arrivals_per_round: Optional[int] = None,
        initial: Union[LoadConfiguration, np.ndarray, None] = None,
        seed: SeedLike = None,
    ) -> None:
        if n_bins < 1:
            raise ConfigurationError(f"n_bins must be >= 1, got {n_bins}")
        self._n_bins = n_bins
        self._arrivals = n_bins if arrivals_per_round is None else int(arrivals_per_round)
        if self._arrivals < 0:
            raise ConfigurationError(f"arrivals_per_round must be >= 0, got {self._arrivals}")
        if initial is None:
            self._loads = LoadConfiguration.balanced(n_bins).as_array()
        else:
            config = initial if isinstance(initial, LoadConfiguration) else LoadConfiguration(np.asarray(initial))
            if config.n_bins != n_bins:
                raise ConfigurationError(
                    f"initial configuration has {config.n_bins} bins, expected {n_bins}"
                )
            self._loads = config.as_array()
        self._rng = as_generator(seed)
        self._round = 0

    @property
    def n_bins(self) -> int:
        return self._n_bins

    @property
    def round_index(self) -> int:
        return self._round

    @property
    def loads(self) -> LoadVector:
        view = self._loads.view()
        view.setflags(write=False)
        return view

    @property
    def max_load(self) -> int:
        return int(self._loads.max())

    def configuration(self) -> LoadConfiguration:
        return LoadConfiguration(self._loads)

    def step(self) -> LoadVector:
        """Advance one round."""
        loads = self._loads
        nonempty = loads > 0
        loads -= nonempty
        if self._arrivals:
            destinations = self._rng.integers(0, self._n_bins, size=self._arrivals)
            loads += np.bincount(destinations, minlength=self._n_bins)
        self._round += 1
        return self.loads

    def run(self, rounds: int, observers=None) -> IndependentThrowsResult:
        """Simulate ``rounds`` rounds."""
        if rounds < 0:
            raise ConfigurationError(f"rounds must be >= 0, got {rounds}")
        obs = BatchedObserverList.coerce(observers)
        max_load_seen = self.max_load
        executed = 0
        for _ in range(rounds):
            loads = self.step()
            executed += 1
            max_load_seen = max(max_load_seen, int(loads.max()))
            if not obs.is_empty:
                obs.observe(self._round, loads)
        return IndependentThrowsResult(
            rounds=executed,
            final_configuration=self.configuration(),
            max_load_seen=max_load_seen,
        )
