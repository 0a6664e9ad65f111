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

The surrogate is the Tetris process with ``n`` arrivals per round: one run
of it is a :class:`~repro.core.tetris.TetrisProcess` (an ``R == 1`` view of
:class:`~repro.core.tetris.BatchedTetris`), and E11 runs its trials as the
replicas of one ``BatchedTetris(n, R, arrivals_per_round=n)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ..core.config import LoadConfiguration
from ..core.tetris import TetrisProcess
from ..errors import ConfigurationError
from ..types import SeedLike

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


class IndependentThrowsProcess(TetrisProcess):
    """Zero-drift surrogate with state-independent arrivals.

    Every round: each non-empty bin loses one ball, and ``arrivals_per_round``
    fresh balls (default ``n``) are thrown independently and uniformly at
    random — a :class:`~repro.core.tetris.TetrisProcess` with ``n`` arrivals.
    Unlike Tetris (which throws only ``(3/4) n`` and therefore has
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
        super().__init__(
            n_bins,
            arrivals_per_round=n_bins if arrivals_per_round is None else arrivals_per_round,
            initial=initial,
            seed=seed,
        )

    def run(self, rounds: int, observers=None) -> IndependentThrowsResult:
        """Simulate ``rounds`` rounds.

        ``max_load_seen`` includes the configuration at call time, so
        ``run(0)`` reports the starting maximum.
        """
        window = self._window(rounds, observers=observers, seeded=True)
        return IndependentThrowsResult(
            rounds=window.rounds,
            final_configuration=window.final_configuration,
            max_load_seen=window.max_load_seen,
        )
