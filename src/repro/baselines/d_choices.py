"""Greedy[d] ("power of d choices") allocation, one-shot and repeated.

In the one-shot setting, placing each ball into the least loaded of ``d``
uniformly random bins reduces the maximum load from
``Theta(log n / log log n)`` to ``log log n / log d + O(1)``
(Azar–Broder–Karlin–Upfal).  The repeated variant, in which every re-thrown
ball uses ``d`` choices, is the generalization mentioned among the related
works ([36]); it serves as a "stronger allocator" baseline in the ablation
benchmarks — the paper's point being that even the plain 1-choice repeated
process already achieves ``O(log n)``.

Two implementations cover the two workload shapes: :class:`DChoicesProcess`
simulates one replica with per-ball sequential placements, and
:class:`BatchedDChoices` simulates ``R`` replicas as one ``(R, n)`` load
matrix — placements stay sequential *within* each replica (that is the
Greedy[d] semantics) but the ``k``-th placement of every replica happens in
one vectorized operation, so the Python-level loop count drops from
``sum_r h_r`` to ``max_r h_r`` per round.  With ``R == 1`` and the same
seed the batched process is stream-compatible with the single-replica one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ..core.batched import BatchedLoadProcess, one_choice_arrivals
from ..core.config import DEFAULT_BETA, LoadConfiguration, legitimacy_threshold
from ..errors import ConfigurationError
from ..metrics.base import BatchedObserverList
from ..rng import as_generator
from ..types import LoadVector, SeedLike

__all__ = [
    "one_shot_d_choices_max_load",
    "batched_one_shot_d_choices_max_load",
    "DChoicesProcess",
    "BatchedDChoices",
    "DChoicesResult",
    "theoretical_d_choices_max_load",
]


def one_shot_d_choices_max_load(
    n_bins: int, d: int = 2, n_balls: Optional[int] = None, seed: SeedLike = None
) -> int:
    """Maximum load of a one-shot greedy[d] allocation (sequential placements)."""
    if n_bins < 1:
        raise ConfigurationError(f"n_bins must be >= 1, got {n_bins}")
    if d < 1:
        raise ConfigurationError(f"d must be >= 1, got {d}")
    m = n_bins if n_balls is None else int(n_balls)
    if m < 0:
        raise ConfigurationError(f"n_balls must be >= 0, got {m}")
    rng = as_generator(seed)
    loads = np.zeros(n_bins, dtype=np.int64)
    if m == 0:
        return 0
    choices = rng.integers(0, n_bins, size=(m, d))
    for ball in range(m):
        candidate_bins = choices[ball]
        best = candidate_bins[np.argmin(loads[candidate_bins])]
        loads[best] += 1
    return int(loads.max())


def batched_one_shot_d_choices_max_load(
    n_bins: int,
    n_replicas: int,
    d: int = 2,
    n_balls: Optional[int] = None,
    seed: SeedLike = None,
) -> np.ndarray:
    """Per-replica maximum loads of ``R`` independent one-shot greedy[d] runs.

    The ``b``-th placement of every replica happens in one vectorized
    operation (the placements within a replica remain sequential, as the
    allocator requires).  With ``R == 1`` and the same seed the result
    matches :func:`one_shot_d_choices_max_load` exactly.
    """
    if n_bins < 1:
        raise ConfigurationError(f"n_bins must be >= 1, got {n_bins}")
    if n_replicas < 1:
        raise ConfigurationError(f"n_replicas must be >= 1, got {n_replicas}")
    if d < 1:
        raise ConfigurationError(f"d must be >= 1, got {d}")
    m = n_bins if n_balls is None else int(n_balls)
    if m < 0:
        raise ConfigurationError(f"n_balls must be >= 0, got {m}")
    rng = as_generator(seed)
    R = n_replicas
    if m == 0:
        return np.zeros(R, dtype=np.int64)
    if d == 1:
        # a single choice needs no argmin: one flat draw and one bincount
        row_base = np.arange(R, dtype=np.int64) * n_bins
        counts = np.full(R, m, dtype=np.int64)
        arrivals = one_choice_arrivals(rng, row_base, counts, R, n_bins)
        return arrivals.max(axis=1).astype(np.int64)
    loads = np.zeros((R, n_bins), dtype=np.int64)
    rows = np.arange(R)
    for _ in range(m):
        choices = rng.integers(0, n_bins, size=(R, d))
        candidates = np.take_along_axis(loads, choices, axis=1)
        best = choices[rows, np.argmin(candidates, axis=1)]
        loads[rows, best] += 1
    return loads.max(axis=1)


def theoretical_d_choices_max_load(n_bins: int, d: int = 2) -> float:
    """First-order prediction ``ln ln n / ln d + Theta(1)`` for greedy[d]
    with ``m = n`` (the additive constant is taken as 1)."""
    if n_bins < 1:
        raise ConfigurationError(f"n_bins must be >= 1, got {n_bins}")
    if d < 2:
        raise ConfigurationError(f"d must be >= 2 for the two-choices bound, got {d}")
    if n_bins < 4:
        return 1.0
    return math.log(max(math.log(n_bins), 1.0 + 1e-9)) / math.log(d) + 1.0


@dataclass
class DChoicesResult:
    """Summary of a repeated greedy[d] run (mirrors ``SimulationResult``)."""

    rounds: int
    final_configuration: LoadConfiguration
    max_load_seen: int
    min_empty_bins_seen: int


class DChoicesProcess:
    """Repeated balls-into-bins where every re-thrown ball uses ``d`` choices.

    In each round one ball is extracted from every non-empty bin (anonymous,
    as in the original process); the extracted balls are then placed
    *sequentially in random order*, each into the least loaded of ``d``
    uniformly random candidate bins (ties broken by the first minimum).

    Parameters
    ----------
    n_bins, n_balls, initial, seed:
        As for :class:`~repro.core.process.RepeatedBallsIntoBins`.
    d:
        Number of candidate bins per placement (``d = 1`` degenerates to the
        original process up to the sequential-placement detail).
    """

    def __init__(
        self,
        n_bins: int,
        d: int = 2,
        n_balls: Optional[int] = None,
        initial: Union[LoadConfiguration, np.ndarray, None] = None,
        seed: SeedLike = None,
    ) -> None:
        if n_bins < 1:
            raise ConfigurationError(f"n_bins must be >= 1, got {n_bins}")
        if d < 1:
            raise ConfigurationError(f"d must be >= 1, got {d}")
        self._n_bins = n_bins
        self._d = int(d)
        if initial is not None:
            config = initial if isinstance(initial, LoadConfiguration) else LoadConfiguration(np.asarray(initial))
            if config.n_bins != n_bins:
                raise ConfigurationError(
                    f"initial configuration has {config.n_bins} bins, expected {n_bins}"
                )
            self._loads = config.as_array()
        else:
            m = n_bins if n_balls is None else int(n_balls)
            if m < 0:
                raise ConfigurationError(f"n_balls must be >= 0, got {m}")
            self._loads = LoadConfiguration.balanced(n_bins, m).as_array()
        self._n_balls = int(self._loads.sum())
        self._rng = as_generator(seed)
        self._round = 0

    # ------------------------------------------------------------------
    @property
    def n_bins(self) -> int:
        return self._n_bins

    @property
    def n_balls(self) -> int:
        return self._n_balls

    @property
    def d(self) -> int:
        return self._d

    @property
    def round_index(self) -> int:
        return self._round

    @property
    def loads(self) -> LoadVector:
        view = self._loads.view()
        view.setflags(write=False)
        return view

    def configuration(self) -> LoadConfiguration:
        return LoadConfiguration(self._loads)

    @property
    def max_load(self) -> int:
        return int(self._loads.max())

    def is_legitimate(self, beta: float = DEFAULT_BETA) -> bool:
        return self.max_load <= legitimacy_threshold(self._n_bins, beta)

    # ------------------------------------------------------------------
    def step(self) -> LoadVector:
        """Advance one round."""
        loads = self._loads
        n = self._n_bins
        rng = self._rng
        nonempty = loads > 0
        h = int(np.count_nonzero(nonempty))
        loads -= nonempty
        if h:
            if self._d == 1:
                destinations = rng.integers(0, n, size=h)
                loads += np.bincount(destinations, minlength=n)
            else:
                choices = rng.integers(0, n, size=(h, self._d))
                for row in choices:
                    best = row[np.argmin(loads[row])]
                    loads[best] += 1
        self._round += 1
        return self.loads

    def run(self, rounds: int, observers=None) -> DChoicesResult:
        """Simulate ``rounds`` rounds collecting the standard load metrics."""
        if rounds < 0:
            raise ConfigurationError(f"rounds must be >= 0, got {rounds}")
        obs = BatchedObserverList.coerce(observers)
        max_load_seen = self.max_load
        min_empty = int(np.count_nonzero(self._loads == 0))
        executed = 0
        for _ in range(rounds):
            loads = self.step()
            executed += 1
            max_load_seen = max(max_load_seen, int(loads.max()))
            min_empty = min(min_empty, int(np.count_nonzero(loads == 0)))
            if not obs.is_empty:
                obs.observe(self._round, loads)
        return DChoicesResult(
            rounds=executed,
            final_configuration=self.configuration(),
            max_load_seen=max_load_seen,
            min_empty_bins_seen=min_empty,
        )


class BatchedDChoices(BatchedLoadProcess):
    """Vectorized ensemble of ``R`` independent repeated greedy[d] runs.

    Each round extracts one ball from every non-empty bin of every replica
    and replaces the extracted balls sequentially *within* each replica,
    each into the least loaded of ``d`` uniformly random candidate bins.
    The ``k``-th placement of all replicas is performed as one vectorized
    operation, so a round costs ``max_r h_r`` small array operations instead
    of ``sum_r h_r`` Python iterations (``h_r`` = non-empty bins of replica
    ``r``).

    With ``d == 1`` the allocator degenerates to the plain repeated
    balls-into-bins update and a round collapses to one flat draw plus one
    ``np.bincount``, exactly like
    :class:`~repro.core.batched.BatchedRepeatedBallsIntoBins`'s numpy
    kernel.  With ``R == 1`` and the same seed the trajectory matches
    :class:`DChoicesProcess` step for step (identical generator
    consumption), for every ``d``.

    Parameters
    ----------
    n_bins, n_replicas, n_balls, initial, seed:
        As for :class:`~repro.core.batched.BatchedLoadProcess`.
    d:
        Number of candidate bins per placement.
    """

    def __init__(
        self,
        n_bins: int,
        n_replicas: int,
        d: int = 2,
        n_balls: Optional[int] = None,
        initial: Union[LoadConfiguration, np.ndarray, None] = None,
        seed: SeedLike = None,
    ) -> None:
        if d < 1:
            raise ConfigurationError(f"d must be >= 1, got {d}")
        super().__init__(
            n_bins, n_replicas, n_balls=n_balls, initial=initial, seed=seed
        )
        self._d = int(d)
        self._rows = np.arange(n_replicas)

    @property
    def d(self) -> int:
        return self._d

    def _advance(self) -> None:
        loads = self._loads
        active = self._active
        n = self._n_bins
        nonempty = loads > 0
        if not active.all():
            nonempty &= active[:, None]
        counts = np.count_nonzero(nonempty, axis=1)
        if not counts.any():
            return
        loads -= nonempty
        if self._d == 1:
            loads += one_choice_arrivals(
                self._rng, self._row_base, counts, self._n_replicas, n
            )
            return
        max_h = int(counts.max())
        for k in range(max_h):
            placing = self._rows[counts > k]
            choices = self._rng.integers(0, n, size=(placing.size, self._d))
            candidates = loads[placing[:, None], choices]
            best = choices[np.arange(placing.size), np.argmin(candidates, axis=1)]
            loads[placing, best] += 1
