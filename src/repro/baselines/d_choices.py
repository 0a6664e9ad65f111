"""Greedy[d] ("power of d choices") allocation, one-shot and repeated.

In the one-shot setting, placing each ball into the least loaded of ``d``
uniformly random bins reduces the maximum load from
``Theta(log n / log log n)`` to ``log log n / log d + O(1)``
(Azar–Broder–Karlin–Upfal).  The repeated variant, in which every re-thrown
ball uses ``d`` choices, is the generalization mentioned among the related
works ([36]); it serves as a "stronger allocator" baseline in the A2
ablation — the paper's point being that even the plain 1-choice repeated
process already achieves ``O(log n)``.

:class:`BatchedDChoices` simulates ``R`` replicas of the repeated process
as one ``(R, n)`` load matrix — placements stay sequential *within* each
replica (that is the Greedy[d] semantics).  Its numpy reference kernel
performs the ``k``-th placement of every replica in one vectorized
operation, so the Python-level loop count drops from ``sum_r h_r`` to
``max_r h_r`` per round; at ``R == 1`` it places the one row's balls one
by one.  Its native kernel (``greedy_kernel.c``) runs a whole window in
one C call.
:class:`DChoicesProcess` is one run, the ``R == 1`` view of it (see
:class:`~repro.core.process.ReplicaView`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Union

import numpy as np

from ..core.batched import (
    BatchedLoadProcess, one_choice_arrivals, one_choice_round,
)
from ..core.config import LoadConfiguration
from ..core.process import ReplicaView
from ..errors import ConfigurationError
from ..rng import as_generator
from ..types import SeedLike

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
    """Summary of a repeated greedy[d] run (mirrors ``SimulationResult``).

    The window is seeded from the configuration at call time: the max
    load and the empty-bin count of the starting configuration count too.
    """

    rounds: int
    final_configuration: LoadConfiguration
    max_load_seen: int
    min_empty_bins_seen: int


class DChoicesProcess(ReplicaView):
    """Repeated balls-into-bins where every re-thrown ball uses ``d`` choices.

    In each round one ball is extracted from every non-empty bin (anonymous,
    as in the original process); the extracted balls are then placed
    *sequentially in random order*, each into the least loaded of ``d``
    uniformly random candidate bins (ties broken by the first minimum).
    This is replica 0 of a one-replica :class:`BatchedDChoices` on the
    numpy kernel (see :class:`~repro.core.process.ReplicaView`).

    The parameters are :class:`BatchedDChoices`'s without ``n_replicas``,
    ``kernel`` and ``n_threads``; ``d = 1`` is the original process.
    """

    def __init__(
        self,
        n_bins: int,
        d: int = 2,
        n_balls: Optional[int] = None,
        initial: Union[LoadConfiguration, np.ndarray, None] = None,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(
            BatchedDChoices(
                n_bins, 1, d=d, n_balls=n_balls, initial=initial,
                seed=as_generator(seed), kernel="numpy",
            )
        )

    @property
    def d(self) -> int:
        return self._batch.d

    def run(self, rounds: int, observers=None) -> DChoicesResult:
        """Simulate ``rounds`` rounds collecting the standard load metrics."""
        window = self._window(rounds, observers=observers, seeded=True)
        return DChoicesResult(
            window.rounds, window.final_configuration, window.max_load_seen,
            window.min_empty_bins_seen,
        )


class BatchedDChoices(BatchedLoadProcess):
    """Vectorized ensemble of ``R`` independent repeated greedy[d] runs.

    Each round extracts one ball from every non-empty bin of every replica
    and replaces the extracted balls sequentially *within* each replica,
    each into the least loaded of ``d`` uniformly random candidate bins.
    The numpy kernel performs the ``k``-th placement of all replicas as one
    vectorized operation, so a round costs ``max_r h_r`` small array
    operations instead of ``sum_r h_r`` Python iterations (``h_r`` =
    non-empty bins of replica ``r``); the native kernel is
    ``greedy_kernel.c``.

    With ``d == 1`` the allocator degenerates to the plain repeated
    balls-into-bins update: the numpy kernel's round collapses to one flat
    draw plus one ``np.bincount``, exactly like
    :class:`~repro.core.batched.BatchedRepeatedBallsIntoBins`'s numpy
    kernel, and the native kernel follows the native rbb trajectory.  At
    ``R == 1`` the numpy round places the row's balls one by one from one
    ``(h, d)`` draw, the same draws as the vectorized placements make.

    Parameters
    ----------
    n_bins, n_replicas, n_balls, initial, seed, kernel, n_threads:
        As for :class:`~repro.core.batched.BatchedLoadProcess`.
    d:
        Number of candidate bins per placement.
    """

    native_kernel = "greedy_d"

    def __init__(
        self,
        n_bins: int,
        n_replicas: int,
        d: int = 2,
        n_balls: Optional[int] = None,
        initial: Union[LoadConfiguration, np.ndarray, None] = None,
        seed: SeedLike = None,
        kernel: str = "auto",
        n_threads: Optional[int] = None,
    ) -> None:
        if d < 1:
            raise ConfigurationError(f"d must be >= 1, got {d}")
        super().__init__(
            n_bins,
            n_replicas,
            n_balls=n_balls,
            initial=initial,
            seed=seed,
            kernel=kernel,
            n_threads=n_threads,
        )
        self._d = int(d)
        self._rows = np.arange(n_replicas)

    @property
    def d(self) -> int:
        return self._d

    def _native_extra_args(self, n_threads: int) -> Dict[str, object]:
        return {"d": self._d}

    def _advance(self) -> None:
        """One round for all active replicas (numpy kernel).

        The ``k``-th placement of every replica that has one draws its
        ``d`` choices in one ``rng.integers`` call.  At ``R == 1`` the
        row's ``h`` balls are placed one by one from one ``(h, d)`` draw
        instead (``d = 1`` is :func:`one_choice_round`): a split of that
        draw draws the same values, so both consume the generator alike.
        """
        loads = self._loads
        active = self._active
        n = self._n_bins
        if self._n_replicas == 1:
            row = loads[0]
            if not active[0]:
                return
            if self._d == 1:
                one_choice_round(row, self._rng)
                return
            departing = np.minimum(row, 1)
            h = int(np.count_nonzero(departing))
            if h:
                row -= departing
                # min() keeps the first least-loaded candidate, as argmin does
                for choices in self._rng.integers(0, n, size=(h, self._d)).tolist():
                    row[min(choices, key=row.__getitem__)] += 1
            return
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
