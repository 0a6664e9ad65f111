"""Identity-tracking repeated balls-into-bins ("token level").

The anonymous simulator in :mod:`repro.core.process` is enough for every
load statement of the paper, but Section 4 (multi-token traversal) reasons
about *individual balls*: how many steps of its own random walk a ball has
performed ("progress"), how long it waits inside queues ("delay"), and when
every ball has visited every bin ("parallel cover time").  This module keeps
ball identities, per-bin queues and a pluggable
:class:`~repro.core.queueing.QueueDiscipline`.

:class:`BatchedTokens` runs ``R`` replicas of ``m`` balls as one ``(R, n)``
state on the numpy kernel, and :class:`TokenRepeatedBallsIntoBins` is its
``R == 1`` view (see :class:`~repro.core.process.ReplicaView`).  Ball ``b``
belongs to replica ``b // m``, and its books are flat arrays: its cell
``r * n + bin``, its arrival stamp, its moves and, with ``track_visits``,
its visited bins.  A ball's stamp is its id at construction; each round
the arriving balls take the next stamps in the order of one
``rng.permutation`` (a random tie-break among simultaneous arrivals), so
within a bin ascending stamps are arrival order.

A queue is never stored.  Each round one sort of all balls by cell and
then by the discipline's key (the stamp, or the ball id for
``order == "id"``) lays every queue out contiguously, and the discipline's
vectorized :meth:`~repro.core.queueing.QueueDiscipline.positions` picks
each non-empty bin's departing ball from it, so a round has no Python loop
over bins, balls or replicas.  Waiting rounds are ``rounds - moves``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional, Union

import numpy as np

from .batched import BatchedLoadProcess, EnsembleResult
from .config import DEFAULT_BETA, LoadConfiguration
from .process import ReplicaView
from .queueing import QueueDiscipline, get_discipline
from ..errors import ConfigurationError, SimulationError
from ..rng import as_generator
from ..types import SeedLike

__all__ = ["BatchedTokens", "TokenRepeatedBallsIntoBins", "TokenProcessResult"]


@dataclass
class TokenProcessResult:
    """Summary of a token-level run.

    Attributes
    ----------
    rounds:
        Number of rounds simulated by this call.
    max_load_seen:
        Window maximum load, seeded from the configuration at call time
        (a zero-round call reports the observed max, never 0).
    min_empty_seen:
        Window minimum of the empty-bin count, seeded from the
        configuration at call time, as ``max_load_seen`` is.
    cover_time:
        First (global) round at which every ball had visited every bin, or
        ``None`` if coverage was not reached within the simulated window.
        Only populated when the process was built with ``track_visits=True``.
    ball_cover_times:
        Per-ball first round of full coverage (-1 where not yet covered).
    moves:
        Per-ball number of random-walk steps performed so far.
    min_moves:
        Smallest per-ball progress (the quantity the paper bounds from below
        by ``Omega(t / log n)`` under FIFO).
    """

    rounds: int
    max_load_seen: int
    min_empty_seen: int
    cover_time: Optional[int]
    ball_cover_times: Optional[np.ndarray]
    moves: np.ndarray
    min_moves: int


class BatchedTokens(BatchedLoadProcess):
    """Vectorized ensemble of ``R`` token processes of ``m`` balls each.

    ``n_bins``, ``n_replicas``, ``n_balls`` (per replica), ``initial`` and
    ``seed`` are :class:`~repro.core.batched.BatchedLoadProcess`'s, and
    every replica holds the same number of balls.  Without ``initial``
    ball ``i`` of a replica starts in bin ``i % n``; with one, a replica's
    balls are dealt to its bins from bin 0 upward.  ``discipline`` picks
    each bin's departing ball (default FIFO), and ``track_visits`` keeps
    the ``R * m * n`` visited-bin bitmap that cover times need.

    A round draws every destination in one ``rng.integers(0, n, size=H)``
    and the arrival order in one ``rng.permutation(H)``, so each replica
    sees uniform destinations and a uniform tie order, and ``R == 1``
    draws what a single run draws.  A replica is covered at the round its
    last ball has visited every bin (at round 0 without balls);
    ``run(..., stop_when_covered=True)`` freezes it at the end of the
    first round after which it is covered.  The loads follow the balls:
    :meth:`inject_loads` and :meth:`replace_loads` are refused, and
    :meth:`reset` deals fresh balls.  There is no native kernel.
    """

    def __init__(
        self,
        n_bins: int,
        n_replicas: int,
        n_balls: Optional[int] = None,
        discipline: Union[str, QueueDiscipline] = "fifo",
        initial: Union[LoadConfiguration, np.ndarray, None] = None,
        track_visits: bool = False,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(
            n_bins, n_replicas, n_balls=n_balls, initial=initial, seed=seed
        )
        self._discipline = get_discipline(discipline)
        self._track_visits = bool(track_visits)
        self._flat = self._loads.reshape(-1)  # a view of the state
        self._stop_at_cover = False
        self._deal(initial is None)

    def _checked_start(self, initial, n_balls):
        start, counts = super()._checked_start(initial, n_balls)
        if (counts != counts[0]).any():
            raise ConfigurationError(
                "every replica of a token process holds the same number of "
                f"balls, got {counts.tolist()}"
            )
        return start, counts

    def _deal(self, balanced: bool) -> None:
        """Fresh books for balls placed on the current loads."""
        R, n = self._n_replicas, self._n_bins
        self._m = m = int(self._n_balls[0])
        if balanced:
            self._cell = (np.arange(m) % n + self._row_base[:, np.newaxis]).ravel()
        else:
            self._cell = np.repeat(np.arange(R * n), self._flat)
        self._stamp = np.arange(R * m, dtype=np.int64)
        self._next_stamp = R * m
        by_id = self._discipline.order == "id"
        self._key = np.arange(R * m) if by_id else self._stamp
        self._moves = np.zeros(R * m, dtype=np.int64)
        self._visited = self._visited_counts = self._ball_cover = None
        if self._track_visits:
            self._visited = np.zeros((R * m, n), dtype=bool)
            self._visited[np.arange(R * m), self._cell % n] = True
            self._visited_counts = self._visited.sum(axis=1, dtype=np.int64)
            self._ball_cover = np.where(self._visited_counts >= n, 0, -1)
            self._uncovered = (self._ball_cover.reshape(R, m) < 0).sum(axis=1)

    def _rows(self, books: np.ndarray) -> np.ndarray:
        """A read-only ``(R, m)`` view of flat per-ball books."""
        rows = books.reshape(self._n_replicas, self._m)
        rows.setflags(write=False)
        return rows

    @property
    def discipline(self) -> QueueDiscipline:
        return self._discipline

    @property
    def ball_bins(self) -> np.ndarray:
        """Read-only ``(R, m)``: the bin of every ball."""
        return self._rows(self._cell % self._n_bins)

    @property
    def moves(self) -> np.ndarray:
        """Read-only ``(R, m)``: random-walk steps per ball (progress)."""
        return self._rows(self._moves)

    @property
    def waiting_rounds(self) -> np.ndarray:
        """Read-only ``(R, m)``: each replica's rounds minus each ball's moves."""
        return self._rows(np.repeat(self._rounds_done, self._m) - self._moves)

    @property
    def visited_counts(self) -> Optional[np.ndarray]:
        """Read-only ``(R, m)`` distinct bins visited per ball, or ``None``
        without ``track_visits``."""
        counts = self._visited_counts
        return None if counts is None else self._rows(counts)

    @property
    def ball_cover_times(self) -> np.ndarray:
        """Read-only ``(R, m)``: each ball's cover round, or -1."""
        if self._ball_cover is None:
            raise ConfigurationError(
                "cover tracking disabled; construct with track_visits=True"
            )
        return self._rows(self._ball_cover)

    @property
    def cover_times(self) -> np.ndarray:
        """Each replica's cover round, or -1 (needs ``track_visits``)."""
        last = self.ball_cover_times.max(axis=1, initial=0)
        return np.where(self._uncovered == 0, last, -1)

    def _advance(self) -> Optional[np.ndarray]:
        """One round for all active replicas; under a cover stop, returns
        the mask of active replicas covered after it."""
        flat, n, rng, active = self._flat, self._n_bins, self._rng, self._active
        # every occupied cell, frozen replicas included: their balls stay
        # in the one sort, so the queue fronts count them
        occupied = flat.nonzero()[0]
        lengths = flat[occupied].astype(np.int64)  # int64 sums cast nothing
        fronts = lengths.cumsum() - lengths
        if np.count_nonzero(active) < self._n_replicas:
            moving = active[occupied // n]
            occupied, lengths, fronts = occupied[moving], lengths[moving], fronts[moving]
        h = occupied.size
        if h:
            queues = np.lexsort((self._key, self._cell))
            selected = queues[fronts + self._discipline.positions(lengths, rng)]
            bins = rng.integers(0, n, size=h)
            cells = bins if self._n_replicas == 1 else bins + occupied - occupied % n
            self._cell[selected] = cells
            self._moves[selected] += 1
            order = rng.permutation(h)  # the tie order of this round's arrivals
            stamp = self._next_stamp
            self._stamp[selected[order]] = np.arange(stamp, stamp + h)
            self._next_stamp = stamp + h
            flat[occupied] -= 1
            # an int32 addend adds without numpy's buffered casting loop
            flat += np.bincount(cells, minlength=flat.size).astype(np.int32)
            if self._visited is not None:
                self._visit(selected, bins)
        if self._stop_at_cover:
            return active & (self._uncovered == 0)
        return None

    def _visit(self, selected: np.ndarray, bins: np.ndarray) -> None:
        """Mark the moved balls' new bins and stamp completed coverage."""
        newly = ~self._visited[selected, bins]
        if newly.any():
            movers = selected[newly]
            self._visited[movers, bins[newly]] = True
            self._visited_counts[movers] += 1
            finished = movers[self._visited_counts[movers] >= self._n_bins]
            if finished.size:
                replicas = finished // self._m
                # step() and the one-row loop hold the completed rounds
                self._ball_cover[finished] = self._rounds_done[replicas] + 1
                self._uncovered -= np.bincount(replicas, minlength=self._n_replicas)

    @contextmanager
    def _cover_stop(self, stop: bool) -> Iterator[None]:
        """Freeze each replica once it is covered, for the length of a call."""
        if stop and self._ball_cover is None:
            raise ConfigurationError("stop_when_covered requires track_visits=True")
        self._stop_at_cover = stop
        try:
            yield
        finally:
            self._stop_at_cover = False

    def run(
        self,
        rounds: int,
        beta: float = DEFAULT_BETA,
        stop_when_legitimate: bool = False,
        observers=None,
        observe_every: int = 1,
        stop_when_covered: bool = False,
    ) -> EnsembleResult:
        """:meth:`BatchedLoadProcess.run`; ``stop_when_covered`` also
        freezes each replica once it is covered."""
        with self._cover_stop(stop_when_covered):
            return super().run(
                rounds, beta, stop_when_legitimate, observers, observe_every
            )

    def inject_loads(self, loads: np.ndarray) -> None:
        """Refused: the loads follow the balls."""
        raise ConfigurationError("a token process's loads follow its balls")

    replace_loads = inject_loads

    def reset(
        self, initial: Union[LoadConfiguration, np.ndarray, None] = None
    ) -> None:
        """:meth:`BatchedLoadProcess.reset`, with fresh balls on the start."""
        super().reset(initial)
        self._deal(initial is None)

    def _check_conservation(self) -> None:
        super()._check_conservation()
        if not np.array_equal(np.bincount(self._cell, minlength=self._flat.size), self._flat):
            raise SimulationError("token process ball positions inconsistent with the loads")


class TokenRepeatedBallsIntoBins(ReplicaView):
    """Repeated balls-into-bins with ball identities and per-bin queues.

    Replica 0 of a one-replica :class:`BatchedTokens`, whose ``n_balls``
    (default ``n``), ``discipline`` (default FIFO), ``initial`` (ball
    ``i`` in bin ``i % n`` without one) and ``track_visits`` it takes;
    ``seed`` is a seed-like value.
    """

    def __init__(
        self,
        n_bins: int,
        n_balls: Optional[int] = None,
        discipline: Union[str, QueueDiscipline] = "fifo",
        initial: Union[LoadConfiguration, np.ndarray, None] = None,
        track_visits: bool = False,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(
            BatchedTokens(
                n_bins, 1, n_balls=n_balls, discipline=discipline,
                initial=initial, track_visits=track_visits,
                seed=as_generator(seed),
            )
        )

    @property
    def discipline(self) -> QueueDiscipline:
        return self._batch.discipline

    @property
    def ball_bins(self) -> np.ndarray:
        """Read-only: the bin of every ball."""
        return self._batch.ball_bins[0]

    @property
    def moves(self) -> np.ndarray:
        """Read-only: random-walk steps per ball (progress)."""
        return self._batch.moves[0]

    @property
    def waiting_rounds(self) -> np.ndarray:
        """Read-only: rounds each ball spent waiting, ``round_index - moves``."""
        return self._batch.waiting_rounds[0]

    @property
    def visited_counts(self) -> Optional[np.ndarray]:
        """Distinct bins visited per ball (``None`` unless ``track_visits``)."""
        counts = self._batch.visited_counts
        return None if counts is None else counts[0]

    @property
    def all_covered(self) -> bool:
        """Whether every ball has visited every bin (needs ``track_visits``)."""
        return self.cover_time is not None

    @property
    def cover_time(self) -> Optional[int]:
        """Round at which the last ball completed coverage, or ``None``
        (needs ``track_visits``)."""
        cover = int(self._batch.cover_times[0])
        return None if cover < 0 else cover

    def run(
        self, rounds: int, observers=None, stop_when_covered: bool = False
    ) -> TokenProcessResult:
        """Simulate up to ``rounds`` rounds.

        ``observers`` see ``(round_index, loads)`` after every round, with
        the global round index and the ``(1, n)`` state.
        ``stop_when_covered`` (needs ``track_visits=True``) stops at the
        end of the first round after which every ball has visited every
        bin.
        """
        with self._batch._cover_stop(stop_when_covered):
            window = self._window(rounds, observers=observers, seeded=True)
        tracked = self.visited_counts is not None
        moves = np.array(self.moves)
        return TokenProcessResult(
            rounds=window.rounds,
            max_load_seen=window.max_load_seen,
            min_empty_seen=window.min_empty_bins_seen,
            cover_time=self.cover_time if tracked else None,
            ball_cover_times=(
                np.array(self._batch.ball_cover_times[0]) if tracked else None
            ),
            moves=moves,
            min_moves=int(moves.min()) if moves.size else 0,
        )

    def run_until_covered(self, max_rounds: int, observers=None) -> Optional[int]:
        """Run until full coverage; return the cover time or ``None`` on timeout."""
        return self.run(max_rounds, observers, stop_when_covered=True).cover_time

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TokenRepeatedBallsIntoBins(n_bins={self.n_bins}, n_balls={self.n_balls}, "
            f"discipline={self.discipline.name!r}, round={self.round_index})"
        )
