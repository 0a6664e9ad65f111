"""The Tetris process and its probabilistic "leaky bins" generalization.

The Tetris process (Section 3 of the paper) is the analytic workhorse used
to dominate the original repeated balls-into-bins process:

* starting from any configuration with at least ``n/4`` empty bins, in each
  round every non-empty bin *discards* one ball (the ball leaves the system),
  and
* exactly ``(3/4) n`` brand-new balls are thrown, each into a bin chosen
  independently and uniformly at random.

Because arrivals are i.i.d. binomial and independent of the state, standard
concentration applies; the paper couples the two processes (Lemma 3) so that
the Tetris maximum load stochastically dominates the original one w.h.p.

The "leaky bins in batches" of Berenbrink et al. (PODC 2016, reference [18]
in the paper) throw ``Binomial(n, lam)`` new balls per round instead, for
an arrival rate ``lam`` in ``[0, 1]``; experiment E15 uses them to show
stability for ``lam`` bounded away from 1.

:class:`BatchedTetris` runs ``R`` replicas of either arrival rule as one
open ``(R, n)`` state on the numpy kernel; :class:`TetrisProcess`,
:class:`ProbabilisticTetris` and
:class:`~repro.baselines.birth_death.IndependentThrowsProcess` are its
``R == 1`` views (see :class:`~repro.core.process.ReplicaView`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from .batched import BatchedLoadProcess, check_state_fits, one_choice_arrivals
from .config import LoadConfiguration
from .process import ReplicaView
from ..errors import ConfigurationError
from ..metrics.base import BatchedObserverList
from ..rng import as_generator
from ..types import SeedLike

if TYPE_CHECKING:
    from ..metrics.trackers import BatchedBinEmptyingTracker

__all__ = ["BatchedTetris", "TetrisProcess", "ProbabilisticTetris", "TetrisResult"]


@dataclass
class TetrisResult:
    """Summary of a Tetris run.

    Attributes
    ----------
    rounds:
        Number of rounds simulated by this call.
    final_configuration:
        Loads after the last round (note: Tetris does *not* conserve balls).
    max_load_seen:
        Window maximum of the per-round maximum load; a call that ran no
        round reports the current configuration's.
    all_bins_emptied_by:
        First round by which every bin had been empty at least once during
        this call, or ``None`` if some bin never emptied (Lemma 4 metric).
        Bins empty at call time count as emptied at round 0.
    """

    rounds: int
    final_configuration: LoadConfiguration
    max_load_seen: int
    all_bins_emptied_by: Optional[int]


class BatchedTetris(BatchedLoadProcess):
    """Vectorized ensemble of ``R`` independent Tetris runs.

    A round is rbb's departure step (each non-empty bin of every active
    replica discards one ball) followed by
    :func:`~repro.core.batched.one_choice_arrivals` with each active
    replica's arrival count: ``arrivals_per_round``, or, given ``lam``, one
    ``Binomial(n, lam)`` draw per replica, made each round before that
    round's throws.  The process is open: each replica's ball count moves
    by its arrivals minus its departures, and the conservation check
    follows it.  A round whose arrivals would take a replica to
    ``2**31 - 1`` balls is refused (:func:`~repro.core.batched.check_state_fits`)
    before anything is written.  There is no native kernel.

    Parameters
    ----------
    n_bins, n_replicas, initial, seed:
        As for :class:`~repro.core.batched.BatchedLoadProcess`; the start,
        and :meth:`reset`'s without one, is one ball per bin.
    arrivals_per_round:
        New balls per replica and round; defaults to ``floor(3n/4)`` as in
        the paper.
    lam:
        Arrival rate of the Binomial rule, in ``[0, 1]``.  It replaces
        ``arrivals_per_round``, which then reads 0.
    """

    def __init__(
        self,
        n_bins: int,
        n_replicas: int,
        arrivals_per_round: Optional[int] = None,
        lam: Optional[float] = None,
        initial: Union[LoadConfiguration, np.ndarray, None] = None,
        seed: SeedLike = None,
    ) -> None:
        if lam is not None:
            if arrivals_per_round is not None:
                raise ConfigurationError("give arrivals_per_round or lam, not both")
            if not 0.0 <= lam <= 1.0:
                raise ConfigurationError(f"lam must be in [0, 1], got {lam}")
            arrivals_per_round = 0
        elif arrivals_per_round is None:
            arrivals_per_round = (3 * n_bins) // 4
        if arrivals_per_round < 0:
            raise ConfigurationError(
                f"arrivals_per_round must be >= 0, got {arrivals_per_round}"
            )
        super().__init__(n_bins, n_replicas, initial=initial, seed=seed)
        self._arrivals = int(arrivals_per_round)
        self._lam = None if lam is None else float(lam)

    @property
    def arrivals_per_round(self) -> int:
        return self._arrivals

    @property
    def lam(self) -> Optional[float]:
        """The Binomial rule's arrival rate, or ``None`` for a fixed count."""
        return self._lam

    def emptying_tracker(self) -> BatchedBinEmptyingTracker:
        """A bin-emptying tracker that has seen the current state at round 0.

        After the next window its ``last_first_empty`` is each replica's
        Lemma 4 round, the bins empty now counting as emptied at round 0.
        """
        # function-level: repro.metrics.trackers imports this package
        from ..metrics.trackers import BatchedBinEmptyingTracker

        tracker = BatchedBinEmptyingTracker()
        tracker.observe(0, self.loads)
        return tracker

    def _advance(self) -> None:
        """One round for all active replicas (numpy kernel)."""
        loads, active = self._loads, self._active
        R, n = self._n_replicas, self._n_bins
        nonempty = loads > 0
        if not active.all():
            nonempty &= active[:, None]
        if self._lam is None:
            arrivals = np.full(R, self._arrivals, dtype=np.int64)
        else:
            arrivals = self._rng.binomial(n, self._lam, size=R)
        arrivals *= active
        totals = self._n_balls - np.count_nonzero(nonempty, axis=1) + arrivals
        check_state_fits(n, totals)
        loads -= nonempty
        loads += one_choice_arrivals(self._rng, self._row_base, arrivals, R, n)
        self._n_balls = totals

    def reset(
        self, initial: Union[LoadConfiguration, np.ndarray, None] = None
    ) -> None:
        """:meth:`BatchedLoadProcess.reset`, to one ball per bin by default."""
        super().reset(
            LoadConfiguration.balanced(self._n_bins) if initial is None else initial
        )


class TetrisProcess(ReplicaView):
    """The Tetris process with a deterministic number of arrivals per round.

    Replica 0 of a one-replica :class:`BatchedTetris` (see
    :class:`~repro.core.process.ReplicaView`).

    Parameters
    ----------
    n_bins:
        Number of bins ``n``.
    arrivals_per_round:
        Number of new balls thrown per round; defaults to ``floor(3n/4)``
        as in the paper.  The arrival-rate ablation (A3) passes other values.
    initial:
        Starting configuration (defaults to one ball per bin).
    seed:
        Seed-like value.
    """

    def __init__(
        self,
        n_bins: int,
        arrivals_per_round: Optional[int] = None,
        initial: Union[LoadConfiguration, np.ndarray, None] = None,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(
            BatchedTetris(
                n_bins, 1, arrivals_per_round, initial=initial,
                seed=as_generator(seed),
            )
        )

    @property
    def arrivals_per_round(self) -> int:
        return self._batch.arrivals_per_round

    def run(self, rounds: int, observers=None) -> TetrisResult:
        """Simulate ``rounds`` rounds and collect the Lemma 4 / Lemma 6 metrics.

        ``observers`` see ``(round_index, loads)`` after every round, with
        the global round index and the ``(1, n)`` state.
        """
        emptying = self._batch.emptying_tracker()
        window = self._window(
            rounds, observers=[emptying, *BatchedObserverList.coerce(observers)]
        )
        emptied_by = int(emptying.last_first_empty[0])
        return TetrisResult(
            rounds=window.rounds,
            final_configuration=window.final_configuration,
            max_load_seen=window.max_load_seen,
            all_bins_emptied_by=None if emptied_by < 0 else emptied_by,
        )

    def reset(self, initial: Union[LoadConfiguration, np.ndarray, None] = None) -> None:
        """Reset loads (default: one ball per bin) and zero the round counter."""
        self._batch.reset(initial)


class ProbabilisticTetris(TetrisProcess):
    """Tetris with ``Binomial(n, lam)`` arrivals per round ("leaky bins").

    Parameters
    ----------
    n_bins:
        Number of bins.
    lam:
        Arrival rate per bin; the expected number of new balls per round is
        ``lam * n``.  Stability requires ``lam < 1``.
    initial, seed:
        As for :class:`TetrisProcess`.
    """

    def __init__(
        self,
        n_bins: int,
        lam: float = 0.75,
        initial: Union[LoadConfiguration, np.ndarray, None] = None,
        seed: SeedLike = None,
    ) -> None:
        ReplicaView.__init__(
            self,
            BatchedTetris(
                n_bins, 1, lam=lam, initial=initial, seed=as_generator(seed)
            ),
        )

    @property
    def lam(self) -> float:
        return self._batch.lam
