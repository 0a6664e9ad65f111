"""The repeated balls-into-bins process (anonymous, load-vector level).

The process of the paper: ``n`` balls live in ``n`` bins; in every round one
ball is extracted from each non-empty bin and re-assigned to a bin chosen
uniformly at random (all extractions and re-assignments of a round happen
synchronously).  Because the process is oblivious to ball identities, the
system state is fully described by the load vector, and one round costs a
single ``rng.integers`` draw plus one ``np.bincount`` — no Python-level loop
over bins.

:class:`RepeatedBallsIntoBins` is one run of it, a :class:`ReplicaView`:
replica 0 of a one-replica
:class:`~repro.core.batched.BatchedRepeatedBallsIntoBins` on the numpy
kernel, whose ``R == 1`` window runs on Python ints.  ``DChoicesProcess``
and ``ConstrainedParallelWalks`` are views of the same kind.

The class also supports the generalization with ``m != n`` balls
(Section 5's open question) and arbitrary initial configurations
(self-stabilization experiments).

Example
-------
>>> process = RepeatedBallsIntoBins(8, seed=0)
>>> result = process.run(16)
>>> result.rounds
16
>>> int(result.final_configuration.n_balls)  # balls are conserved
8
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .batched import BatchedLoadProcess, BatchedRepeatedBallsIntoBins
from .config import DEFAULT_BETA, LoadConfiguration
from ..rng import as_generator
from ..types import LoadVector, SeedLike

__all__ = ["ReplicaView", "RepeatedBallsIntoBins", "SimulationResult"]


@dataclass
class SimulationResult:
    """Summary of a :meth:`RepeatedBallsIntoBins.run` call.

    Attributes
    ----------
    rounds:
        Number of rounds simulated by this call.
    final_configuration:
        The configuration after the last simulated round.
    max_load_seen:
        The largest load observed in any round of this call (the
        window maximum ``max_t M(t)``); a call that ran no round reports
        the current configuration's.
    min_empty_bins_seen:
        The smallest per-round empty-bin count observed in this call; a
        call that ran no round reports the current configuration's.
    first_legitimate_round:
        The process's round index at the first legitimate configuration
        this call reached, or ``None``.  With ``stop_when_legitimate`` the
        starting configuration counts too: a legitimate one reports the
        round the call started at.
    """

    rounds: int
    final_configuration: LoadConfiguration
    max_load_seen: int
    min_empty_bins_seen: int
    first_legitimate_round: Optional[int] = None
    beta: float = field(default=DEFAULT_BETA)

    @property
    def ended_legitimate(self) -> bool:
        """Whether the final configuration is legitimate for this ``beta``."""
        return self.final_configuration.is_legitimate(self.beta)


class ReplicaView:
    """One run of a load process: replica 0 of a one-replica batched process.

    A view holds one :class:`~repro.core.batched.BatchedLoadProcess` with
    ``n_replicas=1`` on the numpy kernel, seeded with ``as_generator(seed)``,
    and keeps nothing of its own: the ``(1, n)`` int32 state, the
    generator, the validation and every round are the batched process's.
    The view reads the state's row as a read-only vector and the window's
    length-1 vectors as ints; observers see the ``(1, n)`` state.
    """

    def __init__(self, batch: BatchedLoadProcess) -> None:
        self._batch = batch

    @property
    def n_bins(self) -> int:
        return self._batch.n_bins

    @property
    def n_balls(self) -> int:
        return int(self._batch.n_balls[0])

    @property
    def round_index(self) -> int:
        """Number of rounds simulated so far."""
        return self._batch.round_index

    @property
    def loads(self) -> LoadVector:
        """Read-only view of the current load vector."""
        return self._batch.loads[0]

    def configuration(self) -> LoadConfiguration:
        """Immutable snapshot of the current configuration."""
        return self._batch.configuration(0)

    @property
    def max_load(self) -> int:
        return int(self.loads.max())

    @property
    def num_empty_bins(self) -> int:
        return self.n_bins - int(np.count_nonzero(self.loads))

    def is_legitimate(self, beta: float = DEFAULT_BETA) -> bool:
        """Whether the current configuration is legitimate (max load <= beta*log n)."""
        return bool(self._batch.is_legitimate(beta)[0])

    def step(self) -> LoadVector:
        """Advance the process by one round and return the new loads (read-only)."""
        return self._batch.step()[0]

    def _window(
        self,
        rounds: int,
        beta: float = DEFAULT_BETA,
        stop_when_legitimate: bool = False,
        observers=None,
        observe_every: int = 1,
        seeded: bool = False,
    ) -> SimulationResult:
        """Advance one window of the batched process, as a single run's result.

        The window follows the batched rule: its max and empty count cover
        the rounds it ran, or the current configuration when it ran none,
        and an early stop is checked before the first round too and
        freezes the replica for this window only.  ``seeded`` also folds
        in the configuration at call time.
        """
        batch = self._batch
        start = (self.max_load, self.num_empty_bins) if seeded else (0, self.n_bins)
        window = batch.advance_window(
            rounds, beta, stop_when_legitimate, observers, observe_every
        )
        batch._unfreeze_single()
        first = int(window.first_legitimate_round[0])
        return SimulationResult(
            rounds=int(window.rounds[0]),
            final_configuration=self.configuration(),
            max_load_seen=max(start[0], int(window.max_load_seen[0])),
            min_empty_bins_seen=min(start[1], int(window.min_empty_bins_seen[0])),
            first_legitimate_round=None if first < 0 else first,
            beta=beta,
        )


class RepeatedBallsIntoBins(ReplicaView):
    """Simulator of the repeated balls-into-bins process.

    Parameters
    ----------
    n_bins:
        Number of bins ``n``.
    n_balls:
        Number of balls ``m``; defaults to ``n_bins`` (the paper's setting).
        With ``initial`` it may be left out, and must equal its ball count.
    initial:
        Optional starting configuration: a :class:`LoadConfiguration`, an
        integer array, or ``None`` for the balanced one-ball-per-bin start.
    seed:
        Seed-like value for the random generator.
    """

    def __init__(
        self,
        n_bins: int,
        n_balls: Optional[int] = None,
        initial: Union[LoadConfiguration, np.ndarray, None] = None,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(
            BatchedRepeatedBallsIntoBins(
                n_bins, 1, n_balls=n_balls, initial=initial,
                seed=as_generator(seed), kernel="numpy",
            )
        )

    def run(
        self,
        rounds: int,
        observers=None,
        beta: float = DEFAULT_BETA,
        stop_when_legitimate: bool = False,
    ) -> SimulationResult:
        """Simulate ``rounds`` rounds, optionally stopping early.

        ``observers`` (``None``, one observer/callable or a sequence) see
        ``(round_index, loads)`` after every round, with the global round
        index and the ``(1, n)`` state.  ``beta`` is the legitimacy
        constant of ``first_legitimate_round`` and of the early stop:
        ``stop_when_legitimate`` stops at the first legitimate
        configuration (the convergence-time experiments), and a call from
        a legitimate configuration runs no round.
        """
        return self._window(rounds, beta, stop_when_legitimate, observers)

    def run_until_legitimate(
        self, max_rounds: int, beta: float = DEFAULT_BETA, observers=None
    ) -> Optional[int]:
        """Run until a legitimate configuration is reached.

        Returns the (global) round index of the first legitimate
        configuration, or ``None`` if ``max_rounds`` elapsed first.  If the
        current configuration is already legitimate, returns the current
        round index without simulating.
        """
        return self.run(max_rounds, observers, beta, True).first_legitimate_round

    def inject_loads(self, loads: Union[LoadConfiguration, np.ndarray]) -> None:
        """Replace the current loads with a ball-conserving configuration.

        The Section 4.1 fault hook
        (:meth:`~repro.core.batched.BatchedLoadProcess.inject_loads`): an
        adversary may reassign balls arbitrarily *between* rounds but may
        not create or destroy them.  Unlike :meth:`reset`, the round
        counter keeps running.
        """
        if isinstance(loads, LoadConfiguration):
            loads = loads.loads
        self._batch.inject_loads(np.asarray(loads)[np.newaxis])

    def reset(self, initial: Union[LoadConfiguration, np.ndarray, None] = None) -> None:
        """Reset to ``initial`` (or the balanced start) and zero the round counter.

        The random generator state is *not* reset; reuse of a simulator for
        several trials therefore continues the same stream.
        """
        self._batch.reset(initial)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RepeatedBallsIntoBins(n_bins={self.n_bins}, n_balls={self.n_balls}, "
            f"round={self.round_index}, max_load={self.max_load})"
        )
