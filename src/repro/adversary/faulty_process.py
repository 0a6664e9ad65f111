"""Fault injection around the repeated balls-into-bins process.

:class:`FaultyProcess` runs a :class:`~repro.core.process.RepeatedBallsIntoBins`
and applies an :class:`~repro.adversary.adversaries.Adversary` at rounds
chosen by a :class:`FaultSchedule`.  This is the Section 4.1 model: faulty
rounds at frequency at most once every ``gamma * n`` rounds leave the
cover-time/self-stabilization guarantees intact up to constants.

It is one run of :class:`~repro.adversary.batched.BatchedFaultyProcess`:
the ``R == 1`` fault injector over the one-replica batched process behind
its :attr:`~FaultyProcess.process`, with one ``Generator`` shared by the
adversary and the process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from .adversaries import Adversary
from ..core.config import DEFAULT_BETA, LoadConfiguration
from ..core.process import RepeatedBallsIntoBins
from ..errors import ConfigurationError
from ..rng import as_generator
from ..types import SeedLike

__all__ = ["FaultSchedule", "FaultyProcess", "FaultyRunResult"]


@dataclass(frozen=True)
class FaultSchedule:
    """When faults happen.

    Attributes
    ----------
    period:
        A fault is injected every ``period`` rounds (``None`` disables
        periodic faults).  The paper's guarantee needs ``period >= 6 n``.
    offset:
        First faulty round (defaults to ``period``).
    explicit_rounds:
        Additional explicit fault rounds (useful in tests).
    """

    period: Optional[int] = None
    offset: Optional[int] = None
    explicit_rounds: frozenset = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.period is not None and self.period < 1:
            raise ConfigurationError(f"period must be >= 1, got {self.period}")
        if self.offset is not None and self.offset < 1:
            raise ConfigurationError(f"offset must be >= 1, got {self.offset}")
        object.__setattr__(self, "explicit_rounds", frozenset(int(r) for r in self.explicit_rounds))

    def is_faulty(self, round_index: int) -> bool:
        """Whether ``round_index`` (1-based) is a faulty round."""
        if round_index in self.explicit_rounds:
            return True
        if self.period is None:
            return False
        start = self.offset if self.offset is not None else self.period
        return round_index >= start and (round_index - start) % self.period == 0

    def fault_rounds(self, rounds: int) -> List[int]:
        """The faulty rounds among ``1 .. rounds``, in increasing order."""
        found = {t for t in self.explicit_rounds if 1 <= t <= rounds}
        if self.period is not None:
            start = self.offset if self.offset is not None else self.period
            found.update(range(start, rounds + 1, self.period))
        return sorted(found)

    @classmethod
    def with_gamma(cls, n_bins: int, gamma: float = 6.0) -> "FaultSchedule":
        """Faults every ``ceil(gamma * n)`` rounds (the Section 4.1 regime)."""
        if gamma <= 0:
            raise ConfigurationError(f"gamma must be positive, got {gamma}")
        return cls.every(max(int(math.ceil(gamma * n_bins)), 1))

    @classmethod
    def every(cls, period: int, offset: Optional[int] = None) -> "FaultSchedule":
        """Periodic schedule with the given period."""
        return cls(period=period, offset=offset)

    @classmethod
    def never(cls) -> "FaultSchedule":
        """The fault-free schedule."""
        return cls(period=None)


@dataclass
class FaultyRunResult:
    """Summary of a faulty run.

    Attributes
    ----------
    rounds:
        Rounds simulated.
    fault_rounds:
        Rounds at which the adversary struck.
    max_load_seen:
        Window maximum load (including post-fault configurations).
    recovery_times:
        For each fault, the number of rounds until the process was next in a
        legitimate configuration (``-1`` if it did not recover before the end
        of the run or the next fault).
    final_configuration:
        The configuration after the last round.
    """

    rounds: int
    fault_rounds: List[int]
    max_load_seen: int
    recovery_times: List[int]
    final_configuration: LoadConfiguration

    @property
    def max_recovery_time(self) -> Optional[int]:
        """Largest observed recovery time (``None`` when no fault recovered)."""
        recovered = [r for r in self.recovery_times if r >= 0]
        return max(recovered) if recovered else None

    @property
    def all_recovered(self) -> bool:
        return bool(self.recovery_times) and all(r >= 0 for r in self.recovery_times)


class FaultyProcess:
    """A repeated balls-into-bins process subject to adversarial faults.

    The parameters are :class:`~repro.adversary.batched.BatchedFaultyProcess`'s
    without ``n_replicas``, ``kernel``, ``process`` and ``n_threads``;
    ``initial``, ``n_balls`` and ``seed`` build :attr:`process`, whose
    ``Generator`` the adversary shares.
    """

    def __init__(
        self,
        n_bins: int,
        adversary: Union[str, Adversary] = "concentrate",
        schedule: Optional[FaultSchedule] = None,
        n_balls: Optional[int] = None,
        initial: Union[LoadConfiguration, np.ndarray, None] = None,
        seed: SeedLike = None,
    ) -> None:
        # function-level: the batched injector imports this module
        from .batched import BatchedFaultyProcess

        rng = as_generator(seed)
        self._process = RepeatedBallsIntoBins(
            n_bins, n_balls=n_balls, initial=initial, seed=rng
        )
        self._faulty = BatchedFaultyProcess(
            n_bins, 1, adversary=adversary, schedule=schedule, seed=rng,
            process=self._process._batch,
        )

    @classmethod
    def with_gamma(
        cls,
        n_bins: int,
        gamma: float = 6.0,
        adversary: Union[str, Adversary] = "concentrate",
        **kwargs,
    ) -> "FaultyProcess":
        """Periodic faults every ``gamma * n`` rounds (the Section 4.1 regime)."""
        schedule = FaultSchedule.with_gamma(n_bins, gamma)
        return cls(n_bins, adversary=adversary, schedule=schedule, **kwargs)

    # ------------------------------------------------------------------
    @property
    def process(self) -> RepeatedBallsIntoBins:
        """The process under attack: a view over the injector's state."""
        return self._process

    @property
    def adversary(self) -> Adversary:
        return self._faulty.adversary

    @property
    def schedule(self) -> FaultSchedule:
        return self._faulty.schedule

    # ------------------------------------------------------------------
    def run(
        self,
        rounds: int,
        beta: float = DEFAULT_BETA,
        observers=None,
    ) -> FaultyRunResult:
        """Simulate ``rounds`` rounds with fault injection.

        In a faulty round the adversary reassigns the configuration *before*
        the normal process round executes, through ``inject_loads``, so the
        process's round counter keeps running.  Observers see the ``(1, n)``
        state after every round, with the process's round index.
        """
        result = self._faulty.run(rounds, beta=beta, observers=observers)
        return FaultyRunResult(
            rounds=result.rounds,
            fault_rounds=result.fault_rounds,
            max_load_seen=int(result.max_load_seen[0]),
            recovery_times=result.recovery_times[:, 0].tolist(),
            final_configuration=self._process.configuration(),
        )
