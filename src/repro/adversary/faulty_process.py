"""Fault injection around a load-level process.

:class:`FaultyProcess` wraps a :class:`~repro.core.process.RepeatedBallsIntoBins`
(or any object with the same ``step``/``loads`` surface plus a ``reset``)
and applies an :class:`~repro.adversary.adversaries.Adversary` at rounds
chosen by a :class:`FaultSchedule`.  This is the Section 4.1 model: faulty
rounds at frequency at most once every ``gamma * n`` rounds leave the
cover-time/self-stabilization guarantees intact up to constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from .adversaries import Adversary, get_adversary
from ..core.config import DEFAULT_BETA, LoadConfiguration, legitimacy_threshold
from ..core.process import RepeatedBallsIntoBins
from ..errors import ConfigurationError
from ..metrics.base import BatchedObserverList
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

    Parameters
    ----------
    n_bins:
        Number of bins.
    adversary:
        Adversary name or instance applied at faulty rounds.
    schedule:
        A :class:`FaultSchedule`; the convenience constructor
        :meth:`with_gamma` builds the paper's ``gamma * n`` periodic schedule.
    initial, n_balls, seed:
        Forwarded to :class:`~repro.core.process.RepeatedBallsIntoBins`.
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
        rng = as_generator(seed)
        self._process = RepeatedBallsIntoBins(n_bins, n_balls=n_balls, initial=initial, seed=rng)
        self._adversary = get_adversary(adversary)
        self._schedule = schedule if schedule is not None else FaultSchedule.never()
        self._rng = rng

    @classmethod
    def with_gamma(
        cls,
        n_bins: int,
        gamma: float = 6.0,
        adversary: Union[str, Adversary] = "concentrate",
        **kwargs,
    ) -> "FaultyProcess":
        """Periodic faults every ``gamma * n`` rounds (the Section 4.1 regime)."""
        if gamma <= 0:
            raise ConfigurationError(f"gamma must be positive, got {gamma}")
        period = max(int(math.ceil(gamma * n_bins)), 1)
        return cls(n_bins, adversary=adversary, schedule=FaultSchedule.every(period), **kwargs)

    # ------------------------------------------------------------------
    @property
    def process(self) -> RepeatedBallsIntoBins:
        return self._process

    @property
    def adversary(self) -> Adversary:
        return self._adversary

    @property
    def schedule(self) -> FaultSchedule:
        return self._schedule

    # ------------------------------------------------------------------
    def run(
        self,
        rounds: int,
        beta: float = DEFAULT_BETA,
        observers=None,
    ) -> FaultyRunResult:
        """Simulate ``rounds`` rounds with fault injection.

        In a faulty round the adversary reassigns the configuration *before*
        the normal process round executes (so the process immediately starts
        recovering from the adversarial state).
        """
        if rounds < 0:
            raise ConfigurationError(f"rounds must be >= 0, got {rounds}")
        obs = BatchedObserverList.coerce(observers)
        process = self._process
        n = process.n_bins
        threshold = legitimacy_threshold(n, beta)

        fault_rounds: List[int] = []
        recovery_times: List[int] = []
        pending_fault_round: Optional[int] = None
        max_load_seen = process.max_load

        for step in range(1, rounds + 1):
            if self._schedule.is_faulty(step):
                reassigned = self._adversary(process.loads, self._rng)
                process.reset(initial=LoadConfiguration(reassigned))
                # reset() zeroes the process-internal round counter; the wrapper
                # keeps its own notion of time via `step`.
                post_fault_max = int(reassigned.max())
                if post_fault_max > max_load_seen:
                    max_load_seen = post_fault_max
                fault_rounds.append(step)
                if pending_fault_round is not None:
                    recovery_times.append(-1)
                pending_fault_round = step
            loads = process.step()
            current_max = int(loads.max())
            if current_max > max_load_seen:
                max_load_seen = current_max
            if not obs.is_empty:
                obs.observe(step, loads)
            if pending_fault_round is not None and current_max <= threshold:
                recovery_times.append(step - pending_fault_round)
                pending_fault_round = None

        if pending_fault_round is not None:
            recovery_times.append(-1)

        return FaultyRunResult(
            rounds=rounds,
            fault_rounds=fault_rounds,
            max_load_seen=max_load_seen,
            recovery_times=recovery_times,
            final_configuration=process.configuration(),
        )
