"""Batched fault injection: adversarial ensembles as one ``(R, n)`` state.

:class:`BatchedFaultyProcess` is the vectorized counterpart of
:class:`~repro.adversary.faulty_process.FaultyProcess`: it drives a batched
process (by default a
:class:`~repro.core.batched.BatchedRepeatedBallsIntoBins`, so the compiled
native kernel applies) and, at the rounds selected by a
:class:`~repro.adversary.faulty_process.FaultSchedule`, rewrites **every
replica's** configuration through the adversary's vectorized
:meth:`~repro.adversary.adversaries.Adversary.apply_batch` — ball
conservation is enforced per replica, both by the adversary wrapper and by
the process' :meth:`~repro.core.batched.BatchedLoadProcess.inject_loads`.

Execution is segmented: the rounds between consecutive faults run as one
engine call (a single FFI call with the native kernel), so an adversarial
ensemble costs barely more than a fault-free one.  Recovery times are read
off each post-fault segment's ``first_legitimate_round`` vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from .adversaries import Adversary, get_adversary
from .faulty_process import FaultSchedule
from ..core.batched import (
    BatchedLoadProcess,
    BatchedRepeatedBallsIntoBins,
    EnsembleResult,
)
from ..core.config import DEFAULT_BETA, LoadConfiguration
from ..errors import ConfigurationError
from ..metrics.base import BatchedObserverList
from ..rng import as_seed_sequence
from ..types import SeedLike

__all__ = ["BatchedFaultyProcess", "BatchedFaultyResult"]


@dataclass
class BatchedFaultyResult:
    """Vector-valued summary of one :meth:`BatchedFaultyProcess.run`.

    Attributes
    ----------
    rounds:
        Rounds simulated (shared by every replica; faults never freeze).
    fault_rounds:
        Rounds at which the adversary struck (shared by every replica).
    max_load_seen:
        Per-replica window maximum, including post-fault configurations.
    min_empty_bins_seen:
        Per-replica window minimum of the empty-bin count over the
        executed rounds.
    recovery_times:
        ``(F, R)`` matrix: for fault ``f`` and replica ``r``, the number of
        rounds until that replica was next in a legitimate configuration,
        or ``-1`` if it did not recover before the end of the run or the
        next fault.
    first_legitimate_round:
        Per-replica first round (1-based, in the wrapper's clock) with a
        legitimate configuration, or ``-1``.
    final_loads:
        The ``(R, n)`` configuration after the last round.
    """

    n_bins: int
    rounds: int
    fault_rounds: List[int]
    max_load_seen: np.ndarray
    min_empty_bins_seen: np.ndarray
    recovery_times: np.ndarray
    first_legitimate_round: np.ndarray
    final_loads: np.ndarray
    beta: float = field(default=DEFAULT_BETA)
    kernel: str = "numpy"

    @property
    def n_replicas(self) -> int:
        return int(self.final_loads.shape[0])

    @property
    def n_faults(self) -> int:
        """Faults injected per replica."""
        return len(self.fault_rounds)

    @property
    def fault_count(self) -> int:
        """Total fault events across the ensemble (``F * R``)."""
        return self.n_faults * self.n_replicas

    @property
    def recovered(self) -> np.ndarray:
        """``(F, R)`` boolean mask of fault events that recovered in time."""
        return self.recovery_times >= 0

    def flat_recoveries(self) -> np.ndarray:
        """All observed recovery times (faults that did recover), flattened."""
        return self.recovery_times[self.recovered]

    @property
    def max_recovery_time(self) -> Optional[int]:
        """Largest observed recovery time (``None`` when no fault recovered)."""
        recovered = self.flat_recoveries()
        return int(recovered.max()) if recovered.size else None

    @property
    def all_recovered(self) -> bool:
        return bool(self.n_faults) and bool(self.recovered.all())

    def to_ensemble_result(self) -> EnsembleResult:
        """Window metrics in the engine-agnostic :class:`EnsembleResult` shape."""
        R = self.n_replicas
        return EnsembleResult(
            n_bins=self.n_bins,
            rounds=np.full(R, self.rounds, dtype=np.int64),
            final_loads=self.final_loads,
            max_load_seen=self.max_load_seen,
            min_empty_bins_seen=self.min_empty_bins_seen,
            first_legitimate_round=self.first_legitimate_round,
            beta=self.beta,
            kernel=self.kernel,
        )


class BatchedFaultyProcess:
    """``R`` independent repeated balls-into-bins runs under adversarial faults.

    Parameters
    ----------
    n_bins, n_replicas:
        System size and ensemble size.
    adversary:
        Adversary name or instance applied (to every replica independently)
        at faulty rounds.
    schedule:
        A :class:`FaultSchedule`; the convenience constructor
        :meth:`with_gamma` builds the paper's ``gamma * n`` periodic
        schedule.
    n_balls, initial, seed, kernel, n_threads:
        Forwarded to :class:`~repro.core.batched.BatchedRepeatedBallsIntoBins`
        (``seed`` also feeds the adversary's own stream).  Passing an
        existing :class:`numpy.random.Generator` makes the adversary and
        the process share that one stream — the convention of the
        single-replica :class:`~repro.adversary.faulty_process.FaultyProcess`,
        which (with the numpy kernel, ``R == 1`` and a deterministic-draw
        adversary) makes the two fault injectors stream-compatible.
    process:
        Optional pre-built batched process to attack instead of a fresh
        :class:`BatchedRepeatedBallsIntoBins` — any
        :class:`~repro.core.batched.BatchedLoadProcess` works (e.g. a
        :class:`~repro.baselines.d_choices.BatchedDChoices`).  Mutually
        exclusive with ``n_balls``/``initial`` (configure the process
        itself); ``kernel`` is ignored in this case.
    """

    def __init__(
        self,
        n_bins: int,
        n_replicas: int,
        adversary: Union[str, Adversary] = "concentrate",
        schedule: Optional[FaultSchedule] = None,
        n_balls: Optional[int] = None,
        initial: Union[LoadConfiguration, np.ndarray, None] = None,
        seed: SeedLike = None,
        kernel: str = "auto",
        process: Optional[BatchedLoadProcess] = None,
        n_threads: Optional[int] = None,
    ) -> None:
        if isinstance(seed, np.random.Generator):
            # one shared stream for adversary and process, as in FaultyProcess
            self._rng = seed
            process_seq: SeedLike = seed
        else:
            adversary_seq, process_seq = as_seed_sequence(seed).spawn(2)
            self._rng = np.random.default_rng(adversary_seq)
        if process is not None:
            if n_balls is not None or initial is not None:
                raise ConfigurationError(
                    "n_balls/initial cannot be combined with a pre-built "
                    "process; configure the process itself instead"
                )
            if process.n_bins != n_bins or process.n_replicas != n_replicas:
                raise ConfigurationError(
                    f"provided process simulates ({process.n_replicas}, "
                    f"{process.n_bins}), expected ({n_replicas}, {n_bins})"
                )
            self._process: BatchedLoadProcess = process
        else:
            self._process = BatchedRepeatedBallsIntoBins(
                n_bins,
                n_replicas,
                n_balls=n_balls,
                initial=initial,
                seed=process_seq,
                kernel=kernel,
                n_threads=n_threads,
            )
        self._adversary = get_adversary(adversary)
        self._schedule = schedule if schedule is not None else FaultSchedule.never()

    @classmethod
    def with_gamma(
        cls,
        n_bins: int,
        n_replicas: int,
        gamma: float = 6.0,
        adversary: Union[str, Adversary] = "concentrate",
        **kwargs,
    ) -> "BatchedFaultyProcess":
        """Periodic faults every ``gamma * n`` rounds (the Section 4.1 regime)."""
        if gamma <= 0:
            raise ConfigurationError(f"gamma must be positive, got {gamma}")
        period = max(int(math.ceil(gamma * n_bins)), 1)
        return cls(
            n_bins,
            n_replicas,
            adversary=adversary,
            schedule=FaultSchedule.every(period),
            **kwargs,
        )

    # ------------------------------------------------------------------
    @property
    def process(self) -> BatchedLoadProcess:
        return self._process

    @property
    def adversary(self) -> Adversary:
        return self._adversary

    @property
    def schedule(self) -> FaultSchedule:
        return self._schedule

    @property
    def n_bins(self) -> int:
        return self._process.n_bins

    @property
    def n_replicas(self) -> int:
        return self._process.n_replicas

    # ------------------------------------------------------------------
    def run(
        self,
        rounds: int,
        beta: float = DEFAULT_BETA,
        observers=None,
        observe_every: int = 1,
    ) -> BatchedFaultyResult:
        """Simulate ``rounds`` rounds with fault injection.

        In a faulty round the adversary reassigns every replica's
        configuration *before* the normal round executes (so the process
        immediately starts recovering from the adversarial state), exactly
        as in :meth:`FaultyProcess.run`.  Rounds between consecutive faults
        execute as one engine call, so the native kernel's whole-window FFI
        speedup carries over to adversarial ensembles.

        ``observers`` / ``observe_every`` are forwarded to every segment's
        engine call (see :meth:`BatchedLoadProcess.run`); observers see
        post-step configurations only (not the injected pre-step states),
        with round indexes counted on the wrapped process' global clock,
        and the observation stride restarts at each fault.
        """
        if rounds < 0:
            raise ConfigurationError(f"rounds must be >= 0, got {rounds}")
        obs = BatchedObserverList.coerce(observers)
        process = self._process
        R = process.n_replicas
        fault_rounds = [
            t for t in range(1, rounds + 1) if self._schedule.is_faulty(t)
        ]
        recovery = np.full((len(fault_rounds), R), -1, dtype=np.int64)
        first_legit = np.full(R, -1, dtype=np.int64)
        max_seen = process.max_load.astype(np.int64)
        min_empty = np.full(R, process.n_bins, dtype=np.int64)
        kernels = set()

        def run_segment(start_round: int, length: int, fault_index: Optional[int]):
            """One fault-free stretch starting at wrapper round ``start_round``."""
            if length <= 0:
                return
            offset = process.rounds_completed
            result = process.run(
                length, beta=beta, observers=obs, observe_every=observe_every
            )
            kernels.add(result.kernel)
            np.maximum(max_seen, result.max_load_seen, out=max_seen)
            np.minimum(
                min_empty, result.min_empty_bins_seen, out=min_empty
            )
            hit = result.first_legitimate_round >= 0
            if not hit.any():
                return
            # translate the engine's global round counter into wrapper rounds
            wrapper_round = (
                result.first_legitimate_round - offset + start_round - 1
            )
            np.copyto(
                first_legit, wrapper_round, where=hit & (first_legit < 0)
            )
            if fault_index is not None:
                recovery[fault_index, hit] = (
                    wrapper_round[hit] - fault_rounds[fault_index]
                )

        previous = 1  # wrapper round at which the next segment starts
        pending: Optional[int] = None  # fault awaiting recovery
        for index, fault_round in enumerate(fault_rounds):
            run_segment(previous, fault_round - previous, pending)
            reassigned = self._adversary.apply_batch(process.loads, self._rng)
            process.inject_loads(reassigned)
            np.maximum(max_seen, reassigned.max(axis=1), out=max_seen)
            previous = fault_round
            pending = index
        run_segment(previous, rounds - previous + 1, pending)

        if rounds == 0:
            min_empty = process.num_empty_bins.astype(np.int64)
        if not kernels:
            kernel = getattr(self._process, "kernel_name", "numpy")
        else:
            kernel = kernels.pop() if len(kernels) == 1 else "mixed"
        return BatchedFaultyResult(
            n_bins=process.n_bins,
            rounds=rounds,
            fault_rounds=fault_rounds,
            max_load_seen=max_seen,
            min_empty_bins_seen=min_empty,
            recovery_times=recovery,
            first_legitimate_round=first_legit,
            final_loads=process.loads.copy(),
            beta=beta,
            kernel=kernel,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchedFaultyProcess(n_bins={self.n_bins}, "
            f"n_replicas={self.n_replicas}, adversary={self._adversary!r}, "
            f"schedule={self._schedule!r})"
        )
