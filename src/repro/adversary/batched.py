"""Batched fault injection: adversarial ensembles as one ``(R, n)`` state.

:class:`BatchedFaultyProcess` is the fault injector, and
:class:`~repro.adversary.faulty_process.FaultyProcess` its ``R == 1``
view: it drives a batched process (by default a
:class:`~repro.core.batched.BatchedRepeatedBallsIntoBins`, so the compiled
native kernel applies) and, at the rounds selected by a
:class:`~repro.adversary.faulty_process.FaultSchedule`, rewrites **every
replica's** configuration through the adversary's vectorized
:meth:`~repro.adversary.adversaries.Adversary.reassign_batch`.  Its output
goes straight to the process'
:meth:`~repro.core.batched.BatchedLoadProcess.inject_loads`, the single
check of a fault (shape, integer values, no negative load, per-replica ball
conservation), which then writes it into the int32 state in place.

Two paths run a window, with the same results, and the process's
:meth:`~repro.core.batched.BatchedLoadProcess.plan_window` picks one; the
wrapper hands it two reasons of its own against the first path, an
adversary without the concentrate adversary's own
:meth:`~repro.adversary.adversaries.ConcentrateAdversary.reassign_batch`
and a ``Generator`` shared with the process:

* **In the kernel**, when the plan is one fused call.  Every fault's pile
  targets are drawn up front, one
  :meth:`~repro.adversary.adversaries.ConcentrateAdversary.pile_targets`
  call per fault in fault order, and the whole window is one
  :meth:`~repro.core.batched.BatchedLoadProcess.advance_window` call that
  strikes the faults between rounds inside the kernel.  Recovery times come
  from the kernel's first legitimate round after each fault.
* **Segmented**, the reference, for any plan with fallbacks: the rounds
  between consecutive faults run as one engine call each through
  ``advance_window``, and each fault's matrix goes through
  ``inject_loads``.  Recovery times are read off each post-fault segment's
  ``first_legitimate_round`` vector.

Either way ``advance_window`` returns only the window vectors and the loads
are copied once, into the result, at the end, so an adversarial ensemble
costs barely more than a fault-free one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from .adversaries import Adversary, ConcentrateAdversary, get_adversary
from .faulty_process import FaultSchedule
from ..core.batched import (
    BatchedLoadProcess,
    BatchedRepeatedBallsIntoBins,
    EnsembleResult,
    Fallback,
    PileFaults,
    WindowPlan,
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
    plan:
        The :class:`~repro.core.batched.WindowPlan` the run acted on: its
        kernel, and why the faults did not strike inside one kernel call.
    """

    n_bins: int
    rounds: int
    fault_rounds: List[int]
    max_load_seen: np.ndarray
    min_empty_bins_seen: np.ndarray
    recovery_times: np.ndarray
    first_legitimate_round: np.ndarray
    final_loads: np.ndarray
    plan: WindowPlan
    beta: float = field(default=DEFAULT_BETA)

    @property
    def n_replicas(self) -> int:
        return int(self.final_loads.shape[0])

    @property
    def kernel(self) -> str:
        """The kernel that ran: ``"native"`` or ``"numpy"``."""
        return self.plan.kernel

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
        the process share that one stream: the single-replica
        :class:`~repro.adversary.faulty_process.FaultyProcess` is this
        class at ``R == 1`` on the numpy kernel with such a shared stream.
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
            # function-level: repro.parallel imports this module
            from ..parallel.seeding import trial_seed

            root = as_seed_sequence(seed)
            adversary_seq, process_seq = trial_seed(root, 0), trial_seed(root, 1)
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
        schedule = FaultSchedule.with_gamma(n_bins, gamma)
        return cls(n_bins, n_replicas, adversary=adversary, schedule=schedule, **kwargs)

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
        as in :meth:`FaultyProcess.run`.  Concentrate faults strike inside
        one native kernel call for the whole window where the process
        plans one; otherwise the rounds between consecutive faults execute
        as one engine call each (see the module docstring).  Both paths
        give the same result, bit for bit, and the result carries the plan.

        ``observers`` / ``observe_every`` are forwarded to the engine
        calls (see :meth:`BatchedLoadProcess.run`); observers see
        post-step configurations only (not the injected pre-step states),
        with round indexes counted on the wrapped process' global clock,
        and the observation stride restarts at each fault.
        """
        if rounds < 0:
            raise ConfigurationError(f"rounds must be >= 0, got {rounds}")
        obs = BatchedObserverList.coerce(observers)
        process = self._process
        fault_rounds = self._schedule.fault_rounds(rounds)
        start_max = process.max_load.astype(np.int64)
        plan = process.plan_window(rounds, obs, piles=self._pile_fallbacks())
        run = self._run_in_kernel if plan.fused else self._run_segmented
        max_seen, min_empty, recovery, first_legit = run(
            rounds, beta, obs, observe_every, fault_rounds
        )
        return BatchedFaultyResult(
            n_bins=process.n_bins,
            rounds=rounds,
            fault_rounds=fault_rounds,
            max_load_seen=np.maximum(start_max, max_seen),
            min_empty_bins_seen=min_empty,
            recovery_times=recovery,
            first_legitimate_round=first_legit,
            final_loads=process.loads.astype(np.int64),
            plan=plan,
            beta=beta,
        )

    def _pile_fallbacks(self) -> Tuple[Fallback, ...]:
        """This wrapper's reasons against striking its faults in the kernel.

        A fault is fixed by its pile targets only when the adversary's
        ``reassign_batch`` is the concentrate adversary's own; and an
        adversary that shares its stream with the process would see the
        process's first kernel call draw the native states from it between
        two faults' targets.
        """
        own = (
            type(self._adversary).reassign_batch is ConcentrateAdversary.reassign_batch
        )
        checks = {
            Fallback.NOT_CONCENTRATE: not own,
            Fallback.SHARED_GENERATOR: self._process.rng is self._rng,
        }
        return tuple(reason for reason, hit in checks.items() if hit)

    def _run_in_kernel(self, rounds, beta, observers, observe_every, fault_rounds):
        """The whole window as one kernel call, the faults struck inside it.

        Returns ``(max_seen, min_empty, recovery, first_legit)``.
        """
        process = self._process
        n, R = process.n_bins, process.n_replicas
        # one draw per fault, in fault order, as reassign_batch draws them
        # (one draw of F * R values could differ: numpy's bounded 32-bit
        # draws buffer half-words within a call)
        bins = [self._adversary.pile_targets(n, R, self._rng) for _ in fault_rounds]
        at = np.asarray(fault_rounds, dtype=np.int64)
        piles = PileFaults(
            rounds=at - 1,
            bins=np.stack(bins) if bins else np.zeros((0, R), dtype=np.int64),
        )
        offset = process.rounds_completed
        window = process.advance_window(
            rounds, beta=beta, observers=observers,
            observe_every=observe_every, piles=piles,
        )
        # the kernel reports rounds on the process clock; wrapper round t
        # is process round offset + t
        first = window.first_legitimate_round
        first_legit = np.where(first >= 0, first - offset, -1)
        recovery = np.where(
            window.fault_legit >= 0,
            window.fault_legit - offset - at[:, None],
            -1,
        )
        return (
            window.max_load_seen, window.min_empty_bins_seen, recovery,
            first_legit,
        )

    def _run_segmented(self, rounds, beta, observers, observe_every, fault_rounds):
        """One engine call per fault-free stretch, each fault injected
        between them through ``inject_loads``.

        Returns ``(max_seen, min_empty, recovery, first_legit)``.
        """
        process = self._process
        R = process.n_replicas
        recovery = np.full((len(fault_rounds), R), -1, dtype=np.int64)
        first_legit = np.full(R, -1, dtype=np.int64)
        max_seen = np.zeros(R, dtype=np.int64)
        min_empty = np.full(R, process.n_bins, dtype=np.int64)

        def run_segment(start_round: int, length: int, fault_index: Optional[int]):
            """One fault-free stretch starting at wrapper round ``start_round``."""
            if length <= 0:
                return
            offset = process.rounds_completed
            window = process.advance_window(
                length, beta=beta, observers=observers,
                observe_every=observe_every,
            )
            np.maximum(max_seen, window.max_load_seen, out=max_seen)
            np.minimum(
                min_empty, window.min_empty_bins_seen, out=min_empty
            )
            hit = window.first_legitimate_round >= 0
            if not hit.any():
                return
            # translate the engine's global round counter into wrapper rounds
            wrapper_round = (
                window.first_legitimate_round - offset + start_round - 1
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
            process.inject_loads(
                self._adversary.reassign_batch(process.loads, self._rng)
            )
            np.maximum(max_seen, process.max_load, out=max_seen)
            previous = fault_round
            pending = index
        run_segment(previous, rounds - previous + 1, pending)

        if rounds == 0:
            min_empty = process.num_empty_bins.astype(np.int64)
        return max_seen, min_empty, recovery, first_legit

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchedFaultyProcess(n_bins={self.n_bins}, "
            f"n_replicas={self.n_replicas}, adversary={self._adversary!r}, "
            f"schedule={self._schedule!r})"
        )
