"""Batched ensemble simulation: R replicas as one vectorized ``(R, n)`` state.

Every empirical claim in the paper is a statement about *distributions over
runs* (max-load tails, convergence-time quantiles, empty-bin counts), so the
real workload of this repository is Monte-Carlo ensembles.  This module
provides the batched-process layer those ensembles run on:

:class:`BatchedProcess`
    The structural protocol every batched process implements: ``(R, n)``
    loads, per-replica metric reducers, ``step``/``run`` dynamics returning
    an :class:`EnsembleResult`.
:class:`BatchedLoadProcess`
    The shared machinery — state validation, per-replica round counters and
    freeze masks, the window-metric ``run`` loop, ball-conservation checks,
    and fault injection via :meth:`~BatchedLoadProcess.inject_loads`.
    Subclasses implement one method (:meth:`~BatchedLoadProcess._advance`)
    to define their round dynamics; ``repro.baselines.d_choices`` uses this
    to batch the Greedy[d] allocator.
:class:`BatchedRepeatedBallsIntoBins`
    The paper's process.  A round advances **all** replicas with a single
    flat random draw plus one ``np.bincount`` over the combined index space
    (each replica's destinations are offset by ``r * n``), instead of ``R``
    separate Python-level simulations.

Two kernels drive the repeated balls-into-bins update:

``numpy`` (reference)
    Pure-numpy, and **stream-compatible** with
    :class:`~repro.core.process.RepeatedBallsIntoBins`: with ``R == 1`` and
    the same seed it consumes the generator identically and reproduces the
    single-replica trajectory step for step.
``native`` (fast)
    A small C kernel (see ``rbb_kernel.c``) compiled on demand and driven
    through :mod:`ctypes`; each replica owns an independent xoshiro256++
    stream seeded from the same root seed.  Trajectories differ from the
    numpy kernel (different generator) but follow the same distribution;
    whole ``run()`` calls collapse into a single FFI call, which is where
    the order-of-magnitude ensemble speedups come from.

``kernel="auto"`` (the default) uses the native kernel when a C compiler is
available and falls back to numpy silently otherwise.  Set the environment
variable ``REPRO_NATIVE=0`` to force the numpy kernel everywhere.

Example
-------
Ball counts are conserved per replica and every metric is a length-``R``
vector:

>>> ensemble = BatchedRepeatedBallsIntoBins(8, 4, seed=0, kernel="numpy")
>>> result = ensemble.run(16)
>>> result.final_loads.sum(axis=1).tolist()
[8, 8, 8, 8]
>>> result.max_load_seen.shape
(4,)
"""

from __future__ import annotations

import ctypes
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Union, runtime_checkable

import numpy as np

from .config import DEFAULT_BETA, LoadConfiguration, legitimacy_threshold
from .native import get_kernel, native_status, resolve_n_threads
from ..errors import ConfigurationError, SimulationError
from ..metrics.base import BatchedObserverList
from ..metrics.fused import FusedSegmentStats, fused_needs_moments, supports_fused
from ..metrics.payload import MetricPayload, concatenate_payload_maps
from ..metrics.window import run_window
from ..rng import as_seed_sequence
from ..types import SeedLike

__all__ = [
    "BatchedProcess",
    "BatchedLoadProcess",
    "BatchedRepeatedBallsIntoBins",
    "EnsembleResult",
    "make_ensemble_initial",
]

#: Initial-configuration families understood by :func:`make_ensemble_initial`.
INITIAL_KINDS = (
    "balanced",
    "all_in_one",
    "random_uniform",
    "pyramid",
    "legitimate_extreme",
)


def make_ensemble_initial(
    kind: str,
    n_bins: int,
    n_replicas: int,
    n_balls: Optional[int] = None,
    seed: SeedLike = None,
) -> np.ndarray:
    """Build an ``(R, n)`` initial load matrix from a named start family.

    Deterministic kinds (``balanced``, ``all_in_one``, ``pyramid``,
    ``legitimate_extreme``) replicate the corresponding
    :class:`LoadConfiguration` constructor across replicas;
    ``random_uniform`` throws each replica's balls independently with a
    single flat draw.

    >>> make_ensemble_initial("balanced", 4, 2).tolist()
    [[1, 1, 1, 1], [1, 1, 1, 1]]
    >>> make_ensemble_initial("all_in_one", 4, 2, n_balls=3).tolist()
    [[3, 0, 0, 0], [3, 0, 0, 0]]
    """
    if n_replicas < 1:
        raise ConfigurationError(f"n_replicas must be >= 1, got {n_replicas}")
    m = n_bins if n_balls is None else n_balls
    if kind == "random_uniform":
        if m < 0:
            raise ConfigurationError(f"n_balls must be >= 0, got {m}")
        rng = np.random.default_rng(as_seed_sequence(seed))
        row_base = np.arange(n_replicas, dtype=np.int64) * n_bins
        counts = np.full(n_replicas, m, dtype=np.int64)
        return one_choice_arrivals(
            rng, row_base, counts, n_replicas, n_bins
        ).astype(np.int64)
    makers = {
        "balanced": LoadConfiguration.balanced,
        "all_in_one": LoadConfiguration.all_in_one,
        "pyramid": LoadConfiguration.pyramid,
        "legitimate_extreme": LoadConfiguration.legitimate_extreme,
    }
    if kind not in makers:
        raise ConfigurationError(
            f"unknown initial kind {kind!r}; expected one of {INITIAL_KINDS}"
        )
    row = makers[kind](n_bins, n_balls=n_balls).as_array()
    return np.tile(row, (n_replicas, 1))


def one_choice_arrivals(
    rng: np.random.Generator,
    row_base: np.ndarray,
    counts: np.ndarray,
    n_replicas: int,
    n_bins: int,
) -> np.ndarray:
    """Scatter ``counts[r]`` uniform throws per replica into an ``(R, n)`` matrix.

    One flat draw covers all replicas: each replica's balls receive uniform
    destinations in ``[0, n)``, offset by ``r * n`` into the combined index
    space, and a single ``np.bincount`` counts the arrivals of the whole
    ensemble.  This is the one-choice update shared by the plain batched
    process and the ``d = 1`` degenerate case of batched Greedy[d]; with
    ``R == 1`` it consumes the generator exactly like the single-replica
    simulators.
    """
    destinations = rng.integers(0, n_bins, size=int(counts.sum()))
    destinations += np.repeat(row_base, counts)
    arrivals = np.bincount(destinations, minlength=n_replicas * n_bins)
    return arrivals.reshape(n_replicas, n_bins)


@dataclass
class EnsembleResult:
    """Vector-valued summary of one :meth:`BatchedLoadProcess.run`.

    Every metric is a length-``R`` vector indexed by replica; scalar
    aggregates are exposed as properties so experiment runners and the
    aggregation layer can consume either view.

    Attributes
    ----------
    rounds:
        Rounds executed *in this call* per replica (early-stopped replicas
        report fewer).
    final_loads:
        The ``(R, n)`` configuration after the call.
    max_load_seen:
        Per-replica window maximum ``max_t M(t)`` over the executed rounds.
    min_empty_bins_seen:
        Per-replica window minimum of the empty-bin count.
    first_legitimate_round:
        Per-replica global round index of the first legitimate configuration
        observed, or ``-1`` if none was seen.
    metrics:
        Observed metric payloads keyed by metric name (see
        :mod:`repro.metrics`), populated when observers were attached via
        the ensemble layer's ``metrics=`` selection; empty otherwise.
    """

    n_bins: int
    rounds: np.ndarray
    final_loads: np.ndarray
    max_load_seen: np.ndarray
    min_empty_bins_seen: np.ndarray
    first_legitimate_round: np.ndarray
    beta: float = field(default=DEFAULT_BETA)
    kernel: str = "numpy"
    metrics: Dict[str, MetricPayload] = field(default_factory=dict)

    @property
    def n_replicas(self) -> int:
        return int(self.final_loads.shape[0])

    @property
    def n_balls(self) -> np.ndarray:
        """Per-replica ball counts (conserved by the process)."""
        return self.final_loads.sum(axis=1)

    @property
    def final_max_load(self) -> np.ndarray:
        """Per-replica maximum load of the final configuration."""
        return self.final_loads.max(axis=1)

    @property
    def final_empty_bins(self) -> np.ndarray:
        """Per-replica empty-bin count of the final configuration."""
        return (self.final_loads == 0).sum(axis=1)

    @property
    def converged(self) -> np.ndarray:
        """Boolean mask of replicas that reached a legitimate configuration."""
        return self.first_legitimate_round >= 0

    @property
    def converged_fraction(self) -> float:
        return float(np.count_nonzero(self.converged) / self.n_replicas)

    def ended_legitimate(self, beta: Optional[float] = None) -> np.ndarray:
        """Per-replica legitimacy of the final configuration."""
        threshold = legitimacy_threshold(
            self.n_bins, self.beta if beta is None else beta
        )
        return self.final_max_load <= threshold

    def configuration(self, replica: int) -> LoadConfiguration:
        """Immutable snapshot of one replica's final configuration."""
        return LoadConfiguration(self.final_loads[replica])

    def to_records(self) -> List[Dict[str, float]]:
        """One flat dict per replica, shaped like a per-trial record."""
        return [
            {
                "window_max_load": int(self.max_load_seen[r]),
                "min_empty_bins": int(self.min_empty_bins_seen[r]),
                "first_legitimate_round": int(self.first_legitimate_round[r]),
                "rounds": int(self.rounds[r]),
                "final_max_load": int(self.final_max_load[r]),
            }
            for r in range(self.n_replicas)
        ]

    @staticmethod
    def concatenate(results: List["EnsembleResult"]) -> "EnsembleResult":
        """Stack shard results (e.g. from worker processes) along replicas."""
        if not results:
            raise ConfigurationError("cannot concatenate zero ensemble results")
        head = results[0]
        for other in results[1:]:
            if other.n_bins != head.n_bins or other.beta != head.beta:
                raise ConfigurationError(
                    "ensemble shards disagree on n_bins/beta; refusing to merge"
                )
        kernels = {r.kernel for r in results}
        return EnsembleResult(
            n_bins=head.n_bins,
            rounds=np.concatenate([r.rounds for r in results]),
            final_loads=np.vstack([r.final_loads for r in results]),
            max_load_seen=np.concatenate([r.max_load_seen for r in results]),
            min_empty_bins_seen=np.concatenate(
                [r.min_empty_bins_seen for r in results]
            ),
            first_legitimate_round=np.concatenate(
                [r.first_legitimate_round for r in results]
            ),
            beta=head.beta,
            kernel=kernels.pop() if len(kernels) == 1 else "mixed",
            metrics=concatenate_payload_maps([r.metrics for r in results]),
        )

    def describe(self) -> Dict[str, float]:
        """Scalar aggregates used in logs and quick sanity checks."""
        converged = self.first_legitimate_round[self.converged]
        return {
            "n_replicas": float(self.n_replicas),
            "mean_window_max_load": float(self.max_load_seen.mean()),
            "max_window_max_load": float(self.max_load_seen.max()),
            "mean_min_empty_fraction": float(
                self.min_empty_bins_seen.mean() / self.n_bins
            ),
            "converged_fraction": self.converged_fraction,
            "mean_convergence_round": (
                float(converged.mean()) if converged.size else float("nan")
            ),
        }


@runtime_checkable
class BatchedProcess(Protocol):
    """Structural protocol of a vectorized ``R``-replica load process.

    Anything exposing this surface — ``(R, n)`` loads, per-replica metric
    reducers, a ``step``/``run`` pair returning :class:`EnsembleResult` —
    can be driven by the ensemble engine in :mod:`repro.parallel.ensemble`.
    The batched fault injector in :mod:`repro.adversary.batched`
    additionally needs the conservation-checked state-replacement hooks of
    :class:`BatchedLoadProcess` (``inject_loads``, ``num_empty_bins``), so
    it requires that base class rather than this bare protocol.
    """

    @property
    def n_bins(self) -> int: ...

    @property
    def n_replicas(self) -> int: ...

    @property
    def loads(self) -> np.ndarray: ...

    @property
    def max_load(self) -> np.ndarray: ...

    @property
    def rounds_completed(self) -> np.ndarray: ...

    def step(self) -> np.ndarray: ...

    def run(
        self,
        rounds: int,
        beta: float = DEFAULT_BETA,
        stop_when_legitimate: bool = False,
        observers=None,
        observe_every: int = 1,
    ) -> EnsembleResult: ...


class BatchedLoadProcess:
    """Shared machinery for vectorized ensembles of load-level processes.

    Holds the ``(R, n)`` load matrix, per-replica round counters and
    activity masks, the window-metric ``run`` loop, and the
    ball-conservation invariant.  Subclasses define one round of dynamics by
    implementing :meth:`_advance`; :class:`BatchedRepeatedBallsIntoBins`
    additionally overrides :meth:`_run_window` to dispatch to the compiled
    kernel.

    Parameters
    ----------
    n_bins:
        Number of bins ``n`` (shared by every replica).
    n_replicas:
        Number of independent replicas ``R``.
    n_balls:
        Balls per replica; defaults to ``n_bins``.  Ignored when ``initial``
        is given (ball counts are inferred per replica).
    initial:
        ``None`` for the balanced start, a :class:`LoadConfiguration` or
        1-D array replicated across replicas, or a 2-D ``(R, n)`` array of
        per-replica starting configurations.
    seed:
        Seed-like value; an existing :class:`numpy.random.Generator` is
        used as-is, anything else is normalized through ``SeedSequence``.
    n_threads:
        Worker threads for native-kernel calls (replica-axis
        parallelism).  ``None`` defers to ``REPRO_NATIVE_THREADS`` and
        then the available CPU count (see
        :func:`repro.core.native.resolve_n_threads`).  Results are
        bit-identical for every value — replicas own disjoint state and
        RNG streams — so this is purely a performance knob.  Ignored by
        numpy-kernel subclasses.

    Notes
    -----
    Replicas that reach a legitimate configuration during a
    ``stop_when_legitimate`` run are *frozen*: later rounds skip them, their
    loads stay fixed, and their round counters stop advancing.
    """

    #: Kernel label reported in :class:`EnsembleResult` by the generic loop.
    kernel_name = "numpy"

    def __init__(
        self,
        n_bins: int,
        n_replicas: int,
        n_balls: Optional[int] = None,
        initial: Union[LoadConfiguration, np.ndarray, None] = None,
        seed: SeedLike = None,
        n_threads: Optional[int] = None,
    ) -> None:
        if n_bins < 1:
            raise ConfigurationError(f"n_bins must be >= 1, got {n_bins}")
        if n_replicas < 1:
            raise ConfigurationError(
                f"n_replicas must be >= 1, got {n_replicas}"
            )
        if n_threads is not None and int(n_threads) < 1:
            raise ConfigurationError(
                f"n_threads must be >= 1, got {n_threads}"
            )
        self._n_threads = None if n_threads is None else int(n_threads)
        self._n_bins = n_bins
        self._n_replicas = n_replicas
        self._loads = self._coerce_initial(initial, n_balls)
        self._n_balls = self._loads.sum(axis=1)
        self._rounds_done = np.zeros(n_replicas, dtype=np.int64)
        self._active = np.ones(n_replicas, dtype=bool)
        if isinstance(seed, np.random.Generator):
            self._rng = seed
            self._seed_seq: Optional[np.random.SeedSequence] = None
        else:
            self._seed_seq = as_seed_sequence(seed)
            self._rng = np.random.default_rng(self._seed_seq)
        self._row_base = np.arange(n_replicas, dtype=np.int64) * n_bins
        self._native_state: Optional[np.ndarray] = None

    def _coerce_initial(self, initial, n_balls: Optional[int]) -> np.ndarray:
        n, R = self._n_bins, self._n_replicas
        if initial is None:
            m = n if n_balls is None else n_balls
            if m < 0:
                raise ConfigurationError(f"n_balls must be >= 0, got {m}")
            return make_ensemble_initial("balanced", n, R, n_balls=m)
        if isinstance(initial, LoadConfiguration):
            arr = initial.as_array()
        else:
            arr = np.asarray(initial)
        if arr.ndim == 1:
            config = LoadConfiguration(arr)  # validates shape and values
            if config.n_bins != n:
                raise ConfigurationError(
                    f"initial configuration has {config.n_bins} bins, expected {n}"
                )
            if n_balls is not None and n_balls != config.n_balls:
                raise ConfigurationError(
                    f"n_balls={n_balls} contradicts initial configuration "
                    f"with {config.n_balls} balls"
                )
            return np.tile(config.as_array(), (R, 1))
        if arr.ndim == 2:
            if arr.shape != (R, n):
                raise ConfigurationError(
                    f"initial matrix has shape {arr.shape}, expected ({R}, {n})"
                )
            if not np.issubdtype(arr.dtype, np.integer):
                if not np.all(np.equal(np.mod(arr, 1), 0)):
                    raise ConfigurationError("initial loads must be integer-valued")
            if np.any(arr < 0):
                raise ConfigurationError("initial loads must be non-negative")
            return np.array(arr, dtype=np.int64, copy=True)
        raise ConfigurationError(
            f"initial must be 1-D or 2-D, got ndim={arr.ndim}"
        )

    # ------------------------------------------------------------------
    # State access (vector-valued metric reducers)
    # ------------------------------------------------------------------
    @property
    def n_bins(self) -> int:
        return self._n_bins

    @property
    def n_replicas(self) -> int:
        return self._n_replicas

    @property
    def n_balls(self) -> np.ndarray:
        """Per-replica ball counts (conserved)."""
        return self._n_balls.copy()

    @property
    def loads(self) -> np.ndarray:
        """Read-only ``(R, n)`` view of the current load matrix."""
        view = self._loads.view()
        view.setflags(write=False)
        return view

    @property
    def rounds_completed(self) -> np.ndarray:
        """Per-replica number of rounds simulated so far."""
        return self._rounds_done.copy()

    @property
    def round_index(self) -> int:
        """Rounds simulated by the most-advanced replica."""
        return int(self._rounds_done.max())

    @property
    def active(self) -> np.ndarray:
        """Boolean mask of replicas that are still being advanced."""
        return self._active.copy()

    @property
    def rng(self) -> np.random.Generator:
        """The process' generator — the stream between-segment edits draw from.

        The scenario interpreter applies its state edits with this stream,
        so an ``R == 1`` scenario run through the numpy kernel stays
        stream-equal to a hand-segmented single-replica run that applies
        the same edits with the simulator's own generator.
        """
        return self._rng

    @property
    def max_load(self) -> np.ndarray:
        """Per-replica maximum load of the current configurations."""
        return self._loads.max(axis=1)

    @property
    def num_empty_bins(self) -> np.ndarray:
        """Per-replica empty-bin counts of the current configurations."""
        return (self._loads == 0).sum(axis=1)

    def is_legitimate(self, beta: float = DEFAULT_BETA) -> np.ndarray:
        """Per-replica legitimacy predicate ``max load <= beta * log n``."""
        return self.max_load <= legitimacy_threshold(self._n_bins, beta)

    def configuration(self, replica: int) -> LoadConfiguration:
        """Immutable snapshot of one replica's current configuration."""
        return LoadConfiguration(self._loads[replica])

    # ------------------------------------------------------------------
    # Dynamics
    # ------------------------------------------------------------------
    def _advance(self) -> None:
        """Mutate ``self._loads`` by one round for every *active* replica."""
        raise NotImplementedError

    def step(self) -> np.ndarray:
        """Advance every active replica by one round and return the loads."""
        self._advance()
        self._rounds_done += self._active
        return self.loads

    def deactivate(self, mask: np.ndarray) -> None:
        """Freeze the replicas selected by a boolean mask."""
        self._active[np.asarray(mask, dtype=bool)] = False

    def run(
        self,
        rounds: int,
        beta: float = DEFAULT_BETA,
        stop_when_legitimate: bool = False,
        observers=None,
        observe_every: int = 1,
    ) -> EnsembleResult:
        """Simulate up to ``rounds`` rounds for every active replica.

        Parameters
        ----------
        rounds:
            Maximum number of rounds for this call.
        beta:
            Legitimacy constant for ``first_legitimate_round`` and the
            optional per-replica early stop.
        stop_when_legitimate:
            Freeze each replica as soon as it reaches a legitimate
            configuration (checked before the first round too, mirroring
            :meth:`RepeatedBallsIntoBins.run_until_legitimate`).
        observers:
            ``None``, a single batched observer/callable, or a sequence of
            them (see :mod:`repro.metrics`); each sees
            ``(round_index, loads)`` with the current ``(R, n)`` state.
        observe_every:
            Observation stride: observers fire every ``observe_every``
            executed rounds (and after the final executed round).  The
            native kernel runs in segments of this length between
            observation points, so its whole-window speedup survives at
            reasonable strides; the returned window metrics remain exact
            over every simulated round regardless of the stride.
        """
        if rounds < 0:
            raise ConfigurationError(f"rounds must be >= 0, got {rounds}")
        if observe_every < 1:
            raise ConfigurationError(
                f"observe_every must be >= 1, got {observe_every}"
            )
        obs = BatchedObserverList.coerce(observers)
        threshold = legitimacy_threshold(self._n_bins, beta)
        R = self._n_replicas
        first_legit = np.full(R, -1, dtype=np.int64)
        if stop_when_legitimate and self._active.any():
            hit = self._active & (self.max_load <= threshold)
            first_legit[hit] = self._rounds_done[hit]
            self._active[hit] = False

        start_rounds = self._rounds_done.copy()
        max_seen, min_empty, used = self._run_window(
            rounds, threshold, stop_when_legitimate, first_legit, obs, observe_every
        )

        executed = self._rounds_done - start_rounds
        idle = executed == 0
        if idle.any():
            # replicas that executed no round report their *observed*
            # current configuration, not zeros
            max_seen[idle] = self.max_load[idle]
            min_empty[idle] = self.num_empty_bins[idle]
        self._check_conservation()
        return EnsembleResult(
            n_bins=self._n_bins,
            rounds=executed,
            final_loads=self._loads.copy(),
            max_load_seen=max_seen,
            min_empty_bins_seen=min_empty,
            first_legitimate_round=first_legit,
            beta=beta,
            kernel=used,
        )

    def _run_window(
        self, rounds, threshold, stop_when_legitimate, first_legit, observers,
        observe_every,
    ):
        """Reference window loop; returns ``(max_seen, min_empty, kernel)``.

        Delegates to the shared implementation in
        :func:`repro.metrics.window.run_window`.
        """
        max_seen, min_empty, _, _ = run_window(
            self,
            rounds,
            threshold,
            stop_when_legitimate=stop_when_legitimate,
            first_legit=first_legit,
            observers=observers,
            observe_every=observe_every,
        )
        return max_seen, min_empty, self.kernel_name

    def _run_window_native(
        self, kernel, rounds, threshold, stop_when_legitimate, first_legit,
        observers, observe_every,
    ):
        """Drive a subclass's ``_run_native`` through the shared
        observed-segmentation loop.

        Unobserved runs collapse into a single kernel call.  Observed runs
        prefer *fused* observation: when every attached observer can
        ingest in-kernel partials (see :mod:`repro.metrics.fused`), the
        kernel records the per-observation-point reductions itself and
        the whole window is still one FFI call.  Otherwise the run
        advances ``observe_every`` rounds per FFI call and observers see
        the state between segments; every native kernel consumes its
        per-replica streams round by round, so segmented, fused, and
        whole-window runs follow the exact same trajectory.  Shared by
        the rbb and walk kernels so this logic exists exactly once.
        """
        if observers is None or observers.is_empty:
            max_seen, min_empty = self._run_native(
                kernel, rounds, threshold, stop_when_legitimate, first_legit
            )
            return max_seen, min_empty, "native"
        if self._fusable(observers, rounds, stop_when_legitimate):
            return self._run_native_fused(
                kernel, rounds, threshold, first_legit, observers,
                observe_every,
            )
        R, n = self._n_replicas, self._n_bins
        max_seen = np.zeros(R, dtype=np.int64)
        min_empty = np.full(R, n, dtype=np.int64)
        done = 0
        while done < rounds and self._active.any():
            segment = min(observe_every, rounds - done)
            seg_max, seg_min = self._run_native(
                kernel, segment, threshold, stop_when_legitimate, first_legit
            )
            np.maximum(max_seen, seg_max, out=max_seen)
            np.minimum(min_empty, seg_min, out=min_empty)
            done += segment
            observers.observe(int(self._rounds_done.max()), self.loads)
        return max_seen, min_empty, "native"

    def _fusable(self, observers, rounds, stop_when_legitimate) -> bool:
        """Whether this observed run can use in-kernel (fused) observation.

        Fusion requires every observer to accept
        :class:`~repro.metrics.fused.FusedSegmentStats`, and a window
        where the observation schedule is statically known: no
        ``stop_when_legitimate`` early exit, every replica active, and
        all replicas at the same global round (so all share one
        observation-round vector).  The environment variable
        ``REPRO_NATIVE_FUSED=0`` forces the segmented reference loop —
        the escape hatch the fused-equality tests exercise.
        """
        if stop_when_legitimate or rounds <= 0:
            return False
        if os.environ.get("REPRO_NATIVE_FUSED", "").strip() == "0":
            return False
        if not self._active.all():
            return False
        if not (self._rounds_done == self._rounds_done[0]).all():
            return False
        return all(supports_fused(observer) for observer in observers)

    def _run_native_fused(
        self, kernel, rounds, threshold, first_legit, observers, observe_every
    ):
        """One fused kernel call: simulate *and* observe in C.

        The kernel fills ``(n_obs, R)`` buffers with the post-round max
        load and empty-bin count at every stride boundary (plus the load
        sum / sum of squares when a moments consumer asks); the buffers
        are handed to each observer's ``ingest_fused``.  All recorded
        values are integers the Python trackers would have computed from
        the matrices themselves, so the resulting tracker state is
        bit-identical to the segmented loop's.
        """
        R, n = self._n_replicas, self._n_bins
        n_obs = -(-rounds // observe_every)  # ceil division
        need_moments = any(fused_needs_moments(o) for o in observers)
        obs_max = np.zeros((n_obs, R), dtype=np.int32)
        obs_empty = np.zeros((n_obs, R), dtype=np.int32)
        obs_sum = np.zeros((n_obs, R), dtype=np.int64) if need_moments else None
        obs_sumsq = (
            np.zeros((n_obs, R), dtype=np.int64) if need_moments else None
        )
        start = int(self._rounds_done[0])
        max_seen, min_empty = self._run_native(
            kernel, rounds, threshold, False, first_legit,
            obs=(observe_every, obs_max, obs_empty, obs_sum, obs_sumsq),
        )
        # observation k happens after round (k+1) * observe_every, capped
        # at the window end — the same schedule the segmented loop drives
        obs_rounds = start + np.minimum(
            np.arange(1, n_obs + 1, dtype=np.int64) * observe_every, rounds
        )
        stats = FusedSegmentStats(
            rounds=obs_rounds,
            max_load=obs_max.astype(np.int64),
            empty_bins=obs_empty.astype(np.int64),
            n_bins=n,
            load_sum=obs_sum,
            load_sumsq=obs_sumsq,
        )
        for observer in observers:
            observer.ingest_fused(stats)
        return max_seen, min_empty, "native"

    def _run_native(
        self, kernel, rounds, threshold, stop_when_legitimate, first_legit,
        obs=None,
    ):
        """One native-kernel call advancing up to ``rounds`` rounds
        (kernel-owning subclasses implement this).  ``obs`` is ``None``
        or a ``(observe_every, obs_max, obs_empty, obs_sum, obs_sumsq)``
        tuple of fused-observation output buffers (the moment buffers may
        be ``None``)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Conveniences
    # ------------------------------------------------------------------
    def run_until_legitimate(
        self, max_rounds: int, beta: float = DEFAULT_BETA
    ) -> np.ndarray:
        """Run with per-replica early stop; returns the convergence rounds.

        The result is a length-``R`` vector: the global round index of each
        replica's first legitimate configuration, or ``-1`` where the budget
        of ``max_rounds`` elapsed first.
        """
        return self.run(
            max_rounds, beta=beta, stop_when_legitimate=True
        ).first_legitimate_round

    def inject_loads(self, loads: np.ndarray) -> None:
        """Replace the current ``(R, n)`` loads with a ball-conserving matrix.

        This is the hook the Section 4.1 fault model uses: an adversary may
        reassign balls arbitrarily *between* rounds, but it may not create
        or destroy them, so the per-replica totals must match the current
        ones exactly.  Round counters and activity masks are untouched.
        """
        arr = np.asarray(loads)
        if arr.shape != (self._n_replicas, self._n_bins):
            raise ConfigurationError(
                f"injected loads have shape {arr.shape}, expected "
                f"({self._n_replicas}, {self._n_bins})"
            )
        if not np.issubdtype(arr.dtype, np.integer):
            if not np.all(np.equal(np.mod(arr, 1), 0)):
                raise ConfigurationError("injected loads must be integer-valued")
            arr = arr.astype(np.int64)
        if np.any(arr < 0):
            raise ConfigurationError("injected loads must be non-negative")
        totals = arr.sum(axis=1)
        if not np.array_equal(totals, self._n_balls):
            bad = int(np.flatnonzero(totals != self._n_balls)[0])
            raise ConfigurationError(
                f"injected loads do not conserve balls in replica {bad}: "
                f"expected {int(self._n_balls[bad])}, got {int(totals[bad])}"
            )
        self._loads[...] = np.asarray(arr, dtype=np.int64)

    def replace_loads(self, loads: np.ndarray) -> None:
        """Replace the ``(R, n)`` loads *without* requiring ball conservation.

        The scenario hook for events that legitimately change the ball
        count (arrival bursts, drains): the per-replica totals are
        re-baselined so subsequent conservation checks track the new
        counts.  Round counters and activity masks are untouched — use
        :meth:`inject_loads` for conserving edits (it enforces the
        Section 4.1 constraint).
        """
        arr = np.asarray(loads)
        if arr.shape != (self._n_replicas, self._n_bins):
            raise ConfigurationError(
                f"replacement loads have shape {arr.shape}, expected "
                f"({self._n_replicas}, {self._n_bins})"
            )
        if not np.issubdtype(arr.dtype, np.integer):
            if not np.all(np.equal(np.mod(arr, 1), 0)):
                raise ConfigurationError(
                    "replacement loads must be integer-valued"
                )
            arr = arr.astype(np.int64)
        if np.any(arr < 0):
            raise ConfigurationError("replacement loads must be non-negative")
        self._loads[...] = np.asarray(arr, dtype=np.int64)
        self._n_balls = self._loads.sum(axis=1)

    def advance_clock(self, rounds: int) -> None:
        """Add ``rounds`` to every replica's global round counter.

        Used when a scenario rebuilds the process mid-run (topology
        rewiring): the replacement starts at round zero, and shifting its
        clock back onto the run's global clock keeps observation rounds
        and ``first_legitimate_round`` translation-free.
        """
        if rounds < 0:
            raise ConfigurationError(f"rounds must be >= 0, got {rounds}")
        self._rounds_done += int(rounds)

    def reset(
        self, initial: Union[LoadConfiguration, np.ndarray, None] = None
    ) -> None:
        """Reset loads (balanced by default), round counters, and activity.

        Random state is *not* reset: the generator (and any native
        per-replica streams) continue where they left off, mirroring
        :meth:`RepeatedBallsIntoBins.reset`.
        """
        if initial is None:
            m = int(self._n_balls[0])
            if not (self._n_balls == m).all():
                raise ConfigurationError(
                    "reset() without an explicit initial requires equal "
                    "per-replica ball counts"
                )
            self._loads = make_ensemble_initial(
                "balanced", self._n_bins, self._n_replicas, n_balls=m
            )
        else:
            self._loads = self._coerce_initial(initial, None)
        self._n_balls = self._loads.sum(axis=1)
        self._rounds_done[:] = 0
        self._active[:] = True

    def _native_states(self) -> np.ndarray:
        """Per-replica xoshiro256++ states, seeded once per instance.

        Shared by every native kernel (`rbb_kernel.c`, `walk_kernel.c`):
        each replica's 4-word state comes from its own spawned
        ``SeedSequence`` child, so a replica's native trajectory depends
        only on its seed words, not on the batch size.
        """
        if self._native_state is None:
            R = self._n_replicas
            if self._seed_seq is not None:
                children = self._seed_seq.spawn(R)
                state = np.stack(
                    [c.generate_state(4, dtype=np.uint64) for c in children]
                )
            else:  # seeded from a caller-provided Generator
                state = self._rng.integers(
                    0, np.iinfo(np.uint64).max, size=(R, 4), dtype=np.uint64,
                    endpoint=True,
                )
            zero_rows = ~state.any(axis=1)  # all-zero is invalid for xoshiro
            state[zero_rows, 0] = 0x9E3779B97F4A7C15
            self._native_state = np.ascontiguousarray(state)
        return self._native_state

    def _check_conservation(self) -> None:
        totals = self._loads.sum(axis=1)
        if not np.array_equal(totals, self._n_balls):
            bad = int(np.flatnonzero(totals != self._n_balls)[0])
            raise SimulationError(
                f"ball count not conserved in replica {bad}: expected "
                f"{int(self._n_balls[bad])}, found {int(totals[bad])}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(n_bins={self._n_bins}, "
            f"n_replicas={self._n_replicas}, rounds<= {self.round_index})"
        )


class BatchedRepeatedBallsIntoBins(BatchedLoadProcess):
    """Vectorized ensemble of ``R`` independent repeated balls-into-bins runs.

    Parameters
    ----------
    n_bins, n_replicas, n_balls, initial:
        As for :class:`BatchedLoadProcess`.
    seed:
        Seed-like value; with ``R == 1`` and the numpy kernel the trajectory
        matches :class:`~repro.core.process.RepeatedBallsIntoBins` under the
        same seed, step for step.
    kernel:
        ``"numpy"`` (reference), ``"native"`` (compiled; raises when no C
        compiler is available), or ``"auto"`` (native when possible).
    n_threads:
        Worker threads for native-kernel calls; see
        :class:`BatchedLoadProcess`.  Never changes results.
    """

    def __init__(
        self,
        n_bins: int,
        n_replicas: int,
        n_balls: Optional[int] = None,
        initial: Union[LoadConfiguration, np.ndarray, None] = None,
        seed: SeedLike = None,
        kernel: str = "auto",
        n_threads: Optional[int] = None,
    ) -> None:
        if kernel not in ("auto", "numpy", "native"):
            raise ConfigurationError(
                f"kernel must be 'auto', 'numpy' or 'native', got {kernel!r}"
            )
        if kernel == "native" and get_kernel() is None:
            raise ConfigurationError(
                f"native kernel requested but unavailable ({native_status()})"
            )
        super().__init__(
            n_bins, n_replicas, n_balls=n_balls, initial=initial, seed=seed,
            n_threads=n_threads,
        )
        self._kernel = kernel

    # ------------------------------------------------------------------
    # Dynamics — numpy reference kernel
    # ------------------------------------------------------------------
    def _advance(self) -> None:
        """One round for all active replicas (numpy kernel).

        One flat draw covers all replicas: each replica's departing balls
        receive uniform destinations in ``[0, n)``, offset by ``r * n`` into
        the combined index space, and a single ``np.bincount`` scatters the
        arrivals of the whole ensemble.  With ``R == 1`` the generator is
        consumed exactly like :meth:`RepeatedBallsIntoBins.step`.
        """
        loads = self._loads
        active = self._active
        nonempty = loads > 0
        if not active.all():
            nonempty &= active[:, None]
        counts = np.count_nonzero(nonempty, axis=1)
        if counts.any():
            loads -= nonempty
            loads += one_choice_arrivals(
                self._rng, self._row_base, counts, self._n_replicas, self._n_bins
            )

    def _run_window(
        self, rounds, threshold, stop_when_legitimate, first_legit, observers,
        observe_every,
    ):
        kernel = get_kernel() if self._kernel in ("auto", "native") else None
        if kernel is not None and not self._native_supported():
            if self._kernel == "native":
                raise ConfigurationError(
                    "native kernel requested but the state does not fit its "
                    "int32 load representation (n_bins and per-replica ball "
                    "counts must stay below 2**31)"
                )
            kernel = None
        if kernel is None:
            return super()._run_window(
                rounds, threshold, stop_when_legitimate, first_legit, observers,
                observe_every,
            )
        return self._run_window_native(
            kernel, rounds, threshold, stop_when_legitimate, first_legit,
            observers, observe_every,
        )

    # ------------------------------------------------------------------
    # Dynamics — native kernel
    # ------------------------------------------------------------------
    def _native_supported(self) -> bool:
        return bool(
            self._n_bins < 2**31
            and (self._n_balls < 2**31 - 1).all()
        )

    def _run_native(
        self, kernel, rounds, threshold, stop_when_legitimate, first_legit,
        obs=None,
    ):
        R = self._n_replicas
        loads32 = np.ascontiguousarray(self._loads, dtype=np.int32)
        states = self._native_states()
        max_seen = np.zeros(R, dtype=np.int32)
        min_empty = np.full(R, self._n_bins, dtype=np.int32)
        active8 = np.ascontiguousarray(self._active, dtype=np.uint8)
        rounds_done = np.ascontiguousarray(self._rounds_done)
        first64 = np.ascontiguousarray(first_legit)
        n_threads = resolve_n_threads(self._n_threads, R, kernel="rbb")
        if obs is None:
            observe_every, n_obs = 1, 0
            obs_max = obs_empty = obs_sum = obs_sumsq = None
        else:
            observe_every, obs_max, obs_empty, obs_sum, obs_sumsq = obs
            n_obs = int(obs_max.shape[0])

        def ptr(arr, ctype):
            if arr is None:
                return None  # NULL: kernel skips the optional output
            return arr.ctypes.data_as(ctypes.POINTER(ctype))

        kernel(
            ptr(loads32, ctypes.c_int32),
            ctypes.c_int64(R),
            ctypes.c_int64(self._n_bins),
            ctypes.c_int64(rounds),
            ptr(states, ctypes.c_uint64),
            ctypes.c_double(threshold),
            ctypes.c_int(1 if stop_when_legitimate else 0),
            ptr(max_seen, ctypes.c_int32),
            ptr(min_empty, ctypes.c_int32),
            ptr(first64, ctypes.c_int64),
            ptr(rounds_done, ctypes.c_int64),
            ptr(active8, ctypes.c_uint8),
            ctypes.c_int32(n_threads),
            ctypes.c_int64(observe_every),
            ctypes.c_int64(n_obs),
            ptr(obs_max, ctypes.c_int32),
            ptr(obs_empty, ctypes.c_int32),
            ptr(obs_sum, ctypes.c_int64),
            ptr(obs_sumsq, ctypes.c_int64),
        )
        self._loads[...] = loads32
        self._rounds_done[...] = rounds_done
        self._active[...] = active8.astype(bool)
        first_legit[...] = first64
        return max_seen.astype(np.int64), min_empty.astype(np.int64)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchedRepeatedBallsIntoBins(n_bins={self._n_bins}, "
            f"n_replicas={self._n_replicas}, kernel={self._kernel!r}, "
            f"rounds<= {self.round_index})"
        )
