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
    fault injection via :meth:`~BatchedLoadProcess.inject_loads`, and the
    one native-kernel call path.  Subclasses implement one method
    (:meth:`~BatchedLoadProcess._advance`) to define their numpy round
    dynamics; ``repro.baselines.d_choices`` uses this to batch the
    Greedy[d] allocator.  A subclass with a compiled kernel names it in
    ``native_kernel``.
:class:`BatchedRepeatedBallsIntoBins`
    The paper's process.  A round advances **all** replicas with a single
    flat random draw plus one ``np.bincount`` over the combined index space
    (each replica's destinations are offset by ``r * n``), instead of ``R``
    separate Python-level simulations.

Two kernels drive the repeated balls-into-bins update:

``numpy`` (reference)
    Pure-numpy.  At ``R == 1`` it advances the one row
    (:func:`one_choice_round`) with the same draws, and the window loop
    runs on Python ints; the single-replica
    :class:`~repro.core.process.RepeatedBallsIntoBins` is this process at
    ``R == 1`` on this kernel (see :class:`~repro.core.process.ReplicaView`).
``native`` (fast)
    A small C kernel (see ``rbb_kernel.c``) compiled on demand by
    :mod:`repro.core.native`; each replica owns an independent xoshiro256++
    stream seeded from the same root seed.  Trajectories differ from the
    numpy kernel (different generator) but follow the same distribution;
    whole ``run()`` calls collapse into a single FFI call, which is where
    the order-of-magnitude ensemble speedups come from.

``kernel="auto"`` (the default) uses the native kernel when a C compiler is
available and falls back to numpy otherwise (``EnsembleResult.kernel``
says which ran, each window's :class:`WindowPlan` why).  Set the
environment variable ``REPRO_NATIVE=0`` to force the numpy kernel
everywhere.

The state is one C-contiguous int32 ``(R, n)`` array that the process owns
for its whole life: the numpy kernels update it in place, and the native
kernels receive it as is and write it in place, so no call copies it.  A
state that int32 cannot hold (``n >= 2**31``, or a replica with
``2**31 - 1`` or more balls) is refused with a
:class:`~repro.errors.ConfigurationError` whatever the kernel — at
construction, at :meth:`~BatchedLoadProcess.reset` and at
:meth:`~BatchedLoadProcess.replace_loads` (see :func:`check_state_fits`).
Results leave the process as int64 (``EnsembleResult.final_loads``).

A ``random_uniform`` start from :func:`make_ensemble_initial` is an
int32 ``(R, n)`` block too.  Its balls are thrown in C
(``repro_uniform_start`` in ``_kernel_common.h``) from the numpy
``Generator``'s own bit generator, one by one as
``Generator.integers(0, n)`` draws them, so the block equals the numpy
reference :func:`one_choice_arrivals`; without a kernel library
(``REPRO_NATIVE=0``, no compiler) that reference draws it.

Every native kernel — this module's ``rbb``, the graph walks' ``walks`` and
Greedy[d]'s ``greedy_d`` — runs through :class:`BatchedLoadProcess`, with
one call whose arguments are built by C parameter name
(:func:`repro.core.native.kernel_args`).  One planner,
:meth:`~BatchedLoadProcess.plan_window`, decides each window's path: one
fused native call, native calls segmented at each observation point, or
the numpy reference.  Its :class:`WindowPlan` names every
:class:`Fallback` that keeps a window from one fused call.  Callers that
run a window in segments (the fault injector, the scenario interpreter)
advance through :meth:`~BatchedLoadProcess.advance_window`, which returns
only the window vectors and the plan, and build one result at the end.
The rbb kernel also applies the concentrate adversary's pile faults
itself (:class:`PileFaults`), so a faulty window can be one call.

Example
-------
Each replica keeps its own ball count (rbb, a closed process, keeps the
start's) and every metric is a length-``R`` vector:

>>> ensemble = BatchedRepeatedBallsIntoBins(8, 4, seed=0, kernel="numpy")
>>> result = ensemble.run(16)
>>> result.final_loads.sum(axis=1).tolist()
[8, 8, 8, 8]
>>> result.max_load_seen.shape
(4,)
"""

from __future__ import annotations

import ctypes
import enum
import os
from dataclasses import dataclass, field
from typing import (
    Dict, Iterable, List, NamedTuple, Optional, Protocol, Tuple, Union,
    runtime_checkable,
)

import numpy as np

from .config import DEFAULT_BETA, LoadConfiguration, legitimacy_threshold
from .native import (
    get_kernel, kernel_args, native_status, resolve_n_threads, uniform_start,
)
from ..errors import ConfigurationError, SimulationError
from ..metrics.base import BatchedObserverList
from ..metrics.fused import (
    FusedSegmentStats,
    fused_histogram_cap,
    fused_needs_moments,
    supports_fused,
)
from ..metrics.payload import MetricPayload
from ..metrics.window import run_window
from ..rng import as_seed_sequence
from ..types import SeedLike

__all__ = [
    "BatchedProcess",
    "BatchedLoadProcess",
    "BatchedRepeatedBallsIntoBins",
    "EnsembleResult",
    "Fallback",
    "PileFaults",
    "WindowPlan",
    "WindowStats",
    "check_pile_bins",
    "check_state_fits",
    "make_ensemble_initial",
]

#: The fused-observation arguments of an unobserved kernel call: no
#: observation points, every output buffer NULL.
_UNOBSERVED: Dict[str, object] = {
    "observe_every": 1,
    "n_obs": 0,
    "obs_max": None,
    "obs_empty": None,
    "obs_sum": None,
    "obs_sumsq": None,
    "hist_k": 0,
    "obs_hist": None,
    "obs_overflow": None,
}

#: The fault arguments of an rbb kernel call without faults.
_NO_FAULTS: Dict[str, object] = {
    "n_faults": 0,
    "fault_rounds": None,
    "fault_bins": None,
    "fault_legit": None,
}


#: The largest threshold a kernel is handed.  The kernels cast the
#: threshold to int32, which is undefined above this value; no int32 load
#: exceeds it, so clamping leaves every legitimacy comparison unchanged.
_THRESHOLD_CAP = float(2**31 - 1)

#: Per-replica ball counts must stay below this, and so must every load.
_BALL_LIMIT = 2**31 - 1


def check_state_fits(n_bins: int, n_balls) -> None:
    """Refuse a state the int32 ``(R, n)`` loads cannot hold.

    ``n_balls`` is one per-replica ball count or a vector of them.  The
    state holds ``n_bins < 2**31`` bins and fewer than ``2**31 - 1`` balls
    per replica; anything larger raises a :class:`ConfigurationError`,
    whatever the kernel.  This is the one place the limit lives: the
    batched processes and ``EnsembleSpec`` both call it.

    >>> check_state_fits(1024, 1024)
    >>> check_state_fits(4, 2**31)  # doctest: +ELLIPSIS
    Traceback (most recent call last):
    ...
    repro.errors.ConfigurationError: the state does not fit its int32 loads: ...
    """
    most = int(np.asarray(n_balls).max())
    if n_bins >= 2**31 or most >= _BALL_LIMIT:
        raise ConfigurationError(
            "the state does not fit its int32 loads: n_bins must stay below "
            "2**31 and per-replica ball counts below 2**31 - 1 (got "
            f"n_bins={n_bins}, up to {most} balls)"
        )


def check_pile_bins(bins, shape: Tuple[int, ...], n_bins: int) -> np.ndarray:
    """``bins`` as an integer array of ``shape`` with values in ``[0, n_bins)``.

    The check every pile target passes, whether the rbb kernel strikes the
    fault (:class:`PileFaults`) or ``ConcentrateAdversary.reassign_batch``
    builds its matrix; anything else raises a :class:`ConfigurationError`.

    >>> check_pile_bins([0, 3], (2,), 4).tolist()
    [0, 3]
    >>> check_pile_bins([0, -1], (2,), 4)  # doctest: +ELLIPSIS
    Traceback (most recent call last):
    ...
    repro.errors.ConfigurationError: pile bins must lie in [0, 4), ...
    """
    bins = np.asarray(bins)
    if bins.shape != shape:
        raise ConfigurationError(
            f"pile bins have shape {bins.shape}, expected {shape}"
        )
    if not bins.size:
        return bins
    if not np.issubdtype(bins.dtype, np.integer):
        raise ConfigurationError(f"pile bins must be integers, got {bins.dtype}")
    if bins.min() < 0 or bins.max() >= n_bins:
        raise ConfigurationError(
            f"pile bins must lie in [0, {n_bins}), got values in "
            f"[{bins.min()}, {bins.max()}]"
        )
    return bins


def _histogram_caps(observers) -> set:
    """The distinct bucket caps of the observers' fused histogram blocks."""
    return {fused_histogram_cap(o) for o in observers} - {None}


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
    :class:`LoadConfiguration` constructor across replicas.
    ``random_uniform`` throws each replica's balls independently from one
    ``default_rng(seed)`` stream, replica after replica; the block is
    int32, thrown in C straight from that stream
    (:func:`repro.core.native.uniform_start`), and equals
    :func:`one_choice_arrivals` on the same generator, which draws it when
    no kernel library loads.  A start int32 cannot hold (see
    :func:`check_state_fits`) is refused before anything is drawn.

    >>> make_ensemble_initial("balanced", 4, 2).tolist()
    [[1, 1, 1, 1], [1, 1, 1, 1]]
    >>> make_ensemble_initial("all_in_one", 4, 2, n_balls=3).tolist()
    [[3, 0, 0, 0], [3, 0, 0, 0]]
    """
    if n_replicas < 1:
        raise ConfigurationError(f"n_replicas must be >= 1, got {n_replicas}")
    if n_bins < 1:
        raise ConfigurationError(f"n_bins must be >= 1, got {n_bins}")
    m = n_bins if n_balls is None else n_balls
    if kind == "random_uniform":
        if m < 0:
            raise ConfigurationError(f"n_balls must be >= 0, got {m}")
        check_state_fits(n_bins, m)
        rng = np.random.default_rng(as_seed_sequence(seed))
        loads = np.empty((n_replicas, n_bins), dtype=np.int32)
        throw = uniform_start()
        if throw is None:
            row_base = np.arange(n_replicas, dtype=np.int64) * n_bins
            counts = np.full(n_replicas, m, dtype=np.int64)
            loads[...] = one_choice_arrivals(
                rng, row_base, counts, n_replicas, n_bins
            )
            return loads
        bitgen = rng.bit_generator
        out = loads.ctypes.data_as(ctypes.POINTER(ctypes.c_int32))
        with bitgen.lock:
            throw(bitgen.ctypes.bit_generator, out, n_replicas, n_bins, m)
        return loads
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


def _observation_rounds(
    rounds: int, observe_every: int, breaks=()
) -> np.ndarray:
    """The rounds (1-based, from the window's start) a fused call observes.

    Each stretch between ``breaks`` (0-based rounds at which pile faults
    strike) is observed after every ``observe_every`` of its rounds and
    after its last, as the segmented loop observes one call per stretch.

    >>> _observation_rounds(10, 4).tolist()
    [4, 8, 10]
    >>> _observation_rounds(10, 4, breaks=[0, 3]).tolist()
    [3, 7, 10]
    """
    edges = [0, *(int(b) for b in breaks if b > 0), rounds]
    points = []
    for start, end in zip(edges[:-1], edges[1:]):
        length = end - start
        k = np.arange(1, -(-length // observe_every) + 1, dtype=np.int64)
        points.append(start + np.minimum(k * observe_every, length))
    return np.concatenate(points)


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
    ``R == 1`` it consumes the generator exactly like
    :func:`one_choice_round`, which those processes run at ``R == 1``.
    """
    destinations = rng.integers(0, n_bins, size=int(counts.sum()))
    destinations += np.repeat(row_base, counts)
    arrivals = np.bincount(destinations, minlength=n_replicas * n_bins)
    return arrivals.reshape(n_replicas, n_bins)


#: The one-row round's int32 1 (a Python 1 is converted on every call).
_ONE = np.int32(1)


def one_choice_round(row: np.ndarray, rng: np.random.Generator) -> None:
    """One repeated balls-into-bins round of a single load row, in place.

    One ball leaves every non-empty bin and lands in a uniform bin: the
    ``R == 1`` form of the batched round, with the same draws as
    :func:`one_choice_arrivals` for one replica.
    """
    departing = np.minimum(row, _ONE)  # int32, so no casting loop below
    departures = int(np.count_nonzero(departing))
    if departures:
        row -= departing
        n = row.size
        arrivals = np.bincount(rng.integers(0, n, size=departures), minlength=n)
        # an int32 addend adds without numpy's buffered casting loop
        row += arrivals.astype(np.int32)


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
        """Per-replica ball counts of the final configuration."""
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


class Fallback(enum.Enum):
    """Why a window is not one fused native call.

    :meth:`BatchedLoadProcess.plan_window` names every reason it finds on
    the :class:`WindowPlan`.  The first four send the window to the numpy
    kernel, the next six to the segmented native loop.  The last three
    keep pile faults out of the kernel (a window with piles is refused,
    a fault run takes its segmented loop); the last two are the fault
    wrapper's own.
    """

    NUMPY_REQUESTED = "kernel='numpy'"
    NO_NATIVE_KERNEL = "no native kernel"
    KERNEL_NOT_LOADED = "kernel not loaded"
    ARGUMENTS_TOO_LARGE = "data too large for the kernel's int32 arguments"
    EMPTY_WINDOW = "empty window"
    EARLY_STOP = "early stop"
    FUSION_OFF = "REPRO_NATIVE_FUSED=0"
    FROZEN_REPLICA = "a frozen replica"
    MIXED_HISTOGRAM_CAPS = "histograms with different caps"
    UNFUSABLE_OBSERVER = "an observer that cannot be fused"
    NO_KERNEL_PILES = "a kernel that strikes no piles"
    NOT_CONCENTRATE = "an adversary without ConcentrateAdversary's own reassign_batch"
    SHARED_GENERATOR = "a Generator shared with the process"


@dataclass(frozen=True)
class WindowPlan:
    """How one window runs, as :meth:`BatchedLoadProcess.plan_window` decided.

    ``kernel`` is ``"native"`` or ``"numpy"``.  A plan without
    ``fallbacks`` is one fused native call; a native plan with any runs
    the segmented loop, and a numpy plan names the one reason it is not
    native.
    """

    kernel: str
    fallbacks: Tuple[Fallback, ...] = ()

    @property
    def fused(self) -> bool:
        """Whether the window is one fused native call."""
        return not self.fallbacks


class WindowStats(NamedTuple):
    """The window vectors of one :meth:`BatchedLoadProcess.advance_window`.

    The fields are those of :class:`EnsembleResult` without the loads: a
    caller that runs its window in segments folds them into its own
    window and builds one result at the end.  ``plan`` is the
    :class:`WindowPlan` the window ran on.  A window with
    :class:`PileFaults` also returns ``fault_legit``, the ``(F, R)`` global
    round at which each replica is first legitimate after each fault and
    before the next, or ``-1``; ``max_load_seen`` then includes the piles.
    """

    rounds: np.ndarray
    max_load_seen: np.ndarray
    min_empty_bins_seen: np.ndarray
    first_legitimate_round: np.ndarray
    plan: WindowPlan
    fault_legit: Optional[np.ndarray] = None


class PileFaults(NamedTuple):
    """Pile faults for one window, applied inside the native rbb kernel.

    Fault ``f`` strikes before round ``rounds[f]`` (0-based, counted from
    the window's start; strictly increasing) and moves every ball of
    replica ``r`` into bin ``bins[f, r]``: the concentrate adversary's
    fault, with its targets drawn beforehand.
    """

    rounds: np.ndarray  # (F,) integers in [0, window rounds)
    bins: np.ndarray  # (F, R) integers in [0, n)


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

    Holds the int32 ``(R, n)`` load matrix, per-replica round counters and
    activity masks, the window-metric ``run`` loop, the
    ball-conservation invariant, and the one native-kernel call path.
    Subclasses define one round of dynamics by implementing
    :meth:`_advance` (the numpy reference kernel); a subclass with a
    compiled kernel names it in :attr:`native_kernel` and may add
    kernel-specific arguments through :meth:`_native_extra_args` and
    size guards through :meth:`_native_supported`.

    Parameters
    ----------
    n_bins:
        Number of bins ``n`` (shared by every replica).
    n_replicas:
        Number of independent replicas ``R``.
    n_balls:
        Balls per replica; defaults to ``n_bins``.  With a 1-D ``initial``
        it must equal its ball count; a 2-D one gives each replica's.
    initial:
        ``None`` for the balanced start, a :class:`LoadConfiguration` or
        1-D array replicated across replicas, or a 2-D ``(R, n)`` array of
        per-replica starting configurations.
    seed:
        Seed-like value; an existing :class:`numpy.random.Generator` is
        used as-is, anything else is normalized through ``SeedSequence``.
    kernel:
        ``"numpy"`` (reference), ``"native"`` (compiled; raises when the
        subclass has no native kernel or it cannot load), or ``"auto"``
        (native when possible, numpy otherwise).
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

    A start that int32 cannot hold raises a :class:`ConfigurationError`
    (see :func:`check_state_fits`), for every ``kernel=``.
    """

    #: Name of the compiled kernel in :mod:`repro.core.native` that can
    #: advance this process, or ``None`` for a numpy-only process.
    native_kernel: Optional[str] = None

    #: Whether that kernel applies :class:`PileFaults` itself.
    native_piles = False

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
        if kernel == "native":
            if self.native_kernel is None:
                raise ConfigurationError(
                    f"{type(self).__name__} has no native kernel"
                )
            if get_kernel(self.native_kernel) is None:
                raise ConfigurationError(
                    f"native {self.native_kernel!r} kernel requested but "
                    f"unavailable ({native_status(self.native_kernel)})"
                )
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
        start, self._n_balls = self._checked_start(initial, n_balls)
        # the state: C-contiguous int32, written in place by every kernel
        self._loads = np.empty((n_replicas, n_bins), dtype=np.int32)
        self._loads[...] = start
        self._rounds_done = np.zeros(n_replicas, dtype=np.int64)
        self._active = np.ones(n_replicas, dtype=bool)
        if isinstance(seed, np.random.Generator):
            self._rng = seed
            self._seed_seq: Optional[np.random.SeedSequence] = None
        else:
            self._seed_seq = as_seed_sequence(seed)
            self._rng = np.random.default_rng(self._seed_seq)
        self._row_base = np.arange(n_replicas, dtype=np.int64) * n_bins
        self._kernel = kernel
        self._native_state: Optional[np.ndarray] = None

    def _checked_start(
        self, initial, n_balls: Optional[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """A validated start and its per-replica ball counts.

        The start is one row (broadcast over the replicas when it is
        written into the state) or an ``(R, n)`` matrix; nothing is
        written here, so a refused start leaves the state as it was.
        """
        n, R = self._n_bins, self._n_replicas
        if initial is None:
            m = n if n_balls is None else n_balls
            if m < 0:
                raise ConfigurationError(f"n_balls must be >= 0, got {m}")
            check_state_fits(n, m)
            row = LoadConfiguration.balanced(n, n_balls=m).loads
            return row, np.full(R, m, dtype=np.int64)
        arr = initial.loads if isinstance(initial, LoadConfiguration) else (
            np.asarray(initial)
        )
        if arr.ndim == 1 and arr.shape != (n,):
            raise ConfigurationError(
                f"initial configuration has {arr.shape[0]} bins, expected {n}"
            )
        if arr.ndim not in (1, 2):
            raise ConfigurationError(
                f"initial must be 1-D or 2-D, got ndim={arr.ndim}"
            )
        if arr.ndim == 2:
            return arr, self._checked_loads(arr, "initial")
        # a row is checked once, as replica 0's start
        total = int(self._checked_loads(arr[np.newaxis], "initial", rows=1)[0])
        if n_balls is not None and n_balls != total:
            raise ConfigurationError(
                f"n_balls={n_balls} contradicts initial configuration "
                f"with {total} balls"
            )
        return arr, np.full(R, total, dtype=np.int64)

    def _checked_loads(
        self, arr: np.ndarray, what: str, rows: Optional[int] = None
    ) -> np.ndarray:
        """Check ``arr`` as an ``(R, n)`` state; returns its ball counts.

        ``rows`` replaces ``R`` in the expected shape.  Refuses a wrong
        shape, non-integer values, a negative load (naming its replica),
        and a load or a total int32 cannot hold.
        """
        shape = (self._n_replicas if rows is None else rows, self._n_bins)
        if arr.shape != shape:
            raise ConfigurationError(
                f"{what} loads have shape {arr.shape}, expected {shape}"
            )
        if arr.dtype.kind not in "iu":
            if not np.all(np.equal(np.mod(arr, 1), 0)):
                raise ConfigurationError(f"{what} loads must be integer-valued")
        if arr.min() < 0:
            bad = int(np.flatnonzero((arr < 0).any(axis=1))[0])
            raise ConfigurationError(
                f"{what} loads must be non-negative; replica {bad} has a "
                "negative load"
            )
        # a load at the limit is refused before a total it may wrap is read
        most = arr.max()
        totals = arr.sum(axis=1, dtype=np.int64) if most < _BALL_LIMIT else most
        check_state_fits(self._n_bins, totals)
        return totals

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
        """Per-replica ball counts: the start's, or what an open process's rounds left."""
        return self._n_balls.copy()

    @property
    def loads(self) -> np.ndarray:
        """Read-only int32 ``(R, n)`` view of the current load matrix."""
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
        return self._loads.max(axis=1).astype(np.int64)

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
    def _advance(self) -> Optional[np.ndarray]:
        """Mutate ``self._loads`` by one round for every *active* replica;
        may return a mask of replicas to freeze once the round counts."""
        raise NotImplementedError

    def step(self) -> np.ndarray:
        """Advance every active replica by one round and return the loads."""
        finished = self._advance()
        self._rounds_done += self._active
        if finished is not None:
            self._active &= ~finished
        return self.loads

    def deactivate(self, mask: np.ndarray) -> None:
        """Freeze the replicas selected by a boolean mask."""
        self._active[np.asarray(mask, dtype=bool)] = False

    def _unfreeze_single(self) -> None:
        """Unfreeze the replica of a one-replica process after an early stop.

        A :class:`~repro.core.process.ReplicaView`'s stop holds for one call
        only.  Wider processes have no way back: their unfrozen replicas
        would run on unequal clocks, which a fused window does not expect.
        """
        self._active[0] = True

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
            window runs on the path :meth:`plan_window` picks, one fused
            native call or native calls segmented at the observation
            points among them; the returned window metrics remain exact
            over every simulated round regardless of the stride.
        """
        window = self.advance_window(
            rounds, beta, stop_when_legitimate, observers, observe_every
        )
        return EnsembleResult(
            n_bins=self._n_bins,
            rounds=window.rounds,
            final_loads=self._loads.astype(np.int64),
            max_load_seen=window.max_load_seen,
            min_empty_bins_seen=window.min_empty_bins_seen,
            first_legitimate_round=window.first_legitimate_round,
            beta=beta,
            kernel=window.plan.kernel,
        )

    def advance_window(
        self,
        rounds: int,
        beta: float = DEFAULT_BETA,
        stop_when_legitimate: bool = False,
        observers=None,
        observe_every: int = 1,
        piles: Optional[PileFaults] = None,
    ) -> WindowStats:
        """:meth:`run` without the result: advance, return the window vectors.

        :class:`~repro.adversary.batched.BatchedFaultyProcess` and
        :func:`~repro.scenarios.engine.run_scenario_batched` step their
        segments through this call and copy the loads into one result at
        the end.
        The parameters are :meth:`run`'s; ball conservation is checked
        after every call.  The window runs on the path :meth:`plan_window`
        plans for it, and the returned stats carry that plan.  ``piles``
        strikes pile faults inside the one kernel call, each restarting the
        observation stride as a fresh call would; it needs a fused plan,
        and a refused window or fault leaves the state unchanged.
        """
        if rounds < 0:
            raise ConfigurationError(f"rounds must be >= 0, got {rounds}")
        if observe_every < 1:
            raise ConfigurationError(
                f"observe_every must be >= 1, got {observe_every}"
            )
        obs = BatchedObserverList.coerce(observers)
        plan = self.plan_window(
            rounds, obs, stop_when_legitimate, None if piles is None else ()
        )
        faults = None
        if piles is not None:
            if not plan.fused:
                raise ConfigurationError(
                    "pile faults need a native kernel that applies them and "
                    "a window it runs in one fused call; this window has "
                    + ", ".join(reason.value for reason in plan.fallbacks)
                )
            faults = self._fault_args(piles, rounds)
        threshold = legitimacy_threshold(self._n_bins, beta)
        R = self._n_replicas
        first_legit = np.full(R, -1, dtype=np.int64)
        if stop_when_legitimate and self._active.any():
            hit = self._active & (self.max_load <= threshold)
            first_legit[hit] = self._rounds_done[hit]
            self._active[hit] = False

        start_rounds = self._rounds_done.copy()
        max_seen, min_empty = self._run_window(
            plan, rounds, threshold, stop_when_legitimate, first_legit, obs,
            observe_every, faults,
        )

        executed = self._rounds_done - start_rounds
        idle = executed == 0
        if idle.any():
            # replicas that executed no round report their *observed*
            # current configuration, not zeros
            max_seen[idle] = self.max_load[idle]
            min_empty[idle] = self.num_empty_bins[idle]
        self._check_conservation()
        return WindowStats(
            executed, max_seen, min_empty, first_legit, plan,
            None if faults is None else faults["fault_legit"],
        )

    def plan_window(
        self,
        rounds: int,
        observers=None,
        stop_when_legitimate: bool = False,
        piles: Optional[Iterable[Fallback]] = None,
    ) -> WindowPlan:
        """The path a window of ``rounds`` rounds takes, and why.

        This is the one place a window's path is decided:
        :meth:`advance_window`, the fault wrapper and the scenario
        interpreter act on the :class:`WindowPlan` it returns.  The
        kernel is native when ``kernel=`` allows it, :attr:`native_kernel`
        names a kernel that loads, and that kernel's arguments can hold
        this process's data (:meth:`_native_supported`: the walks' edge
        count; under ``kernel="native"`` a process they cannot hold is
        refused).  Otherwise the window runs the numpy reference loop,
        and the plan names the first reason.

        A native window is one fused call, which simulates and observes
        in C, unless a further :class:`Fallback` applies: the window is
        empty or stops early (its observation rounds are not known up
        front), ``REPRO_NATIVE_FUSED=0`` asks for the segmented reference
        loop, a replica is frozen, the observers' histograms have
        different bucket caps (the kernel fills one set), or an observer
        cannot ingest :class:`~repro.metrics.fused.FusedSegmentStats`.
        The segmented loop then calls the kernel once per observation
        stride, or once in all when nothing observes.

        ``piles`` is ``None`` for a window without pile faults.  A window
        that strikes :class:`PileFaults` also needs a kernel that applies
        them (:attr:`native_piles`), and ``piles`` holds the caller's own
        reasons against striking them in the kernel (the fault wrapper
        hands in its adversary's).
        """
        if self._kernel == "numpy":
            reason = Fallback.NUMPY_REQUESTED
        elif self.native_kernel is None:
            reason = Fallback.NO_NATIVE_KERNEL
        elif get_kernel(self.native_kernel) is None:
            reason = Fallback.KERNEL_NOT_LOADED
        elif not self._native_supported():
            if self._kernel == "native":
                raise ConfigurationError(
                    f"native {self.native_kernel!r} kernel requested but "
                    f"this {type(self).__name__} does not fit its int32 "
                    "arguments"
                )
            reason = Fallback.ARGUMENTS_TOO_LARGE
        else:
            obs = BatchedObserverList.coerce(observers)
            fusion = os.environ.get("REPRO_NATIVE_FUSED", "").strip()
            checks = {
                Fallback.EMPTY_WINDOW: rounds <= 0,
                Fallback.EARLY_STOP: stop_when_legitimate,
                Fallback.FUSION_OFF: fusion == "0",
                Fallback.FROZEN_REPLICA: not self._active.all(),
                Fallback.MIXED_HISTOGRAM_CAPS: len(_histogram_caps(obs)) > 1,
                Fallback.UNFUSABLE_OBSERVER: not all(map(supports_fused, obs)),
                Fallback.NO_KERNEL_PILES: piles is not None and not self.native_piles,
            }
            found = (*(piles or ()), *(r for r, hit in checks.items() if hit))
            return WindowPlan("native", found)
        return WindowPlan("numpy", (reason,))

    def window_kernel(self) -> str:
        """The kernel a window of this process runs (see :meth:`plan_window`)."""
        return self.plan_window(0).kernel

    def takes_piles(self, rounds: int, observers=None) -> bool:
        """Whether :meth:`advance_window` strikes :class:`PileFaults` inside
        its one kernel call over ``rounds`` rounds watched by ``observers``."""
        return self.plan_window(rounds, observers, piles=()).fused

    def _fault_args(self, piles: PileFaults, rounds: int) -> Dict[str, object]:
        """The kernel's fault arguments for ``piles``, checked.

        The rounds must be strictly increasing integers in ``[0, rounds)``
        and the bins an integer ``(F, R)`` matrix in ``[0, n)``
        (:func:`check_pile_bins`); anything else raises a :class:`ConfigurationError` before a round runs.  A
        pile holds its row's own balls, so the faults conserve them by
        construction.
        """
        R, n = self._n_replicas, self._n_bins
        at = np.asarray(piles.rounds)
        if at.ndim != 1 or (at.size and not np.issubdtype(at.dtype, np.integer)):
            raise ConfigurationError(
                "pile fault rounds must be a vector of integers"
            )
        F = len(at)
        if F and (at[0] < 0 or at[-1] >= rounds or (np.diff(at) <= 0).any()):
            raise ConfigurationError(
                "pile fault rounds must increase strictly within "
                f"[0, {rounds}), got {at.tolist()}"
            )
        bins = check_pile_bins(piles.bins, (F, R), n)
        return {
            "n_faults": F,
            "fault_rounds": np.ascontiguousarray(at, dtype=np.int64),
            "fault_bins": np.ascontiguousarray(bins, dtype=np.int32),
            "fault_legit": np.full((F, R), -1, dtype=np.int64),
        }

    def _run_window(
        self, plan, rounds, threshold, stop_when_legitimate, first_legit,
        observers, observe_every, faults=None,
    ):
        """Advance the window on ``plan``'s path; returns ``(max_seen, min_empty)``.

        A numpy plan runs the reference loop in
        :func:`repro.metrics.window.run_window` (at ``R == 1``, its rule on
        Python ints in :meth:`_run_one_replica`), a fused plan one
        :meth:`_run_native_fused` call (``faults``, the kernel's fault
        arguments, checked, ride on it), and any other native plan the
        segmented loop.  Each advances the process's own int32 state in
        place.
        """
        if plan.kernel != "native":
            if self._n_replicas == 1:
                return self._run_one_replica(
                    rounds, threshold, stop_when_legitimate, first_legit,
                    observers, observe_every,
                )
            max_seen, min_empty, _, _ = run_window(
                self,
                rounds,
                threshold,
                stop_when_legitimate=stop_when_legitimate,
                first_legit=first_legit,
                observers=observers,
                observe_every=observe_every,
            )
            return max_seen, min_empty
        kernel = get_kernel(self.native_kernel)
        if plan.fused:
            return self._run_native_fused(
                kernel, rounds, threshold, first_legit, observers,
                observe_every, faults,
            )
        # Segmented loop: observed runs advance ``observe_every`` rounds per
        # kernel call and observers see the state between segments; an
        # unobserved run is one segment.  Every native kernel consumes its
        # per-replica streams round by round, so segmented, fused and
        # whole-window runs follow the exact same trajectory.
        observed = not observers.is_empty
        stride = observe_every if observed else rounds
        R, n = self._n_replicas, self._n_bins
        max_seen = np.zeros(R, dtype=np.int64)
        min_empty = np.full(R, n, dtype=np.int64)
        done = 0
        while done < rounds and self._active.any():
            segment = min(stride, rounds - done)
            seg_max, seg_min = self._run_native(
                kernel, segment, threshold, stop_when_legitimate, first_legit
            )
            np.maximum(max_seen, seg_max, out=max_seen)
            np.minimum(min_empty, seg_min, out=min_empty)
            done += segment
            if observed:
                observers.observe(int(self._rounds_done.max()), self.loads)
        return max_seen, min_empty

    def _run_one_replica(
        self, rounds, threshold, stop_when_legitimate, first_legit, observers,
        observe_every,
    ):
        """:func:`~repro.metrics.window.run_window`'s rule for ``R == 1``, on
        Python ints; returns ``(max_seen, min_empty)``.

        Each round is one :meth:`_advance` of the state's one row, whose max
        load and empty-bin count are read as ints, with no per-round vector
        of masks or axis reductions.  The round counter is written before
        each round, so :meth:`_advance` reads the completed rounds as in
        :meth:`step`, and an early stop (or a finished mask from
        :meth:`_advance`) freezes the replica as the vector loop does.
        """
        n = self._n_bins
        row = self._loads[0]
        counter = self._rounds_done
        done = int(counter[0])
        max_seen, min_empty, first = 0, n, int(first_legit[0])
        if not self._active[0]:
            rounds = 0
        advance = self._advance
        observed = not observers.is_empty
        try:
            for executed in range(1, rounds + 1):
                counter[0] = done
                finished = advance()
                done += 1
                current = int(np.maximum.reduce(row))  # row.max() without its wrapper
                empty = n - int(np.count_nonzero(row))
                if current > max_seen:
                    max_seen = current
                if empty < min_empty:
                    min_empty = empty
                stop = finished is not None and bool(finished[0])
                if first < 0 and current <= threshold:
                    first = done
                    stop = stop or stop_when_legitimate
                if observed and (
                    stop or executed % observe_every == 0 or executed == rounds
                ):
                    counter[0] = done
                    observers.observe(done, self.loads)
                if stop:
                    self._active[0] = False
                    break
        finally:
            counter[0] = done
        first_legit[0] = first
        return (
            np.array([max_seen], dtype=np.int64),
            np.array([min_empty], dtype=np.int64),
        )

    def _run_native_fused(
        self, kernel, rounds, threshold, first_legit, observers, observe_every,
        faults=None,
    ):
        """One fused kernel call: simulate *and* observe in C.

        The kernel fills ``(n_obs, R)`` buffers with the post-round max
        load and empty-bin count at every stride boundary, plus the load
        sum / sum of squares when a moments consumer asks, and adds every
        observed configuration to ``(R, K + 1)`` histogram counts and an
        overflow vector when a histogram consumer asks; the buffers are
        handed to each observer's ``ingest_fused``.  All recorded values
        are integers the Python trackers would have computed from the
        matrices themselves, so the resulting tracker state is
        bit-identical to the segmented loop's.  An unobserved window
        records nothing.  With ``faults`` (the kernel's fault arguments)
        the stride restarts at every fault.
        """
        if observers.is_empty:
            return self._run_native(
                kernel, rounds, threshold, False, first_legit, faults=faults
            )
        R, n = self._n_replicas, self._n_bins
        breaks = () if faults is None else faults["fault_rounds"]
        obs_rounds = _observation_rounds(rounds, observe_every, breaks)
        n_obs = len(obs_rounds)
        moments = any(fused_needs_moments(o) for o in observers)
        caps = _histogram_caps(observers)
        histogram = bool(caps)
        hist_k = caps.pop() if caps else 0

        def block(shape, dtype, wanted=True):
            return np.zeros(shape, dtype=dtype) if wanted else None

        obs = {
            "observe_every": observe_every,
            "n_obs": n_obs,
            "obs_max": block((n_obs, R), np.int32),
            "obs_empty": block((n_obs, R), np.int32),
            "obs_sum": block((n_obs, R), np.int64, moments),
            "obs_sumsq": block((n_obs, R), np.int64, moments),
            "hist_k": hist_k,
            "obs_hist": block((R, hist_k + 1), np.int64, histogram),
            "obs_overflow": block(R, np.int64, histogram),
        }
        start = int(self._rounds_done[0])
        max_seen, min_empty = self._run_native(
            kernel, rounds, threshold, False, first_legit, obs=obs,
            faults=faults,
        )
        stats = FusedSegmentStats(
            rounds=start + obs_rounds,
            max_load=obs["obs_max"].astype(np.int64),
            empty_bins=obs["obs_empty"].astype(np.int64),
            n_bins=n,
            load_sum=obs["obs_sum"],
            load_sumsq=obs["obs_sumsq"],
            hist_counts=obs["obs_hist"],
            hist_overflow=obs["obs_overflow"],
        )
        for observer in observers:
            observer.ingest_fused(stats)
        return max_seen, min_empty

    def _native_supported(self) -> bool:
        """Whether the kernel's arguments can hold this process's data.

        The int32 state always fits (it is refused at construction
        otherwise); subclasses with further kernel inputs override this.
        """
        return True

    def _native_extra_args(self, n_threads: int) -> Dict[str, object]:
        """Kernel arguments beyond the shared state, by C parameter name."""
        return {}

    def _run_native(
        self, kernel, rounds, threshold, stop_when_legitimate, first_legit,
        obs=None, faults=None,
    ):
        """One native-kernel call advancing up to ``rounds`` rounds.

        ``obs`` is ``None`` or the fused-observation arguments by C
        parameter name (``observe_every`` through ``obs_overflow``; an
        unrequested buffer is ``None``), and ``faults`` ``None`` or the
        fault arguments (``n_faults`` through ``fault_legit``).  The kernel
        writes the process's own buffers in place: the int32 loads, the
        round counters, the activity mask (its bool bytes viewed as uint8)
        and ``first_legit``.  Returns the window's ``(max_seen, min_empty)``.
        """
        R = self._n_replicas
        max_seen = np.zeros(R, dtype=np.int32)
        min_empty = np.full(R, self._n_bins, dtype=np.int32)
        n_threads = resolve_n_threads(
            self._n_threads, R, kernel=self.native_kernel
        )
        kernel(*kernel_args(self.native_kernel, {
            "loads": self._loads,
            "R": R,
            "n": self._n_bins,
            "rounds": rounds,
            "rng_state": self._native_states(),
            "threshold": min(threshold, _THRESHOLD_CAP),
            "stop_when_legitimate": stop_when_legitimate,
            "max_seen": max_seen,
            "min_empty_seen": min_empty,
            "first_legit": first_legit,
            "rounds_done": self._rounds_done,
            "active": self._active.view(np.uint8),
            "n_threads": n_threads,
            **(_UNOBSERVED if obs is None else obs),
            **self._native_extra_args(n_threads),
            **({} if faults is None else faults),
        }))
        return max_seen.astype(np.int64), min_empty.astype(np.int64)

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
        return self.advance_window(
            max_rounds, beta=beta, stop_when_legitimate=True
        ).first_legitimate_round

    def inject_loads(self, loads: np.ndarray) -> None:
        """Replace the current ``(R, n)`` loads with a ball-conserving matrix.

        This is the hook the Section 4.1 fault model uses: an adversary may
        reassign balls arbitrarily *between* rounds, but it may not create
        or destroy them, so the per-replica totals must match the current
        ones exactly.  It is the one check a fault passes: shape, integer
        values, no negative load, and per-replica conservation, each
        failure naming what broke it.  The matrix is then written into the
        state in place; a refused one leaves the state unchanged.  Round
        counters and activity masks are untouched.
        """
        arr = np.asarray(loads)
        totals = self._checked_loads(arr, "injected")
        if (totals != self._n_balls).any():
            bad = int(np.flatnonzero(totals != self._n_balls)[0])
            raise ConfigurationError(
                f"injected loads do not conserve balls in replica {bad}: "
                f"expected {int(self._n_balls[bad])}, got {int(totals[bad])}"
            )
        self._loads[...] = arr

    def replace_loads(self, loads: np.ndarray) -> None:
        """Replace the ``(R, n)`` loads *without* requiring ball conservation.

        The scenario hook for events that legitimately change the ball
        count (arrival bursts, drains): the per-replica totals are
        re-baselined so subsequent conservation checks track the new
        counts, and a total the int32 state cannot hold is refused.
        Round counters and activity masks are untouched — use
        :meth:`inject_loads` for conserving edits (it enforces the
        Section 4.1 constraint).
        """
        arr = np.asarray(loads)
        totals = self._checked_loads(arr, "replacement")
        self._loads[...] = arr
        self._n_balls = totals

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
        :meth:`RepeatedBallsIntoBins.reset`.  The new loads are written
        into the same int32 state, and refused like a constructor's start.
        """
        n_balls = None
        if initial is None:
            n_balls = int(self._n_balls[0])
            if not (self._n_balls == n_balls).all():
                raise ConfigurationError(
                    "reset() without an explicit initial requires equal "
                    "per-replica ball counts"
                )
        start, self._n_balls = self._checked_start(initial, n_balls)
        self._loads[...] = start
        self._rounds_done[:] = 0
        self._active[:] = True

    def _native_states(self) -> np.ndarray:
        """Per-replica xoshiro256++ states, seeded once per instance.

        Shared by every native kernel (`rbb_kernel.c`, `walk_kernel.c`,
        `greedy_kernel.c`): row ``r`` of ``trial_states(seed, R)`` is
        replica ``r``'s 4-word state, ``trial_seed(seed, r)``'s
        ``generate_state(4, uint64)`` computed for all replicas in one
        vectorized pass.  So a replica's native trajectory depends only on
        the seed and its index — not on the batch size, and not on whether
        the seed object was used before (``SeedSequence.spawn`` would
        advance it).
        """
        if self._native_state is None:
            R = self._n_replicas
            if self._seed_seq is not None:
                # function-level: repro.parallel imports this module
                from ..parallel.seeding import trial_states

                state = trial_states(self._seed_seq, R)
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
        totals = self._loads.sum(axis=1, dtype=np.int64)
        if (totals != self._n_balls).any():
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

    Parameters are those of :class:`BatchedLoadProcess`.  With ``R == 1``
    and the numpy kernel the trajectory matches
    :class:`~repro.core.process.RepeatedBallsIntoBins` under the same seed,
    step for step; the native kernel is ``rbb_kernel.c``.
    """

    native_kernel = "rbb"
    native_piles = True

    def _native_extra_args(self, n_threads: int) -> Dict[str, object]:
        """No faults unless :meth:`advance_window` was handed some."""
        return _NO_FAULTS

    # ------------------------------------------------------------------
    # Dynamics — numpy reference kernel
    # ------------------------------------------------------------------
    def _advance(self) -> None:
        """One round for all active replicas (numpy kernel).

        One flat draw covers all replicas: each replica's departing balls
        receive uniform destinations in ``[0, n)``, offset by ``r * n`` into
        the combined index space, and a single ``np.bincount`` scatters the
        arrivals of the whole ensemble.  At ``R == 1`` the round is
        :func:`one_choice_round` on the one row, with the same draws.
        """
        if self._n_replicas == 1:
            if self._active[0]:
                one_choice_round(self._loads[0], self._rng)
            return
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
