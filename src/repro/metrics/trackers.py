"""Replica-aware (batched) per-round metric trackers.

Each tracker implements the batched observer protocol
``observe(round_index, loads)`` with ``loads`` an ``(R, n)`` matrix — or a
plain length-``n`` vector, which is treated as ``R == 1``, so the same
tracker instance works on a single-replica simulator unchanged.

All trackers reduce as they observe: with series recording disabled the
max-load and empty-bins trackers keep ``O(R)`` state, the legitimacy and
bin-emptying trackers keep ``O(R)`` / ``O(R·n)`` state, and the histogram
keeps ``O(R·K)`` — never ``O(R·T)`` over a ``T``-round run.  A tracker
fed by a single-replica simulator produces the same series and summaries
as one fed by the batched numpy process at ``R == 1`` on the same seed
(covered by the stream-equality tests).

Trackers observe at whatever cadence the engine drives them (see
``observe_every`` on the batched ``run`` methods); window-style summaries
therefore cover the *observed* rounds.  The engines' own window metrics
(``max_load_seen`` etc. in :class:`~repro.core.batched.EnsembleResult`)
remain exact over every simulated round regardless of the stride.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .base import as_load_matrix, check_trace_budget, resolve_trace_budget
from .fused import FusedSegmentStats
from .payload import MetricPayload
from ..core.config import DEFAULT_BETA, legitimacy_threshold
from ..errors import ConfigurationError

__all__ = [
    "BatchedMaxLoadTracker",
    "BatchedEmptyBinsTracker",
    "BatchedLegitimacyTracker",
    "BatchedLoadMomentsTracker",
    "BatchedLoadHistogramTracker",
    "BatchedTraceRecorder",
    "BatchedBinEmptyingTracker",
]


class _BatchedTracker:
    """Shape binding and bookkeeping shared by the batched trackers.

    Dimensions bind on the first ``observe`` call — or eagerly through
    :meth:`bind`, which the ensemble engine uses so that payloads are
    well-shaped ``(R,)`` vectors even when a run executes zero rounds
    (e.g. every replica passes the ``stop_when_legitimate`` pre-check).
    Later observations must match the bound shape.

    Subclasses implement :meth:`_on_bind` (allocate per-replica state) and
    :meth:`_update` (fold one observation in).  The observed-round log
    (``rounds``) is kept only by trackers whose payload carries a time
    series (``record_rounds``); summary-only trackers stay ``O(R)`` no
    matter how many rounds they observe.
    """

    #: Payload name; subclasses override.
    metric_name = ""
    #: Whether this tracker can fold in-kernel partials via
    #: :meth:`ingest_fused` (see :mod:`repro.metrics.fused`).
    supports_fused_ingest = False
    #: Whether fused ingestion needs the load sum / sum-of-squares blocks.
    fused_needs_moments = False

    def __init__(self) -> None:
        self.n_replicas: Optional[int] = None
        self.n_bins: Optional[int] = None
        self.rounds_observed: int = 0
        self.rounds: List[int] = []
        #: Whether observation round indexes are logged (series trackers).
        self.record_rounds: bool = False

    def bind(self, n_replicas: int, n_bins: int) -> None:
        """Fix the ``(R, n)`` dimensions before any observation."""
        if n_replicas < 1 or n_bins < 1:
            raise ConfigurationError(
                f"cannot bind to shape ({n_replicas}, {n_bins})"
            )
        if self.n_replicas is None:
            self.n_replicas = int(n_replicas)
            self.n_bins = int(n_bins)
            self._on_bind()
        elif (self.n_replicas, self.n_bins) != (n_replicas, n_bins):
            raise ConfigurationError(
                f"{type(self).__name__} was bound to shape "
                f"({self.n_replicas}, {self.n_bins}) but got "
                f"({n_replicas}, {n_bins})"
            )

    def _on_bind(self) -> None:
        pass

    def _update(self, round_index: int, matrix: np.ndarray) -> None:
        raise NotImplementedError

    def observe(self, round_index: int, loads) -> None:
        matrix = as_load_matrix(loads)
        self.bind(int(matrix.shape[0]), int(matrix.shape[1]))
        self._update(int(round_index), matrix)
        if self.record_rounds:
            self.rounds.append(int(round_index))
        self.rounds_observed += 1

    def _bind_fused(self, stats: FusedSegmentStats) -> None:
        """Bind dimensions and log observed rounds for a fused segment."""
        self.bind(stats.n_replicas, stats.n_bins)
        if self.record_rounds:
            self.rounds.extend(int(t) for t in stats.rounds)
        self.rounds_observed += stats.n_observations

    def _rounds_array(self) -> np.ndarray:
        return np.asarray(self.rounds, dtype=np.int64)

    def payload(self) -> MetricPayload:
        raise NotImplementedError


class _ScalarSeriesTracker(_BatchedTracker):
    """Shared machinery for scalar-per-replica series trackers.

    Subclasses define one per-round reduction (``_reduce``), the window
    accumulator it folds into (``_initial_window`` / ``_accumulate``), and
    the payload key names; this base handles series recording, binding,
    and payload assembly once for all of them.
    """

    #: Payload key of the recorded series; subclasses override.
    series_key = ""
    #: Payload key of the window summary; subclasses override.
    window_key = ""
    #: :class:`FusedSegmentStats` field this tracker's per-round reduction
    #: corresponds to; fused-capable subclasses override.
    fused_field = ""

    def __init__(self, record_series: bool = True) -> None:
        super().__init__()
        self.record_series = record_series
        self.record_rounds = record_series
        self._series: List[np.ndarray] = []
        self._window: Optional[np.ndarray] = None
        self._last: Optional[np.ndarray] = None

    def _initial_window(self) -> np.ndarray:
        raise NotImplementedError

    def _reduce(self, matrix: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _accumulate(self, window: np.ndarray, value: np.ndarray) -> None:
        raise NotImplementedError

    def _on_bind(self) -> None:
        self._window = self._initial_window()

    def _update(self, round_index: int, matrix: np.ndarray) -> None:
        value = self._reduce(matrix)
        if self.record_series:
            self._series.append(value)
        self._accumulate(self._window, value)
        self._last = value

    def ingest_fused(self, stats: FusedSegmentStats) -> None:
        """Fold a kernel-computed segment of per-round reductions.

        The kernel records the same integer reduction :meth:`_reduce`
        would compute from the matrix, so the resulting state is
        bit-identical to having observed every point through
        :meth:`observe`.
        """
        self._bind_fused(stats)
        block = getattr(stats, self.fused_field)
        for k in range(stats.n_observations):
            value = block[k].astype(np.int64)
            if self.record_series:
                self._series.append(value)
            self._accumulate(self._window, value)
            self._last = value

    @property
    def series(self) -> List[np.ndarray]:
        """Per-observation ``(R,)`` vectors (empty when not recording)."""
        return self._series

    @property
    def final(self) -> Optional[np.ndarray]:
        """The reduction at the last observation (``None`` before any)."""
        return self._last

    def as_array(self) -> np.ndarray:
        """The recorded series as a ``(T, R)`` matrix."""
        if not self._series:
            R = self.n_replicas or 0
            return np.zeros((0, R), dtype=np.int64)
        return np.stack(self._series)

    def payload(self) -> MetricPayload:
        if self.n_replicas is None:
            window = np.zeros(0, dtype=np.int64)
            final = window
        else:
            window = self._window.copy()
            final = (
                self._last
                if self._last is not None
                else np.zeros(self.n_replicas, dtype=np.int64)
            ).copy()
        return MetricPayload(
            name=self.metric_name,
            rounds=self._rounds_array(),
            series={self.series_key: self.as_array()} if self.record_series else {},
            summaries={self.window_key: window, "final": final},
        )


class BatchedMaxLoadTracker(_ScalarSeriesTracker):
    """Per-replica ``M(t)`` series plus the running window maximum.

    >>> tracker = BatchedMaxLoadTracker()
    >>> tracker.observe(1, np.array([[2, 0], [1, 1]]))
    >>> tracker.observe(2, np.array([[1, 1], [0, 2]]))
    >>> tracker.window_max.tolist()
    [2, 2]
    >>> tracker.as_array().tolist()
    [[2, 1], [1, 2]]
    """

    metric_name = "max_load"
    series_key = "max_load"
    window_key = "window_max"
    fused_field = "max_load"
    supports_fused_ingest = True

    def _initial_window(self) -> np.ndarray:
        return np.zeros(self.n_replicas, dtype=np.int64)

    def _reduce(self, matrix: np.ndarray) -> np.ndarray:
        return matrix.max(axis=1).astype(np.int64)

    def _accumulate(self, window: np.ndarray, value: np.ndarray) -> None:
        np.maximum(window, value, out=window)

    @property
    def window_max(self) -> Optional[np.ndarray]:
        """Per-replica running maximum over the observed rounds."""
        return self._window


class BatchedEmptyBinsTracker(_ScalarSeriesTracker):
    """Per-replica empty-bin counts and the running window minimum."""

    metric_name = "empty_bins"
    series_key = "empty_bins"
    window_key = "window_min"
    fused_field = "empty_bins"
    supports_fused_ingest = True

    def _initial_window(self) -> np.ndarray:
        return np.full(self.n_replicas, self.n_bins, dtype=np.int64)

    def _reduce(self, matrix: np.ndarray) -> np.ndarray:
        return (matrix == 0).sum(axis=1).astype(np.int64)

    def _accumulate(self, window: np.ndarray, value: np.ndarray) -> None:
        np.minimum(window, value, out=window)

    @property
    def window_min(self) -> Optional[np.ndarray]:
        """Per-replica running minimum over the observed rounds."""
        return self._window

    @property
    def min_fraction(self) -> Optional[np.ndarray]:
        """Smallest per-replica empty-bin fraction seen so far."""
        if self.rounds_observed == 0 or not self.n_bins:
            return None
        return self._window / self.n_bins

    def always_at_least(self, threshold_fraction: float = 0.25) -> np.ndarray:
        """Per-replica Lemma 2 event: every observed round had at least
        ``threshold_fraction`` of the bins empty."""
        frac = self.min_fraction
        if frac is None:
            return np.zeros(self.n_replicas or 0, dtype=bool)
        return frac >= threshold_fraction


class BatchedLegitimacyTracker(_BatchedTracker):
    """Per-replica legitimacy hitting/holding times (Theorem 1), streaming.

    State is three ``(R,)`` vectors regardless of run length: the first
    observed legitimate round, the first violation after that hit, and the
    total violation count (all with ``-1`` sentinels where applicable).

    Hitting times are measured at observation granularity: with
    ``observe_every > 1`` a hit between observation points is attributed
    to the next observed round, and a transient legitimacy window shorter
    than the stride can be missed.  For exact hitting times use
    ``observe_every=1`` or the engine's own
    ``EnsembleResult.first_legitimate_round``, which is exact at any
    stride.
    """

    metric_name = "legitimacy"
    supports_fused_ingest = True

    def __init__(self, beta: float = DEFAULT_BETA) -> None:
        super().__init__()
        self.beta = beta
        self.first_legitimate_round: Optional[np.ndarray] = None
        self.first_violation_after_hit: Optional[np.ndarray] = None
        self.violations: Optional[np.ndarray] = None
        self._threshold: Optional[float] = None

    def _on_bind(self) -> None:
        R = self.n_replicas
        self.first_legitimate_round = np.full(R, -1, dtype=np.int64)
        self.first_violation_after_hit = np.full(R, -1, dtype=np.int64)
        self.violations = np.zeros(R, dtype=np.int64)
        self._threshold = legitimacy_threshold(self.n_bins, self.beta)

    def _fold_legit(self, round_index: int, legit: np.ndarray) -> None:
        """Fold one observation's per-replica legitimacy flags."""
        newly = legit & (self.first_legitimate_round < 0)
        self.first_legitimate_round[newly] = round_index
        bad = ~legit
        self.violations += bad
        relapsed = (
            bad
            & (self.first_legitimate_round >= 0)
            & (self.first_violation_after_hit < 0)
        )
        self.first_violation_after_hit[relapsed] = round_index

    def _update(self, round_index: int, matrix: np.ndarray) -> None:
        self._fold_legit(round_index, matrix.max(axis=1) <= self._threshold)

    def ingest_fused(self, stats: FusedSegmentStats) -> None:
        """Replay kernel-computed max loads through the legitimacy fold.

        The kernel's per-observation max load is the exact integer the
        matrix reduction would produce, and the threshold comparison is
        the same, so fused state is bit-identical to observed state.
        """
        self._bind_fused(stats)
        for k in range(stats.n_observations):
            legit = stats.max_load[k] <= self._threshold
            self._fold_legit(int(stats.rounds[k]), legit)

    @property
    def converged(self) -> np.ndarray:
        if self.first_legitimate_round is None:
            return np.zeros(self.n_replicas or 0, dtype=bool)
        return self.first_legitimate_round >= 0

    @property
    def stable_after_convergence(self) -> np.ndarray:
        """Replicas that reached legitimacy and never left it afterwards."""
        if self.first_legitimate_round is None:
            return np.zeros(self.n_replicas or 0, dtype=bool)
        return self.converged & (self.first_violation_after_hit < 0)

    def payload(self) -> MetricPayload:
        R = self.n_replicas or 0
        if self.first_legitimate_round is None:
            first = np.full(R, -1, dtype=np.int64)
            violation = np.full(R, -1, dtype=np.int64)
            count = np.zeros(R, dtype=np.int64)
        else:
            first = self.first_legitimate_round
            violation = self.first_violation_after_hit
            count = self.violations
        return MetricPayload(
            name=self.metric_name,
            rounds=self._rounds_array(),
            summaries={
                "first_legitimate_round": first.copy(),
                "first_violation_after_hit": violation.copy(),
                "violations": count.copy(),
                "stable_after_convergence": self.stable_after_convergence.astype(
                    np.int64
                ),
            },
        )


class BatchedLoadMomentsTracker(_BatchedTracker):
    """Streaming per-replica moments of the observed load distribution.

    Accumulates the count of observed (round, bin) values plus the exact
    integer load sum and sum of squares, from which the per-replica mean
    and (population) variance over all observed configurations follow.

    Loads are integers, so integer accumulators make the streaming
    update *exact* — there is nothing for Welford's recurrence to
    stabilize, and a kernel-side partial (:meth:`ingest_fused`) merges
    into state bit-identical to Python-side observation.  Only the final
    mean/variance division happens in floating point.
    """

    metric_name = "moments"
    supports_fused_ingest = True
    fused_needs_moments = True

    def __init__(self) -> None:
        super().__init__()
        self.load_sum: Optional[np.ndarray] = None
        self.load_sumsq: Optional[np.ndarray] = None

    def _on_bind(self) -> None:
        R = self.n_replicas
        self.load_sum = np.zeros(R, dtype=np.int64)
        self.load_sumsq = np.zeros(R, dtype=np.int64)

    def _update(self, round_index: int, matrix: np.ndarray) -> None:
        m = matrix.astype(np.int64, copy=False)
        self.load_sum += m.sum(axis=1)
        self.load_sumsq += (m * m).sum(axis=1)

    def ingest_fused(self, stats: FusedSegmentStats) -> None:
        """Merge kernel-computed load sums and sums of squares."""
        if stats.load_sum is None or stats.load_sumsq is None:
            raise ConfigurationError(
                "moments tracker needs fused load_sum/load_sumsq blocks"
            )
        self._bind_fused(stats)
        self.load_sum += stats.load_sum.sum(axis=0)
        self.load_sumsq += stats.load_sumsq.sum(axis=0)

    @property
    def count(self) -> int:
        """Observed (round, bin) values per replica."""
        return self.rounds_observed * (self.n_bins or 0)

    @property
    def mean(self) -> Optional[np.ndarray]:
        """Per-replica mean load over all observed configurations."""
        if self.load_sum is None or self.count == 0:
            return None
        return self.load_sum / self.count

    @property
    def variance(self) -> Optional[np.ndarray]:
        """Per-replica population variance of the observed loads."""
        if self.load_sumsq is None or self.count == 0:
            return None
        mean = self.load_sum / self.count
        return self.load_sumsq / self.count - mean * mean

    def payload(self) -> MetricPayload:
        R = self.n_replicas or 0
        mean = self.mean
        var = self.variance
        if mean is None:
            mean = np.zeros(R, dtype=np.float64)
            var = np.zeros(R, dtype=np.float64)
        return MetricPayload(
            name=self.metric_name,
            rounds=self._rounds_array(),
            summaries={
                "mean_load": np.asarray(mean, dtype=np.float64),
                "load_variance": np.asarray(var, dtype=np.float64),
                "observations": np.full(R, self.count, dtype=np.int64),
            },
        )


class BatchedLoadHistogramTracker(_BatchedTracker):
    """Per-replica time-aggregated load distribution.

    ``counts[r, k]`` is the number of (observed round, bin) pairs of
    replica ``r`` with load exactly ``k``; loads above ``max_tracked_load``
    are clipped into the last bucket and counted in ``overflow``.
    """

    metric_name = "histogram"

    def __init__(self, max_tracked_load: int = 256) -> None:
        super().__init__()
        if max_tracked_load < 0:
            raise ConfigurationError(
                f"max_tracked_load must be >= 0, got {max_tracked_load}"
            )
        self.max_tracked_load = max_tracked_load
        self.counts: Optional[np.ndarray] = None
        self.overflow: Optional[np.ndarray] = None

    def _on_bind(self) -> None:
        R, K = self.n_replicas, self.max_tracked_load
        self.counts = np.zeros((R, K + 1), dtype=np.int64)
        self.overflow = np.zeros(R, dtype=np.int64)
        self._row_base = np.arange(R, dtype=np.int64)[:, None] * (K + 1)

    def _update(self, round_index: int, matrix: np.ndarray) -> None:
        K = self.max_tracked_load
        clipped = np.minimum(matrix, K)
        self.overflow += (matrix > K).sum(axis=1)
        flat = (clipped + self._row_base).ravel()
        self.counts += np.bincount(
            flat, minlength=self.n_replicas * (K + 1)
        ).reshape(self.n_replicas, K + 1)

    def distribution(self) -> np.ndarray:
        """Row-normalized ``(R, K + 1)`` occupancy distribution."""
        if self.counts is None:
            return np.zeros((self.n_replicas or 0, self.max_tracked_load + 1))
        totals = self.counts.sum(axis=1, keepdims=True)
        safe = np.where(totals == 0, 1, totals)
        return self.counts / safe

    def mean_load(self) -> np.ndarray:
        """Per-replica mean of the empirical occupancy distribution."""
        dist = self.distribution()
        return dist @ np.arange(dist.shape[1])

    def payload(self) -> MetricPayload:
        R = self.n_replicas or 0
        counts = (
            self.counts
            if self.counts is not None
            else np.zeros((R, self.max_tracked_load + 1), dtype=np.int64)
        )
        overflow = (
            self.overflow if self.overflow is not None else np.zeros(R, dtype=np.int64)
        )
        return MetricPayload(
            name=self.metric_name,
            rounds=self._rounds_array(),
            summaries={"mean_load": self.mean_load(), "overflow": overflow.copy()},
            arrays={"counts": counts.copy()},
        )


class BatchedTraceRecorder(_BatchedTracker):
    """Record full ``(R, n)`` snapshots every ``stride`` observations.

    Memory is ``O(snapshots · R · n)``, so the recorder enforces an element
    budget: an observation that would push the stored trace past
    ``max_elements`` raises a
    :class:`~repro.errors.ConfigurationError` instead of silently
    exhausting RAM on million-round runs.
    """

    metric_name = "trace"

    def __init__(
        self, stride: int = 1, max_elements: Optional[int] = None
    ) -> None:
        super().__init__()
        if stride < 1:
            raise ConfigurationError(f"stride must be >= 1, got {stride}")
        self.stride = stride
        self.max_elements = resolve_trace_budget(max_elements)
        self.snapshot_rounds: List[int] = []
        self.snapshots: List[np.ndarray] = []

    def _update(self, round_index: int, matrix: np.ndarray) -> None:
        if round_index % self.stride != 0:
            return
        per_snapshot = int(matrix.size)
        check_trace_budget(
            len(self.snapshots) * per_snapshot,
            per_snapshot,
            self.max_elements,
            f"{type(self).__name__}(stride={self.stride})",
        )
        self.snapshot_rounds.append(round_index)
        self.snapshots.append(np.array(matrix, dtype=np.int64, copy=True))

    def as_matrix(self) -> np.ndarray:
        """Snapshots stacked as a ``(num_snapshots, R, n)`` array."""
        if not self.snapshots:
            return np.zeros((0, self.n_replicas or 0, self.n_bins or 0), dtype=np.int64)
        return np.stack(self.snapshots)

    def payload(self) -> MetricPayload:
        R = self.n_replicas or 0
        return MetricPayload(
            name=self.metric_name,
            rounds=np.asarray(self.snapshot_rounds, dtype=np.int64),
            series={"trace": self.as_matrix()},
            summaries={
                "snapshots": np.full(R, len(self.snapshots), dtype=np.int64)
            },
        )


class BatchedBinEmptyingTracker(_BatchedTracker):
    """Per (replica, bin) first observed round at which the bin was empty.

    The batched analogue of the Lemma 4 measurement: state is one
    ``(R, n)`` matrix with ``-1`` for bins that have not yet been empty.
    """

    metric_name = "bin_emptying"

    def __init__(self) -> None:
        super().__init__()
        self.first_empty_round: Optional[np.ndarray] = None

    def _on_bind(self) -> None:
        self.first_empty_round = np.full(
            (self.n_replicas, self.n_bins), -1, dtype=np.int64
        )

    def _update(self, round_index: int, matrix: np.ndarray) -> None:
        newly = (self.first_empty_round < 0) & (matrix == 0)
        self.first_empty_round[newly] = round_index

    @property
    def all_emptied(self) -> np.ndarray:
        """Per-replica flag: every bin has been empty at least once."""
        if self.first_empty_round is None:
            return np.zeros(self.n_replicas or 0, dtype=bool)
        return (self.first_empty_round >= 0).all(axis=1)

    @property
    def last_first_empty(self) -> np.ndarray:
        """Per-replica round by which every bin had been empty (-1 if not yet)."""
        R = self.n_replicas or 0
        if self.first_empty_round is None:
            return np.full(R, -1, dtype=np.int64)
        result = self.first_empty_round.max(axis=1)
        result[~self.all_emptied] = -1
        return result

    def payload(self) -> MetricPayload:
        R = self.n_replicas or 0
        n = self.n_bins or 0
        first = (
            self.first_empty_round
            if self.first_empty_round is not None
            else np.full((R, n), -1, dtype=np.int64)
        )
        return MetricPayload(
            name=self.metric_name,
            rounds=self._rounds_array(),
            summaries={
                "all_emptied": self.all_emptied.astype(np.int64),
                "last_first_empty": self.last_first_empty,
            },
            arrays={"first_empty_round": first.copy()},
        )
