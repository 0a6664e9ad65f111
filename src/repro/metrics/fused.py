"""In-kernel (fused) observation partials and their observer contract.

The native kernels can record streaming per-replica reductions *inside*
the C round loop — post-round max load, empty-bin count, optionally the
load sum and sum of squares, and optionally a per-replica load histogram
— at every ``observe_every`` boundary, instead of returning to Python so
trackers can scan the full ``(R, n)`` matrix.  One kernel call then
replaces ``ceil(rounds / observe_every)`` FFI round-trips plus as many
full-matrix reductions.

:class:`FusedSegmentStats` is the package those partials travel in: a
``(T, R)`` block per scalar statistic covering the ``T`` observation
points of one ``run()`` window, and the histogram's ``(R, K + 1)`` bucket
counts and ``(R,)`` overflow summed over those points (the histogram
tracker keeps only time-aggregated counts).  Everything is
integer-valued, so a tracker that folds these partials produces
**bit-identical** state to observing the matrices itself — the Python
observation loop stays the semantic reference, and the equality is
covered by tests.

A tracker opts into fusion by setting the class attribute
``supports_fused_ingest = True`` and implementing
``ingest_fused(stats)``; trackers that genuinely need the raw matrix
(trace, bin-emptying) simply never set the flag, and the engine falls
back to the segmented Python loop for the whole observer list.  The
kernel pays for an optional block only when someone will consume it:
``fused_needs_moments`` marks trackers that require the
sum/sum-of-squares blocks, and :func:`fused_histogram_cap` names the
bucket cap of a tracker that requires the histogram blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "FusedSegmentStats",
    "supports_fused",
    "fused_needs_moments",
    "fused_histogram_cap",
]


@dataclass(frozen=True)
class FusedSegmentStats:
    """Per-observation-point reductions recorded inside a native kernel.

    ``rounds[k]`` is the global (1-based) round index of observation
    point ``k``; the per-point blocks are ``(T, R)`` with
    ``T = len(rounds)`` observation points over ``R`` replicas.
    ``load_sum`` and ``load_sumsq`` are present only when a moments
    consumer asked for them.  ``hist_counts`` (``(R, K + 1)``) and
    ``hist_overflow`` (``(R,)``) are present together, only when a
    histogram consumer asked for them: summed over the ``T`` points, a
    load above the cap ``K`` counts in bucket ``K`` and in the overflow.
    """

    rounds: np.ndarray  # (T,) int64 global round indexes
    max_load: np.ndarray  # (T, R) post-round max load
    empty_bins: np.ndarray  # (T, R) post-round empty-bin count
    n_bins: int
    load_sum: Optional[np.ndarray] = None  # (T, R) int64
    load_sumsq: Optional[np.ndarray] = None  # (T, R) int64
    hist_counts: Optional[np.ndarray] = None  # (R, K + 1) int64
    hist_overflow: Optional[np.ndarray] = None  # (R,) int64

    def __post_init__(self) -> None:
        T = len(self.rounds)
        R = self.max_load.shape[1]
        for label in ("max_load", "empty_bins", "load_sum", "load_sumsq"):
            block = getattr(self, label)
            if block is None:
                continue
            if block.ndim != 2 or block.shape[0] != T:
                raise ConfigurationError(
                    f"fused block {label!r} must be (T, R) with T={T}, "
                    f"got shape {block.shape}"
                )
            if block.shape[1] != R:
                raise ConfigurationError(
                    f"fused block {label!r} disagrees on R: "
                    f"{block.shape[1]} != {R}"
                )
        counts, overflow = self.hist_counts, self.hist_overflow
        if (counts is None) != (overflow is None):
            raise ConfigurationError(
                "fused hist_counts and hist_overflow come together"
            )
        if counts is not None and (
            counts.ndim != 2 or counts.shape[0] != R or counts.shape[1] < 1
        ):
            raise ConfigurationError(
                f"fused hist_counts must be (R, K + 1) with R={R}, "
                f"got shape {counts.shape}"
            )
        if overflow is not None and overflow.shape != (R,):
            raise ConfigurationError(
                f"fused hist_overflow must be (R,) with R={R}, "
                f"got shape {overflow.shape}"
            )

    @property
    def n_observations(self) -> int:
        return int(len(self.rounds))

    @property
    def n_replicas(self) -> int:
        return int(self.max_load.shape[1])


def supports_fused(observer) -> bool:
    """Whether an observer can ingest fused partials instead of matrices."""
    return bool(getattr(observer, "supports_fused_ingest", False))


def fused_needs_moments(observer) -> bool:
    """Whether a fused-capable observer needs the sum/sumsq blocks."""
    return bool(getattr(observer, "fused_needs_moments", False))


def fused_histogram_cap(observer) -> Optional[int]:
    """The bucket cap ``K`` of the histogram blocks an observer needs.

    ``None`` for an observer that needs no histogram blocks.  A histogram
    tracker asks for them with ``fused_needs_histogram = True`` and names
    its cap in ``max_tracked_load``.
    """
    if not getattr(observer, "fused_needs_histogram", False):
        return None
    return int(observer.max_tracked_load)
