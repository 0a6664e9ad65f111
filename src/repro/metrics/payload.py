"""Engine-agnostic containers for observed metric data.

A :class:`MetricPayload` is what one tracker hands back after a run: the
observed round indexes, optional time-major series, per-replica scalar
summaries, and per-replica auxiliary arrays.  Payloads are the currency the
ensemble engine moves around — they ride inside
:class:`~repro.core.batched.EnsembleResult`, turn into columns in
:func:`repro.parallel.aggregate.aggregate_ensemble`, and are persisted by
:class:`repro.store.store.ResultStore`.

Array-shape conventions
-----------------------
``series``
    Time-major: axis 0 is the observation index, axis 1 the replica
    (``(T, R)`` for scalar-per-replica series, ``(T, R, n)`` for traces).
``summaries``
    One scalar per replica: ``(R,)`` vectors, always numeric (booleans are
    stored as 0/1), so they can be summarized and tabulated directly.
``arrays``
    Replica-major extras that are neither time series nor scalars
    (histogram count matrices, per-bin first-emptying rounds): axis 0 is
    the replica.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

__all__ = ["MetricPayload"]


@dataclass
class MetricPayload:
    """Observed data of one metric over one run."""

    name: str
    rounds: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    series: Dict[str, np.ndarray] = field(default_factory=dict)
    summaries: Dict[str, np.ndarray] = field(default_factory=dict)
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def n_replicas(self) -> int:
        for vector in self.summaries.values():
            return int(np.asarray(vector).shape[0])
        for arr in self.arrays.values():
            return int(np.asarray(arr).shape[0])
        for arr in self.series.values():
            return int(np.asarray(arr).shape[1])
        return 0

    @property
    def n_observations(self) -> int:
        return int(np.asarray(self.rounds).size)
