"""Aggregation of per-trial records.

Trial functions typically return either a scalar or a flat ``dict`` of
scalars.  :func:`aggregate_records` stacks homogeneous dict records into a
column-oriented :class:`TrialAggregate`, which then offers per-column
summaries via :mod:`repro.analysis.statistics`.  Batched-engine results
(:class:`~repro.core.batched.EnsembleResult`) already hold their metrics as
vectors; :func:`aggregate_ensemble` adapts them to the same column-oriented
interface so downstream analysis is engine-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence

import numpy as np

from ..analysis.statistics import TrialSummary, summarize_trials
from ..core.batched import EnsembleResult
from ..errors import ConfigurationError

__all__ = ["TrialAggregate", "aggregate_records", "aggregate_ensemble"]


@dataclass
class TrialAggregate:
    """Column-oriented view of a list of homogeneous trial records."""

    columns: Dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def n_trials(self) -> int:
        if not self.columns:
            return 0
        return int(next(iter(self.columns.values())).size)

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise ConfigurationError(
                f"unknown column {name!r}; available: {', '.join(sorted(self.columns))}"
            )
        return self.columns[name]

    def summary(self, name: str) -> TrialSummary:
        """Descriptive summary of one column."""
        return summarize_trials(self.column(name))

    def mean(self, name: str) -> float:
        return float(self.column(name).mean())

    def max(self, name: str) -> float:
        return float(self.column(name).max())

    def min(self, name: str) -> float:
        return float(self.column(name).min())

    def fraction_true(self, name: str) -> float:
        """Fraction of trials in which a boolean column was truthy."""
        col = self.column(name)
        return float(np.count_nonzero(col) / col.size) if col.size else 0.0

    def as_dict_of_lists(self) -> Dict[str, List[float]]:
        return {name: col.tolist() for name, col in self.columns.items()}


def aggregate_records(records: Sequence[Mapping[str, float]]) -> TrialAggregate:
    """Stack a sequence of flat dict records into a :class:`TrialAggregate`.

    Missing keys are not allowed: every record must provide exactly the same
    keys (that is what "homogeneous" means for trial outputs).
    """
    if not records:
        return TrialAggregate()
    keys = list(records[0].keys())
    key_set = set(keys)
    columns: Dict[str, List[float]] = {k: [] for k in keys}
    for i, record in enumerate(records):
        if set(record.keys()) != key_set:
            raise ConfigurationError(
                f"record {i} keys {sorted(record.keys())} differ from the first record's "
                f"{sorted(key_set)}"
            )
        for k in keys:
            value = record[k]
            columns[k].append(float(value) if value is not None else np.nan)
    return TrialAggregate(columns={k: np.asarray(v, dtype=float) for k, v in columns.items()})


def aggregate_ensemble(result: EnsembleResult) -> TrialAggregate:
    """Column-oriented view of a batched :class:`EnsembleResult`.

    Each replica becomes one "trial" of the :class:`TrialAggregate` that
    :func:`aggregate_records` also builds, so ensembles and per-trial
    records share one summary interface.  ``first_legitimate_round``
    keeps the ``-1`` sentinel for replicas that never converged (filter
    on ``converged``).

    Observed metric payloads (``result.metrics``, collected when the spec
    requested ``metrics=``) contribute one extra column per per-replica
    summary, named ``<metric>_<summary>`` (e.g. ``max_load_window_max``,
    ``legitimacy_violations``).
    """
    columns = {
        "window_max_load": result.max_load_seen.astype(float),
        "min_empty_bins": result.min_empty_bins_seen.astype(float),
        "first_legitimate_round": result.first_legitimate_round.astype(float),
        "rounds": result.rounds.astype(float),
        "final_max_load": result.final_max_load.astype(float),
        "converged": result.converged.astype(float),
    }
    for name in sorted(result.metrics):
        payload = result.metrics[name]
        for key in sorted(payload.summaries):
            columns[f"{name}_{key}"] = np.asarray(
                payload.summaries[key], dtype=float
            )
    return TrialAggregate(columns=columns)
