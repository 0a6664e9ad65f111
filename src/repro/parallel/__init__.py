"""Parallel Monte-Carlo execution substrate.

Experiments are embarrassingly parallel across trials.  Two entry points
cover the two workload shapes:

* :func:`run_ensemble` — the one ensemble engine: pure load-vector
  ensembles described by an :class:`EnsembleSpec` and advanced as one
  batched ``(R, n)`` state by flat numpy / native kernels, optionally
  sharded across worker processes.
* :class:`TrialRunner` / :func:`run_trials` — arbitrary per-trial
  functions (per-token traversals, coupling runs, ...) and the
  ensemble engine's shards, executed in-process or in a process pool.

Both paths spawn independent seed streams from one root seed and feed the
same column-oriented aggregation helpers.  Ensemble results are
deterministic for a fixed ``(seed, n_workers, kernel)`` configuration but
depend on the shard layout, which follows the effective worker count.
"""

from .aggregate import TrialAggregate, aggregate_ensemble, aggregate_records
from .ensemble import ENGINES, PROCESSES, EnsembleSpec, run_ensemble
from .runner import TrialRunner, run_trials
from .seeding import trial_seeds

__all__ = [
    "TrialRunner",
    "run_trials",
    "trial_seeds",
    "TrialAggregate",
    "aggregate_records",
    "aggregate_ensemble",
    "EnsembleSpec",
    "run_ensemble",
    "ENGINES",
    "PROCESSES",
]
