"""Parallel Monte-Carlo execution substrate.

Experiments are embarrassingly parallel across trials.  Two entry points
cover the two workload shapes, and both run in this process:

* :func:`run_ensemble` — the one ensemble engine: pure load-vector
  ensembles described by an :class:`EnsembleSpec` and advanced as one
  batched ``(R, n)`` state by flat numpy / native kernels, in parallel on
  the native kernels' threads (the one way to run in parallel).
* :func:`run_trials` — arbitrary per-trial functions, called one trial
  after another.  No experiment uses it any more: their per-trial loops
  (E4's coupling, E13, E14) step in place, and the token experiments run
  their trials as the replicas of one batched process.

Both paths derive independent seed streams from one root seed and feed the
same column-oriented aggregation helpers.  An ensemble result is a pure
function of ``(spec, seed, kernel)``; trial ``i`` of :func:`run_trials`
always gets ``trial_seeds(seed, n)[i]``.  Neither depends on
``n_workers``, ``n_threads`` or the host's core count.
"""

from .aggregate import TrialAggregate, aggregate_ensemble, aggregate_records
from .ensemble import ENGINES, PROCESSES, EnsembleSpec, run_ensemble
from .runner import run_trials
from .seeding import trial_seeds

__all__ = [
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
