"""Trial execution, in this process.

:func:`run_trials` calls ``trial_fn(trial_index, seed_sequence, **kwargs)``
for ``n_trials`` independent trials, one after another, and returns their
results in trial order.  Trial ``i`` always gets ``trial_seeds(seed,
n_trials)[i]``, so a trial's result does not depend on how many trials run
or on which ran before it.  No experiment of the catalog calls it (the
token experiments run their trials as the replicas of one
:class:`~repro.core.token_process.BatchedTokens`); it is the entry point
for a caller's own per-trial function.
"""

from __future__ import annotations

from typing import Any, Callable, List

from .seeding import trial_seeds
from ..types import SeedLike

__all__ = ["run_trials"]

TrialFunction = Callable[..., Any]


def run_trials(
    trial_fn: TrialFunction,
    n_trials: int,
    seed: SeedLike = None,
    **kwargs,
) -> List[Any]:
    """Execute ``n_trials`` trials and return their results in order.

    Extra keyword arguments are forwarded to every trial invocation.
    """
    seeds = trial_seeds(seed, n_trials)  # refuses a negative n_trials
    return [trial_fn(i, trial_seed, **kwargs) for i, trial_seed in enumerate(seeds)]
