"""Deterministic per-trial seeding.

Trials receive :class:`numpy.random.SeedSequence` children spawned from a
single root seed.  Because spawning is a pure function of the root entropy
and the spawn key, trial ``i`` sees the same stream whether the experiment
runs on 1 worker or 32 — the property the HPC guides call "reproducible
regardless of schedule".
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..errors import ConfigurationError
from ..rng import as_seed_sequence
from ..types import SeedLike

__all__ = ["trial_seeds", "trial_seed"]


def trial_seeds(seed: SeedLike, n_trials: int) -> List[np.random.SeedSequence]:
    """Spawn one independent seed sequence per trial."""
    if n_trials < 0:
        raise ConfigurationError(f"n_trials must be >= 0, got {n_trials}")
    return list(as_seed_sequence(seed).spawn(n_trials))


def trial_seed(seed: SeedLike, trial_index: int) -> np.random.SeedSequence:
    """The seed sequence of a single trial, without spawning the whole list.

    ``trial_seed(s, i)`` equals ``trial_seeds(s, n)[i]`` for every ``n > i``
    (for a root that has not spawned children through other means).  The
    root's own ``spawn_key`` is part of the derivation, so two distinct
    spawned children of one ancestor yield *independent* trial streams —
    not copies of each other.

    Because the derivation is a pure function of ``(entropy, spawn_key)``
    — it never mutates the root the way ``SeedSequence.spawn`` does — a
    derived seed can be serialized as that pair and reconstructed
    exactly.  The ensemble engine's per-shard streams, the trial runner's
    per-trial streams, the sweep planner's per-point streams and
    :mod:`repro.verify`'s per-case/per-horizon streams (including replay
    from counterexample artifacts) all rely on this contract.
    """
    if trial_index < 0:
        raise ConfigurationError(f"trial_index must be >= 0, got {trial_index}")
    base = as_seed_sequence(seed)
    return np.random.SeedSequence(
        entropy=base.entropy, spawn_key=tuple(base.spawn_key) + (trial_index,)
    )
