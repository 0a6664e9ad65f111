"""Random-number-generator plumbing.

Every stochastic object in the library accepts a *seed-like* argument — an
``int``, ``None``, a :class:`numpy.random.SeedSequence`, or an existing
:class:`numpy.random.Generator` — and normalizes it through
:func:`as_generator`.  Parallel Monte-Carlo trials obtain statistically
independent streams via :func:`spawn_generators` / :func:`spawn_seeds`,
whose child ``i`` is :func:`repro.parallel.seeding.trial_seed` ``(seed, i)``:
results are reproducible regardless of how many worker processes
participate, and the seed object is never advanced.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .types import SeedLike

__all__ = [
    "as_generator",
    "as_seed_sequence",
    "spawn_generators",
    "spawn_seeds",
    "derive_substream",
]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for *seed*.

    Parameters
    ----------
    seed:
        ``None`` (fresh OS entropy), an integer seed, a ``SeedSequence``, or
        an existing ``Generator`` (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def as_seed_sequence(seed: SeedLike = None) -> np.random.SeedSequence:
    """Return a ``SeedSequence`` for *seed*.

    Generators cannot be converted back into seed sequences; passing one
    raises ``TypeError`` to avoid silently breaking reproducibility.
    """
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, np.random.Generator):
        raise TypeError(
            "cannot derive a SeedSequence from an existing Generator; "
            "pass an int seed or a SeedSequence instead"
        )
    return np.random.SeedSequence(seed)


def spawn_seeds(seed: SeedLike, count: int) -> List[np.random.SeedSequence]:
    """Spawn *count* independent child seed sequences from *seed*.

    The children are :func:`~repro.parallel.seeding.trial_seeds`: a fresh
    root's ``spawn(count)``, without advancing *seed*, so a reused
    ``SeedSequence`` hands out the same children every time.
    """
    # imported here: repro.parallel.seeding itself imports this module
    from .parallel.seeding import trial_seeds

    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return trial_seeds(seed, count)


def spawn_generators(seed: SeedLike, count: int) -> List[np.random.Generator]:
    """Spawn *count* independent generators from *seed*."""
    return [np.random.default_rng(s) for s in spawn_seeds(seed, count)]


def derive_substream(seed: SeedLike, key: Sequence[int]) -> np.random.Generator:
    """Derive a generator keyed by a tuple of integers.

    This gives deterministic per-(trial, parameter) streams without having to
    pre-spawn a whole list: ``derive_substream(seed, (trial, n))`` always
    yields the same stream for the same ``seed``/key pair.
    """
    base = as_seed_sequence(seed)
    child = np.random.SeedSequence(entropy=base.entropy, spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(child)
