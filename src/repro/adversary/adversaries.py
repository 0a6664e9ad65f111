"""Adversarial reassignment strategies.

An adversary takes the current load vector and returns a new one with the
*same total number of balls* (it may not create or destroy balls — that is
the constraint of the Section 4.1 fault model).  Strategies range from the
worst case for convergence time (concentrate everything in one bin) to a
mild reshuffle (random permutation of bin labels).

Every adversary operates at two granularities: :meth:`Adversary.reassign`
rewrites one load vector, and :meth:`Adversary.apply_batch` rewrites a
whole ``(R, n)`` ensemble matrix at once — each replica is attacked
independently, with the ball-conservation constraint enforced per replica.
The concrete strategies implement only :meth:`Adversary.reassign_batch`,
vectorized over the replicas, and ``reassign`` is its one-row view;
custom subclasses that only implement ``reassign`` fall back to a
row-wise loop and still get the batch validation for free.
"""

from __future__ import annotations

from typing import Dict, List, Type

import numpy as np

from ..core.batched import check_pile_bins
from ..core.config import LoadConfiguration
from ..errors import ConfigurationError
from ..types import LoadVector

__all__ = [
    "Adversary",
    "ConcentrateAdversary",
    "PyramidAdversary",
    "ShuffleAdversary",
    "TargetHeaviestAdversary",
    "get_adversary",
    "available_adversaries",
]


class Adversary:
    """A ball-conserving reassignment of the current configuration.

    A subclass implements :meth:`reassign_batch` or :meth:`reassign` (or
    both); each defaults to the other, and a class that implements
    neither cannot be instantiated.
    """

    name: str = "abstract"

    def __new__(cls, *args, **kwargs):
        if (
            cls.reassign is Adversary.reassign
            and cls.reassign_batch is Adversary.reassign_batch
        ):
            raise TypeError(
                f"{cls.__name__} implements neither reassign nor reassign_batch"
            )
        return super().__new__(cls)

    def reassign(self, loads: LoadVector, rng: np.random.Generator) -> np.ndarray:
        """Return a new load vector with the same total as ``loads``.

        The default is the one-row view of :meth:`reassign_batch`.
        """
        return self.reassign_batch(np.asarray(loads)[np.newaxis], rng)[0]

    def reassign_batch(
        self, loads: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Return a new ``(R, n)`` matrix; each row conserves its own total.

        The default falls back to calling :meth:`reassign` row by row;
        concrete strategies override this with vectorized implementations.
        """
        return np.stack(
            [np.asarray(self.reassign(row, rng)) for row in np.asarray(loads)]
        )

    def __call__(self, loads: LoadVector, rng: np.random.Generator) -> np.ndarray:
        """Reassign one load vector, validated: the one-row :meth:`apply_batch`."""
        return self.apply_batch(np.asarray(loads)[np.newaxis], rng)[0]

    def apply_batch(
        self, loads: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Reassign every replica of an ``(R, n)`` matrix, validated.

        The Section 4.1 constraint is enforced *per replica*: the returned
        matrix must have the same shape, row sums identical to the input's
        (no ball created or destroyed in any replica), and no negative
        loads.  This check is for direct callers;
        :class:`~repro.adversary.batched.BatchedFaultyProcess` hands
        :meth:`reassign_batch`'s output to the process'
        :meth:`~repro.core.batched.BatchedLoadProcess.inject_loads`, which
        makes the same checks once.
        """
        loads = np.asarray(loads)
        if loads.ndim != 2:
            raise ConfigurationError(
                f"apply_batch expects an (R, n) matrix, got ndim={loads.ndim}"
            )
        result = np.asarray(self.reassign_batch(loads, rng), dtype=np.int64)
        if result.shape != loads.shape:
            raise ConfigurationError(
                f"{type(self).__name__} changed the ensemble shape "
                f"({loads.shape} -> {result.shape})"
            )
        before = loads.sum(axis=1)
        after = result.sum(axis=1)
        if not np.array_equal(before, after):
            bad = int(np.flatnonzero(before != after)[0])
            raise ConfigurationError(
                f"{type(self).__name__} did not conserve balls in replica "
                f"{bad}: {int(before[bad])} -> {int(after[bad])}"
            )
        if np.any(result < 0):
            raise ConfigurationError(
                f"{type(self).__name__} produced negative loads"
            )
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class ConcentrateAdversary(Adversary):
    """Move every ball into a single bin — the worst case for convergence.

    The target bin is chosen uniformly at random each fault (a fixed target
    would be equivalent for the anonymous process); in a batch every
    replica draws its own target, through :meth:`pile_targets`.  Because a
    fault is then fixed by its targets alone,
    :class:`~repro.adversary.batched.BatchedFaultyProcess` can draw them
    beforehand and have the native rbb kernel pile the balls itself; a
    subclass that overrides :meth:`reassign_batch` opts out of that.
    """

    name = "concentrate"

    def pile_targets(
        self, n_bins: int, n_replicas: int, rng: np.random.Generator
    ) -> np.ndarray:
        """One fault's pile bin for each replica: ``(R,)`` uniform draws."""
        return rng.integers(0, n_bins, size=n_replicas)

    def reassign_batch(
        self, loads: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        loads = np.asarray(loads)
        R, n = loads.shape
        targets = check_pile_bins(self.pile_targets(n, R, rng), (R,), n)
        out = np.zeros_like(loads)
        out[np.arange(R), targets] = loads.sum(axis=1)
        return out


class PyramidAdversary(Adversary):
    """Rebuild the configuration as a geometric "pyramid" (half the balls in
    the first bin, half of the rest in the second, ...)."""

    name = "pyramid"

    def reassign_batch(
        self, loads: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        loads = np.asarray(loads)
        R, n = loads.shape
        totals = loads.sum(axis=1)
        out = np.empty_like(loads)
        # the pyramid shape depends only on the total; build each distinct
        # total once (ensembles usually share one ball count per replica)
        for total in np.unique(totals):
            row = LoadConfiguration.pyramid(n, int(total)).as_array()
            out[totals == total] = row
        return out


class ShuffleAdversary(Adversary):
    """Permute bin labels uniformly at random — preserves the load multiset,
    so it perturbs token positions without changing any load statistic."""

    name = "shuffle"

    def reassign_batch(
        self, loads: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        # one independent permutation per replica, in a single call
        return rng.permuted(np.asarray(loads), axis=1)


class TargetHeaviestAdversary(Adversary):
    """Move a fraction of all balls onto the currently heaviest bin.

    Parameters
    ----------
    fraction:
        Fraction of the total ball count to pile onto the heaviest bin
        (clipped to what the other bins actually hold).
    """

    name = "target_heaviest"

    def __init__(self, fraction: float = 0.5) -> None:
        if not 0.0 < fraction <= 1.0:
            raise ConfigurationError(f"fraction must be in (0, 1], got {fraction}")
        self.fraction = float(fraction)

    def reassign_batch(
        self, loads: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        loads = np.array(loads, dtype=np.int64, copy=True)
        R, n = loads.shape
        totals = loads.sum(axis=1)
        quotas = (self.fraction * totals).astype(np.int64)
        targets = loads.argmax(axis=1)
        # visit donors in descending-load order (excluding each replica's
        # target); the amount taken from donor i is the part of the quota
        # not yet covered by the donors before it, clipped to its load
        order = np.argsort(loads, axis=1)[:, ::-1]
        sorted_loads = np.take_along_axis(loads, order, axis=1)
        donor_loads = np.where(order == targets[:, None], 0, sorted_loads)
        taken_before = np.cumsum(donor_loads, axis=1) - donor_loads
        take = np.clip(quotas[:, None] - taken_before, 0, donor_loads)
        out = np.empty_like(loads)
        np.put_along_axis(out, order, sorted_loads - take, axis=1)
        out[np.arange(R), targets] += take.sum(axis=1)
        return out


_REGISTRY: Dict[str, Type] = {
    cls.name: cls
    for cls in (ConcentrateAdversary, PyramidAdversary, ShuffleAdversary, TargetHeaviestAdversary)
}


def available_adversaries() -> List[str]:
    """Names accepted by :func:`get_adversary`."""
    return sorted(_REGISTRY)


def get_adversary(name_or_instance) -> Adversary:
    """Resolve an adversary from a name, class, or instance."""
    if isinstance(name_or_instance, Adversary):
        return name_or_instance
    if isinstance(name_or_instance, type) and issubclass(name_or_instance, Adversary):
        return name_or_instance()
    if isinstance(name_or_instance, str):
        key = name_or_instance.lower()
        if key not in _REGISTRY:
            raise ConfigurationError(
                f"unknown adversary {name_or_instance!r}; "
                f"available: {', '.join(available_adversaries())}"
            )
        return _REGISTRY[key]()
    raise ConfigurationError(f"cannot interpret {name_or_instance!r} as an adversary")
