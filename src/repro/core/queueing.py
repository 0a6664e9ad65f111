"""Queueing disciplines for the identity-tracking process.

Theorem 1 is oblivious to the strategy used to pick which ball leaves a
non-empty bin, but the *cover-time* corollary (Section 4) is stated for the
FIFO discipline (under FIFO no ball waits longer than the load it found on
arrival).  The token-level simulator therefore takes a pluggable
:class:`QueueDiscipline`; the ablation A1 compares them.

A discipline is two rules, applied to every non-empty bin at once:

* its queue :attr:`~QueueDiscipline.order` — ``"arrival"`` (position 0 is
  the oldest resident) or ``"id"`` (position 0 is the smallest ball id);
* :meth:`~QueueDiscipline.positions`, which maps the queue lengths of the
  non-empty bins, in bin order, to the position of the ball each bin
  releases this round.

FIFO, LIFO and random keep arrival order and take the front, the back, or
one uniform draw per bin that holds two or more balls; smallest-id keeps id
order and takes the front.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Type

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "QueueDiscipline",
    "FIFODiscipline",
    "LIFODiscipline",
    "RandomDiscipline",
    "SmallestIDDiscipline",
    "get_discipline",
    "available_disciplines",
]


class QueueDiscipline(ABC):
    """Strategy that selects which queued ball leaves a non-empty bin."""

    #: Registry key used by :func:`get_discipline`.
    name: str = "abstract"
    #: How a bin's queue is ordered: ``"arrival"`` or ``"id"``.
    order: str = "arrival"

    @abstractmethod
    def positions(self, lengths: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Return the position of the departing ball in each queue.

        *lengths* holds the queue length (``>= 1``) of every non-empty bin,
        in bin order; the result is an ``int64`` array of the same shape
        with ``0 <= positions < lengths``.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class FIFODiscipline(QueueDiscipline):
    """First-in first-out: extract the oldest resident (position 0)."""

    name = "fifo"

    def positions(self, lengths: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return np.zeros_like(lengths)


class LIFODiscipline(QueueDiscipline):
    """Last-in first-out: extract the newest resident."""

    name = "lifo"

    def positions(self, lengths: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return lengths - 1


class RandomDiscipline(QueueDiscipline):
    """Extract a ball chosen uniformly at random from the queue.

    A bin with one ball draws nothing; the others draw in bin order.
    """

    name = "random"

    def positions(self, lengths: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        positions = np.zeros_like(lengths)
        longer = lengths > 1
        positions[longer] = rng.integers(0, lengths[longer])
        return positions


class SmallestIDDiscipline(QueueDiscipline):
    """Extract the ball with the smallest identifier.

    A deterministic, identity-dependent discipline; it is intentionally
    "unfair" (low-id balls make progress at the expense of high-id balls)
    and serves as a stress case for the discipline-obliviousness claim about
    the *load* (the load statistics must match FIFO even though per-ball
    progress does not).
    """

    name = "smallest_id"
    order = "id"

    def positions(self, lengths: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return np.zeros_like(lengths)


_REGISTRY: Dict[str, Type[QueueDiscipline]] = {
    cls.name: cls
    for cls in (FIFODiscipline, LIFODiscipline, RandomDiscipline, SmallestIDDiscipline)
}


def available_disciplines() -> List[str]:
    """Names accepted by :func:`get_discipline`."""
    return sorted(_REGISTRY)


def get_discipline(name_or_instance) -> QueueDiscipline:
    """Resolve a discipline from a name, class, or instance."""
    if isinstance(name_or_instance, QueueDiscipline):
        return name_or_instance
    if isinstance(name_or_instance, type) and issubclass(name_or_instance, QueueDiscipline):
        return name_or_instance()
    if isinstance(name_or_instance, str):
        key = name_or_instance.lower()
        if key not in _REGISTRY:
            raise ConfigurationError(
                f"unknown queue discipline {name_or_instance!r}; "
                f"available: {', '.join(available_disciplines())}"
            )
        return _REGISTRY[key]()
    raise ConfigurationError(
        f"cannot interpret {name_or_instance!r} as a queue discipline"
    )
