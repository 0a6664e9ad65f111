"""Observer plumbing for the unified (replica-aware) observation layer.

Every engine in the repository — the batched ``(R, n)`` processes, the
sweep scheduler on top of them, and the single-replica simulators, which
are ``R == 1`` views of the batched processes and hand their observers
the ``(1, n)`` state — reports its state through one protocol:
``observer.observe(round_index, loads)`` where ``loads`` is an ``(R, n)``
load matrix.  No engine hands observers a 1-D vector any more; one
handed in directly is the ``R == 1`` view, which the helpers here
normalize into a ``(1, n)`` matrix.

Observers must treat the arrays they receive as read-only (the engines pass
views of their internal buffers for efficiency).
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Sequence

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "as_load_matrix",
    "BatchedCallbackObserver",
    "BatchedObserverList",
    "TRACE_ELEMENT_BUDGET",
    "check_trace_budget",
]

#: Default snapshot budget (total stored elements) for the trace recorders;
#: ~400 MB of int64 data.  Million-round runs must either raise the budget
#: explicitly or use a stride — silent RAM exhaustion is not an option.
TRACE_ELEMENT_BUDGET = 50_000_000


def as_load_matrix(loads) -> np.ndarray:
    """Normalize a load vector or matrix into an ``(R, n)`` matrix view.

    A 1-D length-``n`` vector (a single-replica simulator's state) becomes a
    ``(1, n)`` view of the same data; a 2-D matrix passes through.

    >>> as_load_matrix(np.array([1, 0, 2])).shape
    (1, 3)
    >>> as_load_matrix(np.zeros((4, 8), dtype=np.int64)).shape
    (4, 8)
    """
    arr = np.asarray(loads)
    if arr.ndim == 1:
        return arr.reshape(1, -1)
    if arr.ndim == 2:
        return arr
    raise ConfigurationError(
        f"loads must be a 1-D vector or a 2-D (R, n) matrix, got ndim={arr.ndim}"
    )


def resolve_trace_budget(max_elements) -> int:
    """Validate and default a trace recorder's element budget."""
    if max_elements is None:
        return TRACE_ELEMENT_BUDGET
    if max_elements < 1:
        raise ConfigurationError(
            f"max_elements must be >= 1, got {max_elements}"
        )
    return int(max_elements)


def check_trace_budget(
    stored_elements: int, next_elements: int, budget: int, what: str
) -> None:
    """Refuse a snapshot that would push a trace past its element budget."""
    if stored_elements + next_elements > budget:
        raise ConfigurationError(
            f"{what} would exceed its element budget: {stored_elements} "
            f"elements stored, next snapshot adds {next_elements}, budget is "
            f"{budget}. Raise max_elements, increase the stride, or use a "
            "streaming tracker instead of a full trace"
        )


class BatchedCallbackObserver:
    """Adapt a bare callable ``f(round_index, loads)`` to the batched protocol."""

    def __init__(self, callback: Callable[[int, np.ndarray], None]) -> None:
        self._callback = callback

    def observe(self, round_index: int, loads: np.ndarray) -> None:
        self._callback(round_index, loads)


class BatchedObserverList:
    """A composite batched observer forwarding to an ordered list of observers.

    The engines hold exactly one of these, so the hot loop pays one
    attribute lookup regardless of how many metrics are attached.
    """

    def __init__(self, observers: Iterable = ()) -> None:
        self._observers: List = []
        for obs in observers:
            self.add(obs)

    def add(self, observer) -> None:
        """Attach *observer*; bare callables are wrapped automatically."""
        if hasattr(observer, "observe"):
            self._observers.append(observer)
        elif callable(observer):
            self._observers.append(BatchedCallbackObserver(observer))
        else:
            raise ConfigurationError(
                f"observer must implement .observe(t, loads) or be callable, got {observer!r}"
            )

    def observe(self, round_index: int, loads: np.ndarray) -> None:
        for obs in self._observers:
            obs.observe(round_index, loads)

    def __len__(self) -> int:
        return len(self._observers)

    def __iter__(self):
        return iter(self._observers)

    @property
    def is_empty(self) -> bool:
        return not self._observers

    @staticmethod
    def coerce(observers) -> "BatchedObserverList":
        """Normalize ``None`` / a single observer / a sequence into a list."""
        if observers is None:
            return BatchedObserverList()
        if isinstance(observers, BatchedObserverList):
            return observers
        if hasattr(observers, "observe") or callable(observers):
            return BatchedObserverList([observers])
        if isinstance(observers, (Sequence, Iterable)):
            return BatchedObserverList(observers)
        raise ConfigurationError(f"cannot interpret {observers!r} as observers")
