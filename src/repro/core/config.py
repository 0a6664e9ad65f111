"""Load configurations of the repeated balls-into-bins process.

A *configuration* is a vector ``q = (q_1, ..., q_n)`` where ``q_u`` is the
number of balls currently enqueued at bin ``u``.  The paper calls a
configuration *legitimate* when its maximum load is ``O(log n)``; concretely
we expose the predicate ``max(q) <= beta * log(n)`` for a caller-chosen
constant ``beta`` (the paper leaves the absolute constant unspecified).

:class:`LoadConfiguration` is a thin, validated wrapper around an integer
NumPy array.  The simulators accept either a :class:`LoadConfiguration` or a
bare array; the wrapper is what the public API hands back to users.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from ..errors import ConfigurationError
from ..rng import as_generator
from ..types import SeedLike

__all__ = ["LoadConfiguration", "legitimacy_threshold", "DEFAULT_BETA"]

#: Default legitimacy constant.  The paper's Theorem 1 shows max load
#: ``O(log n)``; empirically the constant observed on the clique is well
#: below 4, so ``beta = 4`` is a conservative default for the predicate.
DEFAULT_BETA: float = 4.0


def legitimacy_threshold(n_bins: int, beta: float = DEFAULT_BETA) -> float:
    """Return the legitimacy threshold ``beta * log(n)``.

    For ``n = 1`` the natural log is zero; we clamp the threshold to at least
    ``beta`` so that the predicate stays meaningful for degenerate sizes used
    in tests.
    """
    if n_bins < 1:
        raise ConfigurationError(f"n_bins must be >= 1, got {n_bins}")
    if not beta > 0:  # also refuses NaN
        raise ConfigurationError(f"beta must be positive, got {beta}")
    return beta * max(math.log(n_bins), 1.0)


@dataclass(frozen=True)
class LoadConfiguration:
    """A validated load vector for ``n`` bins.

    Instances are immutable value objects: the wrapped array is copied on
    construction and flagged non-writeable, so configurations can safely be
    shared between processes, observers, and result records.

    Attributes
    ----------
    loads:
        Integer array of shape ``(n_bins,)`` with non-negative entries.
    """

    loads: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.loads)
        if arr.ndim != 1:
            raise ConfigurationError(f"loads must be one-dimensional, got shape {arr.shape}")
        if arr.size == 0:
            raise ConfigurationError("loads must contain at least one bin")
        if not np.issubdtype(arr.dtype, np.integer):
            if not np.all(np.equal(np.mod(arr, 1), 0)):
                raise ConfigurationError("loads must be integer-valued")
            arr = arr.astype(np.int64)
        if np.any(arr < 0):
            raise ConfigurationError("loads must be non-negative")
        arr = np.array(arr, dtype=np.int64, copy=True)
        arr.setflags(write=False)
        object.__setattr__(self, "loads", arr)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def n_bins(self) -> int:
        """Number of bins ``n``."""
        return int(self.loads.size)

    @property
    def n_balls(self) -> int:
        """Total number of balls ``m`` (the process conserves this)."""
        return int(self.loads.sum())

    @property
    def max_load(self) -> int:
        """The maximum load ``M(q)``."""
        return int(self.loads.max())

    @property
    def min_load(self) -> int:
        """The minimum load of any bin."""
        return int(self.loads.min())

    @property
    def num_empty_bins(self) -> int:
        """Number of bins with load zero."""
        return int(np.count_nonzero(self.loads == 0))

    @property
    def num_nonempty_bins(self) -> int:
        """Number of bins with load at least one."""
        return self.n_bins - self.num_empty_bins

    @property
    def empty_fraction(self) -> float:
        """Fraction of empty bins."""
        return self.num_empty_bins / self.n_bins

    def is_legitimate(self, beta: float = DEFAULT_BETA) -> bool:
        """Return ``True`` when ``max(q) <= beta * log(n)``."""
        return self.max_load <= legitimacy_threshold(self.n_bins, beta)

    def load_histogram(self) -> np.ndarray:
        """Return ``h`` where ``h[k]`` counts bins holding exactly ``k`` balls."""
        return np.bincount(self.loads, minlength=self.max_load + 1)

    def as_array(self) -> np.ndarray:
        """Return a writable copy of the underlying load vector."""
        return np.array(self.loads, dtype=np.int64, copy=True)

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.n_bins

    def __getitem__(self, index) -> int:
        return int(self.loads[index])

    def __iter__(self):
        return iter(self.loads.tolist())

    def __eq__(self, other) -> bool:
        if isinstance(other, LoadConfiguration):
            return bool(np.array_equal(self.loads, other.loads))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.loads.tobytes())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LoadConfiguration(n_bins={self.n_bins}, n_balls={self.n_balls}, "
            f"max_load={self.max_load}, empty={self.num_empty_bins})"
        )

    # ------------------------------------------------------------------
    # Canonical constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_loads(cls, loads: Iterable[int]) -> "LoadConfiguration":
        """Build a configuration from an explicit per-bin load sequence."""
        return cls(np.asarray(list(loads) if not isinstance(loads, np.ndarray) else loads))

    @classmethod
    def balanced(cls, n_bins: int, n_balls: Optional[int] = None) -> "LoadConfiguration":
        """One ball per bin when ``n_balls`` is ``None``; otherwise spread
        ``n_balls`` as evenly as possible (the first ``n_balls % n_bins`` bins
        receive one extra ball)."""
        _check_counts(n_bins, n_balls)
        m = n_bins if n_balls is None else n_balls
        base, extra = divmod(m, n_bins)
        loads = np.full(n_bins, base, dtype=np.int64)
        loads[:extra] += 1
        return cls(loads)

    @classmethod
    def all_in_one(cls, n_bins: int, n_balls: Optional[int] = None, bin_index: int = 0) -> "LoadConfiguration":
        """The worst-case start used by the self-stabilization experiments:
        every ball sits in a single bin."""
        _check_counts(n_bins, n_balls)
        m = n_bins if n_balls is None else n_balls
        if not 0 <= bin_index < n_bins:
            raise ConfigurationError(f"bin_index {bin_index} out of range for {n_bins} bins")
        loads = np.zeros(n_bins, dtype=np.int64)
        loads[bin_index] = m
        return cls(loads)

    @classmethod
    def random_uniform(
        cls, n_bins: int, n_balls: Optional[int] = None, seed: SeedLike = None
    ) -> "LoadConfiguration":
        """Throw each ball into a uniformly random bin (one-shot balls-into-bins)."""
        _check_counts(n_bins, n_balls)
        m = n_bins if n_balls is None else n_balls
        rng = as_generator(seed)
        destinations = rng.integers(0, n_bins, size=m)
        return cls(np.bincount(destinations, minlength=n_bins))

    @classmethod
    def pyramid(cls, n_bins: int, n_balls: Optional[int] = None) -> "LoadConfiguration":
        """A skewed configuration: loads decay geometrically from bin 0.

        Bin ``i`` receives roughly half of the balls remaining after bins
        ``0..i-1`` were filled.  Useful as a "structured but not maximally
        concentrated" adversarial start.
        """
        _check_counts(n_bins, n_balls)
        m = n_bins if n_balls is None else n_balls
        loads = np.zeros(n_bins, dtype=np.int64)
        remaining = m
        i = 0
        while remaining > 0 and i < n_bins - 1:
            take = (remaining + 1) // 2
            loads[i] = take
            remaining -= take
            i += 1
        loads[n_bins - 1] += remaining
        return cls(loads)

    @classmethod
    def legitimate_extreme(
        cls, n_bins: int, beta: float = DEFAULT_BETA, n_balls: Optional[int] = None
    ) -> "LoadConfiguration":
        """A configuration at the boundary of legitimacy: as many bins as
        possible hold ``floor(beta * log n)`` balls, the rest are empty.

        Used to start "stability" experiments from the hardest legitimate
        state rather than from a balanced one.
        """
        _check_counts(n_bins, n_balls)
        m = n_bins if n_balls is None else n_balls
        cap = max(int(legitimacy_threshold(n_bins, beta)), 1)
        loads = np.zeros(n_bins, dtype=np.int64)
        full_bins = min(m // cap, n_bins)
        loads[:full_bins] = cap
        leftover = m - full_bins * cap
        if leftover > 0:
            if full_bins < n_bins:
                loads[full_bins] = leftover
            else:
                # more balls than the legitimate profile can absorb: the
                # constructor degenerates to "everything legitimate plus a
                # remainder in bin 0" which is then *not* legitimate; callers
                # asking for impossible shapes get the closest thing.
                loads[0] += leftover
        return cls(loads)


def _check_counts(n_bins: int, n_balls: Optional[int]) -> None:
    if n_bins < 1:
        raise ConfigurationError(f"n_bins must be >= 1, got {n_bins}")
    if n_balls is not None and n_balls < 0:
        raise ConfigurationError(f"n_balls must be >= 0, got {n_balls}")
