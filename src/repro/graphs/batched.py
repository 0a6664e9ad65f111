"""Batched constrained parallel walks: R replicas on one shared topology.

This is the graph generalization of
:class:`~repro.core.batched.BatchedRepeatedBallsIntoBins`: ``R``
independent replicas of the topology-constrained parallel-walk process
(:class:`~repro.graphs.walks.ConstrainedParallelWalks`) advance as one
vectorized ``(R, n)`` load matrix over a single shared CSR
:class:`~repro.graphs.topology.Topology`.  A round costs one flat
neighbor draw over the combined ``r * n + node`` index space plus a single
``np.bincount`` — instead of ``R`` separate Python-level simulations.

Both walk modes are supported:

``constrained=True`` (the paper's model)
    Every non-empty node forwards exactly one token to a uniformly random
    neighbor per round; the rest of the queue waits.
``constrained=False`` (the idealized comparison process)
    Every token moves independently every round — no queueing — so the
    gap between the two modes quantifies the congestion introduced by the
    one-token-per-round constraint.

With ``R == 1`` and the same seed the trajectory is **stream-equal** to
the single-replica simulator in either mode: the flat index order
(row-major over ``(R, n)``) visits the single replica's nodes exactly as
``np.flatnonzero`` / ``np.repeat`` do, and
:meth:`Topology.sample_neighbors` consumes one ``rng.random`` draw per
token in both paths.

Like :class:`~repro.core.batched.BatchedRepeatedBallsIntoBins`, two
kernels drive the update: the pure-numpy reference above, and a compiled
C kernel (``walk_kernel.c``, built on demand through
:mod:`repro.core.native`) with independent per-replica xoshiro256++
streams that collapses a whole ``run()`` into one FFI call — the source
of the order-of-magnitude ensemble speedups
(``benchmarks/bench_batched.py`` enforces them).  ``kernel="auto"`` (the
default) uses the native kernel when a C compiler is available and falls
back to numpy silently; ``REPRO_NATIVE=0`` forces numpy everywhere.

Example
-------
Tokens are conserved per replica and every window metric is a
length-``R`` vector:

>>> from .generators import resolve_topology
>>> walks = BatchedConstrainedWalks(resolve_topology("cycle:8"), 4, seed=0)
>>> result = walks.run(16)
>>> result.final_loads.sum(axis=1).tolist()
[8, 8, 8, 8]
>>> result.max_load_seen.shape
(4,)
"""

from __future__ import annotations

import ctypes
from typing import Optional, Union

import numpy as np

from .topology import Topology
from ..core.batched import BatchedLoadProcess
from ..core.config import LoadConfiguration
from ..core.native import get_kernel, native_status, resolve_n_threads
from ..errors import ConfigurationError
from ..types import SeedLike

__all__ = ["BatchedConstrainedWalks"]


class BatchedConstrainedWalks(BatchedLoadProcess):
    """Vectorized ensemble of ``R`` constrained parallel-walk replicas.

    Parameters
    ----------
    topology:
        The shared graph every replica walks on (one CSR adjacency in
        memory, regardless of ``R``).
    n_replicas:
        Number of independent replicas ``R``.
    n_tokens:
        Tokens per replica (default: one per node, the paper's setting).
        Ignored when ``initial`` is given.
    initial:
        ``None`` for the balanced start, a single configuration
        replicated across replicas, or a 2-D ``(R, n)`` matrix of
        per-replica starts.
    constrained:
        ``True`` (default) forwards one token per non-empty node per
        round; ``False`` moves every token independently.
    seed:
        Seed-like value; with ``R == 1`` and the numpy kernel the
        trajectory matches
        :class:`~repro.graphs.walks.ConstrainedParallelWalks` under the
        same seed, step for step.
    kernel:
        ``"numpy"`` (reference), ``"native"`` (compiled; raises when no C
        compiler is available), or ``"auto"`` (native when possible).
    n_threads:
        Worker threads for native-kernel calls; see
        :class:`~repro.core.batched.BatchedLoadProcess`.  Never changes
        results.
    """

    def __init__(
        self,
        topology: Topology,
        n_replicas: int,
        n_tokens: Optional[int] = None,
        initial: Union[LoadConfiguration, np.ndarray, None] = None,
        constrained: bool = True,
        seed: SeedLike = None,
        kernel: str = "auto",
        n_threads: Optional[int] = None,
    ) -> None:
        if kernel not in ("auto", "numpy", "native"):
            raise ConfigurationError(
                f"kernel must be 'auto', 'numpy' or 'native', got {kernel!r}"
            )
        if kernel == "native" and get_kernel("walks") is None:
            raise ConfigurationError(
                "native walk kernel requested but unavailable "
                f"({native_status('walks')})"
            )
        super().__init__(
            topology.num_nodes,
            n_replicas,
            n_balls=n_tokens,
            initial=initial,
            seed=seed,
            n_threads=n_threads,
        )
        self._topology = topology
        self._constrained = bool(constrained)
        self._kernel = kernel
        self._csr_cache: Optional[tuple] = None
        self._scratch_cache: Optional[tuple] = None

    # ------------------------------------------------------------------
    @property
    def topology(self) -> Topology:
        return self._topology

    @property
    def num_nodes(self) -> int:
        return self._n_bins

    @property
    def constrained(self) -> bool:
        return self._constrained

    # ------------------------------------------------------------------
    # Dynamics
    # ------------------------------------------------------------------
    def _advance(self) -> None:
        """One round for all active replicas with a single flat draw.

        Non-empty cells (constrained) or token multiplicities
        (unconstrained) are flattened over the combined ``r * n + node``
        index space; :meth:`Topology.sample_neighbors` draws one uniform
        neighbor per departing token, destinations are shifted back into
        their replica's block, and one ``np.bincount`` scatters the
        arrivals of the whole ensemble.
        """
        loads = self._loads
        active = self._active
        n = self._n_bins
        if self._constrained:
            nonempty = loads > 0
            if not active.all():
                nonempty &= active[:, None]
            cells = np.flatnonzero(nonempty.ravel())
            if cells.size == 0:
                return
            nodes = cells % n
            loads -= nonempty
            destinations = self._topology.sample_neighbors(nodes, self._rng)
            # cells - nodes is the replica block offset r * n
            combined = cells - nodes + destinations
            loads += np.bincount(
                combined, minlength=self._n_replicas * n
            ).reshape(self._n_replicas, n)
        else:
            if active.all():
                multiplicities = loads.ravel()
            else:
                multiplicities = (loads * active[:, None]).ravel()
            cells = np.repeat(
                np.arange(multiplicities.size, dtype=np.int64), multiplicities
            )
            if cells.size == 0:
                return
            nodes = cells % n
            destinations = self._topology.sample_neighbors(nodes, self._rng)
            combined = cells - nodes + destinations
            arrivals = np.bincount(
                combined, minlength=self._n_replicas * n
            ).reshape(self._n_replicas, n)
            loads[active] = arrivals[active]

    # ------------------------------------------------------------------
    # Dynamics — native kernel
    # ------------------------------------------------------------------
    def _native_supported(self) -> bool:
        neighbors, _ = self._topology.csr()
        return bool(
            self._n_bins < 2**31
            and neighbors.size < 2**31
            and (self._n_balls < 2**31 - 1).all()
        )

    def _native_csr(self) -> tuple:
        """Kernel-ready CSR arrays (int32 neighbors/degrees, Lemire limits)."""
        if self._csr_cache is None:
            neighbors, offsets = self._topology.csr()
            degrees = np.ascontiguousarray(np.diff(offsets), dtype=np.int32)
            # Lemire rejection threshold (2**32 - d) % d, one per node
            d64 = degrees.astype(np.uint64)
            lims = ((np.uint64(2**32) - d64) % d64).astype(np.uint32)
            self._csr_cache = (
                np.ascontiguousarray(neighbors, dtype=np.int32),
                np.ascontiguousarray(offsets, dtype=np.int64),
                degrees,
                np.ascontiguousarray(lims),
            )
        return self._csr_cache

    def _native_scratch(self, n_threads: int) -> tuple:
        """Per-thread kernel work buffers, resized when the thread count
        grows: ``(n_threads, n)`` arrivals rows (all-zero between calls —
        the kernel restores the invariant) and source-compaction rows."""
        if self._scratch_cache is None or self._scratch_cache[0] < n_threads:
            self._scratch_cache = (
                n_threads,
                np.zeros((n_threads, self._n_bins), dtype=np.int32),
                np.empty((n_threads, self._n_bins), dtype=np.int32),
            )
        return self._scratch_cache[1], self._scratch_cache[2]

    def _run_window(
        self, rounds, threshold, stop_when_legitimate, first_legit, observers,
        observe_every,
    ):
        kernel = get_kernel("walks") if self._kernel in ("auto", "native") else None
        if kernel is not None and not self._native_supported():
            if self._kernel == "native":
                raise ConfigurationError(
                    "native walk kernel requested but the state does not fit "
                    "its int32 representation (node, edge, and per-replica "
                    "token counts must stay below 2**31)"
                )
            kernel = None
        if kernel is None:
            return super()._run_window(
                rounds, threshold, stop_when_legitimate, first_legit, observers,
                observe_every,
            )
        # the walk kernel's lane buffer resets at round boundaries, so the
        # shared observed-segmentation loop is trajectory-exact here too
        return self._run_window_native(
            kernel, rounds, threshold, stop_when_legitimate, first_legit,
            observers, observe_every,
        )

    def _run_native(
        self, kernel, rounds, threshold, stop_when_legitimate, first_legit,
        obs=None,
    ):
        R = self._n_replicas
        loads32 = np.ascontiguousarray(self._loads, dtype=np.int32)
        neighbors, offsets, degrees, lims = self._native_csr()
        states = self._native_states()
        max_seen = np.zeros(R, dtype=np.int32)
        min_empty = np.full(R, self._n_bins, dtype=np.int32)
        active8 = np.ascontiguousarray(self._active, dtype=np.uint8)
        rounds_done = np.ascontiguousarray(self._rounds_done)
        first64 = np.ascontiguousarray(first_legit)
        n_threads = resolve_n_threads(self._n_threads, R, kernel="walks")
        scratch, sources = self._native_scratch(n_threads)
        if obs is None:
            observe_every, n_obs = 1, 0
            obs_max = obs_empty = obs_sum = obs_sumsq = None
        else:
            observe_every, obs_max, obs_empty, obs_sum, obs_sumsq = obs
            n_obs = int(obs_max.shape[0])

        def ptr(arr, ctype):
            if arr is None:
                return None  # NULL: kernel skips the optional output
            return arr.ctypes.data_as(ctypes.POINTER(ctype))

        kernel(
            ptr(loads32, ctypes.c_int32),
            ctypes.c_int64(R),
            ctypes.c_int64(self._n_bins),
            ptr(neighbors, ctypes.c_int32),
            ptr(offsets, ctypes.c_int64),
            ptr(degrees, ctypes.c_int32),
            ptr(lims, ctypes.c_uint32),
            ctypes.c_int64(rounds),
            ptr(states, ctypes.c_uint64),
            ctypes.c_double(threshold),
            ctypes.c_int(1 if stop_when_legitimate else 0),
            ctypes.c_int(1 if self._constrained else 0),
            ptr(max_seen, ctypes.c_int32),
            ptr(min_empty, ctypes.c_int32),
            ptr(first64, ctypes.c_int64),
            ptr(rounds_done, ctypes.c_int64),
            ptr(active8, ctypes.c_uint8),
            ptr(scratch, ctypes.c_int32),
            ptr(sources, ctypes.c_int32),
            ctypes.c_int32(n_threads),
            ctypes.c_int64(observe_every),
            ctypes.c_int64(n_obs),
            ptr(obs_max, ctypes.c_int32),
            ptr(obs_empty, ctypes.c_int32),
            ptr(obs_sum, ctypes.c_int64),
            ptr(obs_sumsq, ctypes.c_int64),
        )
        self._loads[...] = loads32
        self._rounds_done[...] = rounds_done
        self._active[...] = active8.astype(bool)
        first_legit[...] = first64
        return max_seen.astype(np.int64), min_empty.astype(np.int64)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = "constrained" if self._constrained else "independent"
        return (
            f"BatchedConstrainedWalks(topology={self._topology.name!r}, "
            f"n_replicas={self._n_replicas}, mode={mode}, "
            f"kernel={self._kernel!r}, rounds<= {self.round_index})"
        )
