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

At ``R == 1`` the numpy round advances the one row without the replica
offsets, with the same draws: the flat index order (row-major over
``(R, n)``) visits the nodes as ``np.flatnonzero`` / ``np.repeat`` over
the row do, and :meth:`Topology.sample_neighbors` consumes one
``rng.random`` draw per token in both paths.  The single-replica
:class:`~repro.graphs.walks.ConstrainedParallelWalks` is that one-replica
process on the numpy kernel, seen through
:class:`~repro.core.process.ReplicaView`.

Like :class:`~repro.core.batched.BatchedRepeatedBallsIntoBins`, two
kernels drive the update: the pure-numpy reference above, and a compiled
C kernel (``walk_kernel.c``, built on demand through
:mod:`repro.core.native`) with independent per-replica xoshiro256++
streams that collapses a whole ``run()`` into one FFI call — the source
of the order-of-magnitude ensemble speedups
(``benchmarks/bench_batched.py`` enforces them).  ``kernel="auto"`` (the
default) uses the native kernel when a C compiler is available and falls
back to numpy silently; ``REPRO_NATIVE=0`` forces numpy everywhere.  The
native call itself is :class:`~repro.core.batched.BatchedLoadProcess`'s;
this class adds only the kernel's topology, walk-mode and scratch
arguments and its edge-count guard.

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

from typing import Dict, Optional, Union

import numpy as np

from .topology import Topology
from ..core.batched import BatchedLoadProcess
from ..core.config import LoadConfiguration
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
        With a 1-D ``initial`` it must equal its token count.
    initial:
        ``None`` for the balanced start, a single configuration
        replicated across replicas, or a 2-D ``(R, n)`` matrix of
        per-replica starts.
    constrained:
        ``True`` (default) forwards one token per non-empty node per
        round; ``False`` moves every token independently.
    seed:
        Seed-like value; an existing ``Generator`` is used as is (the
        :class:`~repro.graphs.walks.ConstrainedParallelWalks` view hands
        in its own).
    kernel:
        ``"numpy"`` (reference), ``"native"`` (compiled; raises when no C
        compiler is available), or ``"auto"`` (native when possible).
    n_threads:
        Worker threads for native-kernel calls; see
        :class:`~repro.core.batched.BatchedLoadProcess`.  Never changes
        results.
    """

    native_kernel = "walks"

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
        super().__init__(
            topology.num_nodes,
            n_replicas,
            n_balls=n_tokens,
            initial=initial,
            seed=seed,
            kernel=kernel,
            n_threads=n_threads,
        )
        self._topology = topology
        self._constrained = bool(constrained)
        self._csr_cache: Optional[Dict[str, np.ndarray]] = None
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
        arrivals of the whole ensemble.  At ``R == 1`` the node indices
        are the cells themselves, so the round skips the block offsets.
        """
        if self._n_replicas == 1:
            if self._active[0]:
                self._advance_row(self._loads[0])
            return
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

    def _advance_row(self, row: np.ndarray) -> None:
        """One round of a single replica's row, in place: :meth:`_advance`
        at ``R == 1``, with the same draws."""
        if self._constrained:
            nonempty = row > 0
            sources = np.flatnonzero(nonempty)
            if sources.size:
                row -= nonempty
                destinations = self._topology.sample_neighbors(sources, self._rng)
                row += np.bincount(destinations, minlength=row.size).astype(np.int32)
        else:
            sources = np.repeat(np.arange(row.size, dtype=np.int64), row)
            if sources.size:
                destinations = self._topology.sample_neighbors(sources, self._rng)
                row[...] = np.bincount(destinations, minlength=row.size)

    # ------------------------------------------------------------------
    # Native kernel arguments (the call itself is BatchedLoadProcess's)
    # ------------------------------------------------------------------
    def _native_supported(self) -> bool:
        """The kernel indexes the CSR neighbour array with int32."""
        neighbors, _ = self._topology.csr()
        return neighbors.size < 2**31

    def _native_extra_args(self, n_threads: int) -> Dict[str, object]:
        """The topology in kernel form, the walk mode, and per-thread
        scratch: ``(n_threads, n)`` arrivals rows (all-zero between calls —
        the kernel restores the invariant) and source-compaction rows,
        resized when the thread count grows."""
        if self._csr_cache is None:
            neighbors, offsets = self._topology.csr()
            degrees = np.ascontiguousarray(np.diff(offsets), dtype=np.int32)
            # Lemire rejection threshold (2**32 - d) % d, one per node
            d64 = degrees.astype(np.uint64)
            self._csr_cache = {
                "neighbors": np.ascontiguousarray(neighbors, dtype=np.int32),
                "offsets": np.ascontiguousarray(offsets, dtype=np.int64),
                "degrees": degrees,
                "lims": ((np.uint64(2**32) - d64) % d64).astype(np.uint32),
            }
        if self._scratch_cache is None or self._scratch_cache[0] < n_threads:
            self._scratch_cache = (
                n_threads,
                np.zeros((n_threads, self._n_bins), dtype=np.int32),
                np.empty((n_threads, self._n_bins), dtype=np.int32),
            )
        return {
            **self._csr_cache,
            "constrained": self._constrained,
            "scratch": self._scratch_cache[1],
            "sources": self._scratch_cache[2],
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = "constrained" if self._constrained else "independent"
        return (
            f"BatchedConstrainedWalks(topology={self._topology.name!r}, "
            f"n_replicas={self._n_replicas}, mode={mode}, "
            f"kernel={self._kernel!r}, rounds<= {self.round_index})"
        )
