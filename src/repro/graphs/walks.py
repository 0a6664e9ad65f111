"""Parallel random walks on arbitrary topologies with the one-token-per-round
constraint.

This is the graph generalization of the repeated balls-into-bins process:
``m`` tokens live on the nodes of a graph; in every round each *non-empty*
node forwards exactly one of its tokens to a uniformly random neighbor.  On
the complete graph (with self-loops) this is precisely the paper's process;
on other topologies it is the object of the Section 5 open question.

For comparison the simulator can also run the *unconstrained* variant in
which every token moves independently each round (no queueing): the
difference between the two quantifies the congestion introduced by the
constraint, which is the phenomenon the paper studies.

:class:`ConstrainedParallelWalks` is one run: replica 0 of a one-replica
:class:`~repro.graphs.batched.BatchedConstrainedWalks` on the numpy kernel
(see :class:`~repro.core.process.ReplicaView`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .batched import BatchedConstrainedWalks
from .topology import Topology
from ..core.config import LoadConfiguration
from ..core.process import ReplicaView
from ..rng import as_generator
from ..types import SeedLike

__all__ = ["ConstrainedParallelWalks", "GraphWalkResult"]


@dataclass
class GraphWalkResult:
    """Summary of a constrained-parallel-walks run.

    Attributes
    ----------
    rounds:
        Rounds simulated in this call.
    max_load_seen:
        Window maximum load, seeded from the configuration at call time
        (so zero-round calls report the observed max, never 0).
    final_configuration:
        Loads after the last round.
    min_empty_nodes_seen:
        Smallest count of token-free nodes, seeded from the configuration
        at call time.
    """

    rounds: int
    max_load_seen: int
    final_configuration: LoadConfiguration
    min_empty_nodes_seen: int


class ConstrainedParallelWalks(ReplicaView):
    """Anonymous (load-level) parallel random walks on a topology.

    The parameters are
    :class:`~repro.graphs.batched.BatchedConstrainedWalks`'s without
    ``n_replicas``, ``kernel`` and ``n_threads``: ``constrained=True``
    (default) forwards one token per non-empty node per round, the paper's
    model, and ``False`` moves every token every round.
    """

    def __init__(
        self,
        topology: Topology,
        n_tokens: Optional[int] = None,
        initial: Union[LoadConfiguration, np.ndarray, None] = None,
        constrained: bool = True,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(
            BatchedConstrainedWalks(
                topology, 1, n_tokens=n_tokens, initial=initial,
                constrained=constrained, seed=as_generator(seed),
                kernel="numpy",
            )
        )

    # the walk spellings of the load-process properties
    num_nodes = ReplicaView.n_bins
    n_tokens = ReplicaView.n_balls
    num_empty_nodes = ReplicaView.num_empty_bins

    @property
    def topology(self) -> Topology:
        return self._batch.topology

    @property
    def constrained(self) -> bool:
        return self._batch.constrained

    def run(self, rounds: int, observers=None, observe_every: int = 1) -> GraphWalkResult:
        """Simulate ``rounds`` rounds collecting the standard load metrics.

        Observers see the ``(1, n)`` state every ``observe_every`` rounds
        and after the last; the window statistics stay exact at any stride
        and fold in the configuration at call time.
        """
        window = self._window(
            rounds, observers=observers, observe_every=observe_every,
            seeded=True,
        )
        return GraphWalkResult(
            window.rounds, window.max_load_seen, window.final_configuration,
            window.min_empty_bins_seen,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = "constrained" if self.constrained else "independent"
        return (
            f"ConstrainedParallelWalks(topology={self.topology.name!r}, "
            f"tokens={self.n_tokens}, mode={mode}, round={self.round_index})"
        )
