"""Graph substrate for the general-topology open question (Section 5).

On the complete graph the repeated balls-into-bins process coincides with
running ``n`` parallel random walks under the constraint that each node
forwards at most one token per round.  The paper conjectures (but does not
prove) that the maximum load stays logarithmic on every regular graph; this
package provides the topologies (addressable through the JSON-scalar spec
language of :func:`~repro.graphs.generators.parse_topology_spec`), the
single-replica constrained-walk simulator, and the batched ``(R, n)`` walk
ensemble :class:`~repro.graphs.batched.BatchedConstrainedWalks` needed to
probe that conjecture empirically (experiments E13 and E16) and to compare
against the ``O(sqrt(t))`` bound known for regular graphs.
"""

from .batched import BatchedConstrainedWalks
from .generators import (
    TOPOLOGY_KINDS,
    ParsedTopology,
    complete_graph,
    cycle_graph,
    hypercube_graph,
    parse_topology_spec,
    random_regular_graph,
    resolve_topology,
    star_graph,
    torus_grid_graph,
)
from .topology import Topology
from .walks import ConstrainedParallelWalks, GraphWalkResult

__all__ = [
    "Topology",
    "complete_graph",
    "cycle_graph",
    "torus_grid_graph",
    "hypercube_graph",
    "random_regular_graph",
    "star_graph",
    "TOPOLOGY_KINDS",
    "ParsedTopology",
    "parse_topology_spec",
    "resolve_topology",
    "ConstrainedParallelWalks",
    "GraphWalkResult",
    "BatchedConstrainedWalks",
]
