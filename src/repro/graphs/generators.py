"""Topology generators and the JSON-scalar topology-spec language.

Every generator returns a :class:`~repro.graphs.topology.Topology`.  The
complete graph includes self-loops so that a token's destination is uniform
over *all* nodes, matching the balls-into-bins re-assignment rule exactly;
the other topologies follow the usual graph-theoretic convention (no
self-loops) because that is what the open question of Section 5 is about.

The ensemble layer refers to topologies by **spec string** — a single JSON
scalar that sweeps can serialize through store headers and manifest
configs unchanged:

=====================  =======================================  =========
spec                   meaning                                  nodes
=====================  =======================================  =========
``complete:256``       clique with self-loops                   256
``cycle:256``          ring                                     256
``torus:32x32``        2-D wrap-around grid (``torus:32`` is    1024
                       the square shorthand)
``hypercube:10``       boolean hypercube of dimension 10        1024
``random_regular:N:D`` connected random D-regular graph on N    N
                       nodes (seeded from the spec string, so
                       the same spec always names the same
                       graph)
``star:256``           hub-and-leaves stress topology           256
=====================  =======================================  =========

:func:`parse_topology_spec` validates a spec (and knows its node count)
without building anything — that is what ``EnsembleSpec`` construction
uses, so typos fail before a sweep runs; :func:`resolve_topology` builds
(and caches) the actual :class:`Topology`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Optional, Tuple

from .topology import Topology
from ..errors import GraphError
from ..rng import as_generator
from ..types import SeedLike

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "complete_graph",
    "cycle_graph",
    "torus_grid_graph",
    "hypercube_graph",
    "random_regular_graph",
    "star_graph",
    "from_networkx",
    "TOPOLOGY_KINDS",
    "ParsedTopology",
    "parse_topology_spec",
    "resolve_topology",
]


def complete_graph(n: int, include_self_loops: bool = True) -> Topology:
    """The clique on ``n`` nodes.

    With ``include_self_loops=True`` (default) each node's neighborhood is
    the full node set, so a token's next position is uniform over ``[n]`` —
    the exact repeated balls-into-bins rule.
    """
    if n < 1:
        raise GraphError(f"n must be >= 1, got {n}")
    if n == 1:
        return Topology([[0]], name="complete")
    nodes = list(range(n))
    if include_self_loops:
        adjacency = [nodes for _ in range(n)]
    else:
        adjacency = [[v for v in nodes if v != u] for u in range(n)]
    return Topology(adjacency, name="complete")


def cycle_graph(n: int) -> Topology:
    """The ring on ``n`` nodes (2-regular for ``n >= 3``)."""
    if n < 3:
        raise GraphError(f"cycle requires n >= 3, got {n}")
    adjacency = [[(u - 1) % n, (u + 1) % n] for u in range(n)]
    return Topology(adjacency, name="cycle")


def torus_grid_graph(rows: int, cols: Optional[int] = None) -> Topology:
    """A 2-D torus (wrap-around grid), 4-regular for dimensions >= 3."""
    if cols is None:
        cols = rows
    if rows < 3 or cols < 3:
        raise GraphError(f"torus requires both dimensions >= 3, got {rows}x{cols}")
    n = rows * cols

    def node(r: int, c: int) -> int:
        return (r % rows) * cols + (c % cols)

    adjacency = []
    for r in range(rows):
        for c in range(cols):
            adjacency.append(
                [node(r - 1, c), node(r + 1, c), node(r, c - 1), node(r, c + 1)]
            )
    topo = Topology(adjacency, name="torus")
    assert topo.num_nodes == n
    return topo


def hypercube_graph(dimension: int) -> Topology:
    """The boolean hypercube with ``2**dimension`` nodes (``dimension``-regular)."""
    if dimension < 1:
        raise GraphError(f"dimension must be >= 1, got {dimension}")
    n = 1 << dimension
    adjacency = [[u ^ (1 << b) for b in range(dimension)] for u in range(n)]
    return Topology(adjacency, name="hypercube")


def random_regular_graph(n: int, degree: int, seed: SeedLike = None) -> Topology:
    """A uniformly random simple ``degree``-regular graph on ``n`` nodes.

    Uses :func:`networkx.random_regular_graph`; retries until the sampled
    graph is connected (disconnected samples would trap tokens and make the
    cover-time metric meaningless).
    """
    if n < 3:
        raise GraphError(f"n must be >= 3, got {n}")
    if degree < 2 or degree >= n:
        raise GraphError(f"degree must be in [2, n), got {degree}")
    if (n * degree) % 2 != 0:
        raise GraphError(f"n * degree must be even, got n={n}, degree={degree}")
    import networkx as nx  # lazy: keeps networkx out of `import repro.graphs`

    rng = as_generator(seed)
    for _ in range(32):
        graph = nx.random_regular_graph(degree, n, seed=int(rng.integers(2**31)))
        if nx.is_connected(graph):
            return from_networkx(graph, name=f"random_{degree}_regular")
    raise GraphError(
        f"failed to sample a connected {degree}-regular graph on {n} nodes after 32 attempts"
    )


def star_graph(n: int) -> Topology:
    """The star on ``n`` nodes (node 0 is the hub) — a maximally irregular
    stress topology for the load experiments."""
    if n < 2:
        raise GraphError(f"star requires n >= 2, got {n}")
    adjacency = [list(range(1, n))] + [[0] for _ in range(n - 1)]
    return Topology(adjacency, name="star")


#: Topology families understood by :func:`parse_topology_spec`.
TOPOLOGY_KINDS = (
    "complete",
    "cycle",
    "torus",
    "hypercube",
    "random_regular",
    "star",
)


@dataclass(frozen=True)
class ParsedTopology:
    """A validated topology spec: family, integer arguments, node count.

    ``num_nodes`` is computed statically (no graph is built), so spec
    validation — including the ``n_bins`` consistency check the ensemble
    layer performs — stays O(1) even for expensive families like
    ``random_regular``.
    """

    kind: str
    args: Tuple[int, ...]
    num_nodes: int
    #: The canonical spelling (lowercased family, normalized arguments):
    #: every spec the parser treats as equivalent shares one canonical
    #: string, which is what seeds ``random_regular`` resolution.
    spec: str


def _spec_error(spec: str, reason: str) -> GraphError:
    return GraphError(
        f"invalid topology spec {spec!r}: {reason} "
        "(expected e.g. 'complete:256', 'cycle:256', 'torus:32x32', "
        "'hypercube:10', 'random_regular:1024:8', 'star:256')"
    )


def parse_topology_spec(spec: str) -> ParsedTopology:
    """Validate a topology spec string without building the graph.

    >>> parse_topology_spec("torus:32x32").num_nodes
    1024
    >>> parse_topology_spec("hypercube:10").num_nodes
    1024
    >>> parse_topology_spec("random_regular:1024:8").args
    (1024, 8)
    """
    if not isinstance(spec, str) or not spec.strip():
        raise _spec_error(str(spec), "spec must be a non-empty string")
    parts = [p.strip() for p in spec.strip().split(":")]
    kind = parts[0].lower()
    if kind not in TOPOLOGY_KINDS:
        raise _spec_error(spec, f"unknown family {kind!r}")
    raw_args = parts[1:]
    if kind == "torus":
        # torus takes ROWSxCOLS (or one side for the square grid)
        if len(raw_args) == 1 and "x" in raw_args[0]:
            raw_args = raw_args[0].split("x")
    try:
        args = tuple(int(a) for a in raw_args)
    except ValueError:
        raise _spec_error(spec, "arguments must be integers") from None

    expected = {"complete": 1, "cycle": 1, "hypercube": 1, "star": 1,
                "torus": (1, 2), "random_regular": 2}[kind]
    arity_ok = (
        len(args) in expected if isinstance(expected, tuple)
        else len(args) == expected
    )
    if not arity_ok:
        raise _spec_error(spec, f"wrong number of arguments for {kind!r}")

    # mirror the generators' own bounds so malformed specs fail at
    # EnsembleSpec construction, not mid-sweep
    if kind == "complete":
        (n,) = args
        if n < 1:
            raise _spec_error(spec, "complete requires n >= 1")
    elif kind == "cycle":
        (n,) = args
        if n < 3:
            raise _spec_error(spec, "cycle requires n >= 3")
    elif kind == "torus":
        rows = args[0]
        cols = args[1] if len(args) == 2 else args[0]
        if rows < 3 or cols < 3:
            raise _spec_error(spec, "torus requires both dimensions >= 3")
        args = (rows, cols)
        n = rows * cols
    elif kind == "hypercube":
        (dim,) = args
        if dim < 1:
            raise _spec_error(spec, "hypercube requires dimension >= 1")
        n = 1 << dim
    elif kind == "random_regular":
        n, degree = args
        if n < 3:
            raise _spec_error(spec, "random_regular requires n >= 3")
        if degree < 2 or degree >= n:
            raise _spec_error(spec, "random_regular requires degree in [2, n)")
        if (n * degree) % 2 != 0:
            raise _spec_error(spec, "random_regular requires n * degree even")
    else:  # star
        (n,) = args
        if n < 2:
            raise _spec_error(spec, "star requires n >= 2")
    if kind in ("complete", "cycle", "star", "random_regular"):
        n = args[0]
    canonical = ":".join([kind] + [str(a) for a in args])
    return ParsedTopology(kind=kind, args=args, num_nodes=n, spec=canonical)


@lru_cache(maxsize=64)
def resolve_topology(spec: str) -> Topology:
    """Build (and cache) the :class:`Topology` a spec string names.

    Resolution is deterministic: ``random_regular`` specs derive their
    sampling seed from the spec string itself (CRC-32, stable across
    processes and sessions), so every engine, worker process, and resumed
    sweep that resolves the same spec walks the same graph.

    >>> resolve_topology("cycle:8").num_nodes
    8
    >>> resolve_topology("star:16").is_regular
    False
    """
    parsed = parse_topology_spec(spec)
    if parsed.kind == "complete":
        return complete_graph(parsed.args[0])
    if parsed.kind == "cycle":
        return cycle_graph(parsed.args[0])
    if parsed.kind == "torus":
        return torus_grid_graph(*parsed.args)
    if parsed.kind == "hypercube":
        return hypercube_graph(parsed.args[0])
    if parsed.kind == "random_regular":
        seed = zlib.crc32(parsed.spec.encode("utf-8"))
        return random_regular_graph(parsed.args[0], parsed.args[1], seed=seed)
    return star_graph(parsed.args[0])


def from_networkx(graph: "nx.Graph", name: Optional[str] = None) -> Topology:
    """Convert a NetworkX graph (nodes relabelled to 0..n-1) into a Topology."""
    if graph.number_of_nodes() == 0:
        raise GraphError("graph must contain at least one node")
    import networkx as nx  # lazy: keeps networkx out of `import repro.graphs`

    relabelled = nx.convert_node_labels_to_integers(graph, ordering="sorted")
    n = relabelled.number_of_nodes()
    adjacency = [sorted(relabelled.neighbors(u)) for u in range(n)]
    return Topology(adjacency, name=name or "networkx")
