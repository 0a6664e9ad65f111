"""Exact analysis of the repeated balls-into-bins chain for tiny systems.

For very small ``n`` the full configuration chain can be enumerated and its
transition matrix computed exactly, which the test-suite uses to validate
the Monte-Carlo simulators against ground truth, and which reproduces the
Appendix B counterexample (arrival counts at a bin in consecutive rounds are
*not* negatively associated) by exact enumeration.

The state space is the set of *compositions* of ``m`` balls into ``n``
ordered bins; its size is ``C(m + n - 1, n - 1)``, so exact work is limited
to roughly ``n <= 5``.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Tuple

import numpy as np

from .chain import FiniteMarkovChain
from ..errors import ConfigurationError

__all__ = [
    "enumerate_configurations",
    "exact_rbb_transition_matrix",
    "exact_rbb_chain",
    "exact_greedy_d_transition_matrix",
    "exact_greedy_d_chain",
    "exact_token_transition_matrix",
    "exact_walk_transition_matrix",
    "exact_walk_chain",
    "arrival_joint_distribution_n2",
    "appendix_b_counterexample",
]

Configuration = Tuple[int, ...]


def enumerate_configurations(n_balls: int, n_bins: int) -> List[Configuration]:
    """All load configurations of ``n_balls`` balls in ``n_bins`` ordered bins.

    Returned in lexicographic order; the list length is
    ``C(n_balls + n_bins - 1, n_bins - 1)``.
    """
    if n_bins < 1:
        raise ConfigurationError(f"n_bins must be >= 1, got {n_bins}")
    if n_balls < 0:
        raise ConfigurationError(f"n_balls must be >= 0, got {n_balls}")

    configs: List[Configuration] = []

    def rec(prefix: List[int], remaining: int, bins_left: int) -> None:
        if bins_left == 1:
            configs.append(tuple(prefix + [remaining]))
            return
        for take in range(remaining + 1):
            rec(prefix + [take], remaining - take, bins_left - 1)

    rec([], n_balls, n_bins)
    return configs


def _transition_distribution(config: Configuration, n_bins: int) -> Dict[Configuration, float]:
    """Exact one-round transition distribution out of ``config``.

    Each non-empty bin sends one ball to an independent uniform destination;
    we enumerate all ``n^h`` destination tuples (``h`` = non-empty bins).
    """
    loads = np.asarray(config, dtype=np.int64)
    nonempty = np.flatnonzero(loads > 0)
    h = nonempty.size
    base = loads.copy()
    base[nonempty] -= 1
    if h == 0:
        return {tuple(base.tolist()): 1.0}
    prob = (1.0 / n_bins) ** h
    out: Dict[Configuration, float] = {}
    for destinations in itertools.product(range(n_bins), repeat=h):
        result = base.copy()
        for d in destinations:
            result[d] += 1
        key = tuple(int(x) for x in result)
        out[key] = out.get(key, 0.0) + prob
    return out


def exact_rbb_transition_matrix(
    n_bins: int, n_balls: int | None = None
) -> Tuple[np.ndarray, List[Configuration]]:
    """Exact transition matrix of the repeated balls-into-bins chain.

    Returns ``(P, states)`` where ``states`` lists the configurations in the
    row/column order of ``P``.
    """
    m = n_bins if n_balls is None else n_balls
    states = enumerate_configurations(m, n_bins)
    index = {s: i for i, s in enumerate(states)}
    P = np.zeros((len(states), len(states)))
    for i, config in enumerate(states):
        for target, prob in _transition_distribution(config, n_bins).items():
            P[i, index[target]] += prob
    return P, states


def exact_rbb_chain(n_bins: int, n_balls: int | None = None) -> FiniteMarkovChain:
    """The exact configuration chain wrapped as a :class:`FiniteMarkovChain`."""
    P, states = exact_rbb_transition_matrix(n_bins, n_balls)
    return FiniteMarkovChain(P, state_labels=states)


# ----------------------------------------------------------------------
# Exact chains for the other load processes (Greedy[d], token, walks)
# ----------------------------------------------------------------------
def _greedy_transition_distribution(
    config: Configuration, n_bins: int, d: int
) -> Dict[Configuration, float]:
    """Exact one-round transition distribution of Greedy[d] out of ``config``.

    Mirrors the numpy round of
    :class:`repro.baselines.d_choices.BatchedDChoices` (which
    :class:`~repro.baselines.d_choices.DChoicesProcess` runs at ``R == 1``)
    exactly: every non-empty bin removes one ball first, then the re-throws
    are placed *sequentially* in increasing bin order, each choosing the
    least-loaded of ``d`` independent uniform candidate bins against the
    **current** loads, with ties broken by the first occurrence in the
    candidate tuple (``choices[np.argmin(row[choices])]``).
    """
    loads = np.asarray(config, dtype=np.int64)
    nonempty = np.flatnonzero(loads > 0)
    base = loads.copy()
    base[nonempty] -= 1
    dist: Dict[Configuration, float] = {tuple(int(x) for x in base): 1.0}
    if nonempty.size == 0:
        return dist
    branch_prob = (1.0 / n_bins) ** d
    for _ in nonempty:  # one placement stage per re-throwing bin
        merged: Dict[Configuration, float] = {}
        for cfg, prob in dist.items():
            arr = np.asarray(cfg, dtype=np.int64)
            for row in itertools.product(range(n_bins), repeat=d):
                best = row[int(np.argmin(arr[list(row)]))]
                placed = arr.copy()
                placed[best] += 1
                key = tuple(int(x) for x in placed)
                merged[key] = merged.get(key, 0.0) + prob * branch_prob
        dist = merged
    return dist


def exact_greedy_d_transition_matrix(
    n_bins: int, d: int, n_balls: int | None = None
) -> Tuple[np.ndarray, List[Configuration]]:
    """Exact transition matrix of the repeated Greedy[d] baseline.

    ``d = 1`` degenerates to the plain repeated balls-into-bins matrix.
    Work grows as ``|states| * h * n^d`` per row, so keep ``n <= 4`` and
    ``d`` small.
    """
    if d < 1:
        raise ConfigurationError(f"d must be >= 1, got {d}")
    m = n_bins if n_balls is None else n_balls
    states = enumerate_configurations(m, n_bins)
    index = {s: i for i, s in enumerate(states)}
    P = np.zeros((len(states), len(states)))
    for i, config in enumerate(states):
        for target, prob in _greedy_transition_distribution(config, n_bins, d).items():
            P[i, index[target]] += prob
    return P, states


def exact_greedy_d_chain(
    n_bins: int, d: int, n_balls: int | None = None
) -> FiniteMarkovChain:
    """The exact Greedy[d] chain wrapped as a :class:`FiniteMarkovChain`."""
    P, states = exact_greedy_d_transition_matrix(n_bins, d, n_balls)
    return FiniteMarkovChain(P, state_labels=states)


def exact_token_transition_matrix(
    n_bins: int, n_balls: int | None = None
) -> Tuple[np.ndarray, List[Configuration]]:
    """Exact load-level transition matrix of the token-identity process.

    :class:`~repro.core.token_process.TokenRepeatedBallsIntoBins` tracks
    *which* token each bin forwards (queue discipline), but the load vector
    evolves exactly as in the anonymous process: every non-empty bin removes
    one ball and re-throws it to an independent uniform destination,
    regardless of which token was selected.  The load-level chain is
    therefore identical to :func:`exact_rbb_transition_matrix`; this wrapper
    exists so the verification harness can state (and test) that invariance
    explicitly rather than assuming it.
    """
    return exact_rbb_transition_matrix(n_bins, n_balls)


def _walk_transition_distribution(
    config: Configuration,
    neighbor_lists: List[List[int]],
    constrained: bool,
) -> Dict[Configuration, float]:
    """Exact one-round transition distribution of the graph-walk process."""
    loads = np.asarray(config, dtype=np.int64)
    n = loads.size
    if constrained:
        # each non-empty node forwards ONE token to a uniform neighbor
        sources = [v for v in range(n) if loads[v] > 0]
        base = loads.copy()
        for v in sources:
            base[v] -= 1
        movers = [(v, 1) for v in sources]
    else:
        # every token moves independently to a uniform neighbor of its node
        base = np.zeros(n, dtype=np.int64)
        movers = [(v, int(loads[v])) for v in range(n) if loads[v] > 0]
    dist: Dict[Configuration, float] = {tuple(int(x) for x in base): 1.0}
    for node, count in movers:
        neighbors = neighbor_lists[node]
        p_each = 1.0 / len(neighbors)
        for _ in range(count):
            merged: Dict[Configuration, float] = {}
            for cfg, prob in dist.items():
                for dest in neighbors:
                    placed = list(cfg)
                    placed[dest] += 1
                    key = tuple(placed)
                    merged[key] = merged.get(key, 0.0) + prob * p_each
            dist = merged
    return dist


def exact_walk_transition_matrix(
    topology, n_tokens: int | None = None, constrained: bool = True
) -> Tuple[np.ndarray, List[Configuration]]:
    """Exact transition matrix of (anonymous) parallel walks on ``topology``.

    ``constrained=True`` is the paper's one-token-per-round process
    (:class:`~repro.graphs.walks.ConstrainedParallelWalks`); ``False`` moves
    every token independently.  On the complete graph with self-loops the
    constrained matrix equals :func:`exact_rbb_transition_matrix`.  Every
    node must have at least one neighbor.
    """
    n = topology.num_nodes
    m = n if n_tokens is None else int(n_tokens)
    if m < 0:
        raise ConfigurationError(f"n_tokens must be >= 0, got {m}")
    neighbor_lists = [
        [int(u) for u in topology.neighbors_of(v)] for v in range(n)
    ]
    for v, neigh in enumerate(neighbor_lists):
        if not neigh:
            raise ConfigurationError(
                f"node {v} has no neighbors; the walk chain is undefined"
            )
    states = enumerate_configurations(m, n)
    index = {s: i for i, s in enumerate(states)}
    P = np.zeros((len(states), len(states)))
    for i, config in enumerate(states):
        dist = _walk_transition_distribution(config, neighbor_lists, constrained)
        for target, prob in dist.items():
            P[i, index[target]] += prob
    return P, states


def exact_walk_chain(
    topology, n_tokens: int | None = None, constrained: bool = True
) -> FiniteMarkovChain:
    """The exact walk chain wrapped as a :class:`FiniteMarkovChain`."""
    P, states = exact_walk_transition_matrix(topology, n_tokens, constrained)
    return FiniteMarkovChain(P, state_labels=states)


# ----------------------------------------------------------------------
# Appendix B: the negative-association counterexample for n = 2
# ----------------------------------------------------------------------
def arrival_joint_distribution_n2(
    observed_bin: int = 0, rounds: int = 2
) -> Dict[Tuple[int, ...], float]:
    """Exact joint distribution of the arrival counts at one bin over the
    first ``rounds`` rounds of the ``n = 2`` process started from ``(1, 1)``.

    ``X_t`` is the number of balls *arriving* at ``observed_bin`` in round
    ``t``.  Appendix B uses ``rounds = 2`` and shows
    ``P(X_1 = 0, X_2 = 0) = 1/8 > P(X_1 = 0) P(X_2 = 0) = 1/4 * 3/8``.
    """
    n = 2
    if observed_bin not in (0, 1):
        raise ConfigurationError("observed_bin must be 0 or 1 for the n=2 system")
    if rounds < 1:
        raise ConfigurationError(f"rounds must be >= 1, got {rounds}")

    joint: Dict[Tuple[int, ...], float] = {}

    def recurse(config: Tuple[int, int], history: Tuple[int, ...], prob: float, depth: int) -> None:
        if depth == rounds:
            joint[history] = joint.get(history, 0.0) + prob
            return
        loads = np.asarray(config, dtype=np.int64)
        nonempty = np.flatnonzero(loads > 0)
        h = nonempty.size
        base = loads.copy()
        base[nonempty] -= 1
        if h == 0:
            recurse(tuple(base.tolist()), history + (0,), prob, depth + 1)
            return
        p_each = prob * (1.0 / n) ** h
        for destinations in itertools.product(range(n), repeat=h):
            result = base.copy()
            arrivals = 0
            for d in destinations:
                result[d] += 1
                if d == observed_bin:
                    arrivals += 1
            recurse(tuple(int(x) for x in result), history + (arrivals,), p_each, depth + 1)

    recurse((1, 1), (), 1.0, 0)
    return joint


def appendix_b_counterexample() -> Dict[str, float]:
    """Reproduce the exact numbers of Appendix B.

    Returns a dictionary with ``p_x1_0`` (= 1/4), ``p_x2_0`` (= 3/8),
    ``p_joint_00`` (= 1/8), ``product`` (= 3/32), and the boolean-as-float
    ``violates_negative_association`` (1.0 since 1/8 > 3/32).
    """
    joint = arrival_joint_distribution_n2(rounds=2)
    p_x1_0 = sum(p for (x1, _x2), p in joint.items() if x1 == 0)
    p_x2_0 = sum(p for (_x1, x2), p in joint.items() if x2 == 0)
    p_joint = joint.get((0, 0), 0.0)
    product = p_x1_0 * p_x2_0
    return {
        "p_x1_0": p_x1_0,
        "p_x2_0": p_x2_0,
        "p_joint_00": p_joint,
        "product": product,
        "violates_negative_association": float(p_joint > product),
    }
