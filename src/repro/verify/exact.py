"""Exact ground-truth distributions the conformance gates compare against.

Everything here is computed from the enumerated small-``n`` chains of
:mod:`repro.markov.small_n` — no sampling.  The helpers mirror the
*engine conventions* precisely, because that is what conformance means:

* state distributions are over **post-step** configurations after ``t``
  rounds (``mu_0 P^t``);
* window maxima fold post-step configurations only and start from an
  accumulator of ``0`` (the ``run_window`` convention for ``rounds >= 1``
  runs), except under fault injection where the engines seed the maximum
  from the *initial* configuration and fold every adversarially injected
  configuration as well;
* window empty-bin minima start at ``n`` and fold post-step
  configurations only — injected fault configurations are *not* folded,
  matching ``BatchedFaultyProcess``.

Faults follow the engine clock: at a faulty round ``s`` the adversary
matrix ``F`` applies *before* that round's transition, so the
distribution after ``t`` rounds is ``mu_0 · prod_{s=1..t} F^{[s faulty]} P``.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

from ..core.config import LoadConfiguration
from ..errors import ConfigurationError
from ..markov.small_n import Configuration

__all__ = [
    "state_index",
    "one_hot_distribution",
    "distribution_after",
    "pmf_over_statistic",
    "max_load_pmf",
    "empty_bins_pmf",
    "window_max_pmf",
    "window_min_empty_pmf",
    "adversary_matrix",
]


def state_index(states: Sequence[Configuration]) -> Dict[Configuration, int]:
    """Configuration -> row index lookup for an enumerated state list."""
    return {s: i for i, s in enumerate(states)}


def one_hot_distribution(
    states: Sequence[Configuration], config: Iterable[int]
) -> np.ndarray:
    """The point distribution concentrated on ``config``."""
    key = tuple(int(x) for x in config)
    index = state_index(states)
    if key not in index:
        raise ConfigurationError(
            f"configuration {key} is not a state of the enumerated chain"
        )
    mu = np.zeros(len(states))
    mu[index[key]] = 1.0
    return mu


def distribution_after(
    P: np.ndarray,
    mu0: np.ndarray,
    rounds: int,
    fault_rounds: Sequence[int] = (),
    F: np.ndarray | None = None,
) -> np.ndarray:
    """Exact state distribution after ``rounds`` engine rounds.

    ``fault_rounds`` lists the (1-based) rounds at which the adversary
    matrix ``F`` applies *before* the round's transition — the
    :meth:`BatchedFaultyProcess.run` clock.
    """
    if rounds < 0:
        raise ConfigurationError(f"rounds must be >= 0, got {rounds}")
    faulty = set(int(t) for t in fault_rounds)
    if faulty and F is None:
        raise ConfigurationError("fault_rounds given without an adversary matrix")
    mu = np.asarray(mu0, dtype=float).copy()
    for t in range(1, rounds + 1):
        if t in faulty:
            mu = mu @ F
        mu = mu @ P
    return mu


def pmf_over_statistic(
    states: Sequence[Configuration], mu: np.ndarray, stat
) -> Tuple[np.ndarray, np.ndarray]:
    """Push a state distribution through a configuration statistic.

    Returns ``(values, probs)`` with ``values`` sorted ascending.
    """
    acc: Dict[int, float] = {}
    for config, p in zip(states, np.asarray(mu, dtype=float)):
        if p <= 0.0:
            continue
        v = int(stat(config))
        acc[v] = acc.get(v, 0.0) + float(p)
    values = np.array(sorted(acc), dtype=np.int64)
    probs = np.array([acc[v] for v in values], dtype=float)
    return values, probs


def max_load_pmf(
    states: Sequence[Configuration], mu: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Distribution of the maximum load under state distribution ``mu``."""
    return pmf_over_statistic(states, mu, max)


def empty_bins_pmf(
    states: Sequence[Configuration], mu: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Distribution of the empty-bin count under state distribution ``mu``."""
    return pmf_over_statistic(states, mu, lambda c: sum(1 for x in c if x == 0))


def _window_pmf(
    P: np.ndarray,
    states: Sequence[Configuration],
    initial: Iterable[int],
    rounds: int,
    stat,
    fold,
    init_value: int,
    fault_rounds: Sequence[int],
    F: np.ndarray | None,
    fold_fault_configs: bool,
) -> Tuple[np.ndarray, np.ndarray]:
    """DP over ``(state, running statistic)`` pairs — shared window engine."""
    if rounds < 1:
        raise ConfigurationError(f"window statistics need rounds >= 1, got {rounds}")
    faulty = set(int(t) for t in fault_rounds)
    if faulty and F is None:
        raise ConfigurationError("fault_rounds given without an adversary matrix")
    index = state_index(states)
    key = tuple(int(x) for x in initial)
    if key not in index:
        raise ConfigurationError(
            f"initial configuration {key} is not a state of the chain"
        )
    stat_of = [int(stat(s)) for s in states]
    dist: Dict[Tuple[int, int], float] = {(index[key], init_value): 1.0}
    for t in range(1, rounds + 1):
        if t in faulty:
            injected: Dict[Tuple[int, int], float] = {}
            for (i, acc), p in dist.items():
                for j in np.flatnonzero(F[i] > 0):
                    j = int(j)
                    nxt = fold(acc, stat_of[j]) if fold_fault_configs else acc
                    k = (j, nxt)
                    injected[k] = injected.get(k, 0.0) + p * float(F[i, j])
            dist = injected
        stepped: Dict[Tuple[int, int], float] = {}
        for (i, acc), p in dist.items():
            for j in np.flatnonzero(P[i] > 0):
                j = int(j)
                k = (j, fold(acc, stat_of[j]))
                stepped[k] = stepped.get(k, 0.0) + p * float(P[i, j])
        dist = stepped
    acc_pmf: Dict[int, float] = {}
    for (_i, acc), p in dist.items():
        acc_pmf[acc] = acc_pmf.get(acc, 0.0) + p
    values = np.array(sorted(acc_pmf), dtype=np.int64)
    probs = np.array([acc_pmf[v] for v in values], dtype=float)
    return values, probs


def window_max_pmf(
    P: np.ndarray,
    states: Sequence[Configuration],
    initial: Iterable[int],
    rounds: int,
    fault_rounds: Sequence[int] = (),
    F: np.ndarray | None = None,
    seed_from_initial: bool | None = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact distribution of the engine's ``max_load_seen`` window statistic.

    Fault-free runs fold post-step configurations starting from ``0``
    (the ``run_window`` convention).  Faulty runs seed the accumulator
    from the initial configuration and additionally fold each injected
    configuration, matching the faulty process on both counts.
    ``seed_from_initial`` overrides that convention for runners that
    never seed from it (the scenario interpreter).
    """
    initial = tuple(int(x) for x in initial)
    faulty = bool(list(fault_rounds))
    if seed_from_initial is None:
        seed_from_initial = faulty
    init_value = max(initial) if seed_from_initial else 0
    return _window_pmf(
        P,
        states,
        initial,
        rounds,
        stat=max,
        fold=max,
        init_value=init_value,
        fault_rounds=fault_rounds,
        F=F,
        fold_fault_configs=faulty,
    )


def window_min_empty_pmf(
    P: np.ndarray,
    states: Sequence[Configuration],
    initial: Iterable[int],
    rounds: int,
    fault_rounds: Sequence[int] = (),
    F: np.ndarray | None = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact distribution of ``min_empty_bins_seen``.

    Starts at ``n`` and folds post-step configurations only — injected
    fault configurations are deliberately *not* folded, matching the
    faulty process.
    """
    initial = tuple(int(x) for x in initial)
    n_bins = len(next(iter(states)))
    return _window_pmf(
        P,
        states,
        initial,
        rounds,
        stat=lambda c: sum(1 for x in c if x == 0),
        fold=min,
        init_value=n_bins,
        fault_rounds=fault_rounds,
        F=F,
        fold_fault_configs=False,
    )


def adversary_matrix(
    name: str, states: Sequence[Configuration]
) -> np.ndarray:
    """Exact reassignment kernel of a named adversary over the state space.

    Supported: ``concentrate`` (all balls to a uniformly random bin),
    ``pyramid`` (deterministic geometric pile), ``shuffle`` (uniformly
    random permutation of bin labels).  ``target_heaviest`` is excluded:
    its batch implementation resolves argmax/argsort ties in
    implementation-defined order, so it has no clean exact kernel.
    """
    index = state_index(states)
    n = len(next(iter(states)))
    F = np.zeros((len(states), len(states)))
    for i, config in enumerate(states):
        total = sum(config)
        if name == "concentrate":
            for target in range(n):
                out = [0] * n
                out[target] = total
                F[i, index[tuple(out)]] += 1.0 / n
        elif name == "pyramid":
            out = tuple(
                int(x) for x in LoadConfiguration.pyramid(n, total).as_array()
            )
            F[i, index[out]] += 1.0
        elif name == "shuffle":
            # new[k] = old[perm[k]] over all n! uniform permutations
            weight = 1.0 / math.factorial(n)
            for perm in itertools.permutations(range(n)):
                out = tuple(config[p] for p in perm)
                F[i, index[out]] += weight
        else:
            raise ConfigurationError(
                f"no exact kernel for adversary {name!r}; "
                "supported: concentrate, pyramid, shuffle"
            )
    return F
