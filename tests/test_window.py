"""The window rule of the numpy run loop, held against a per-round scan.

A batched process reduces a one-replica numpy window on Python ints
(``BatchedLoadProcess._run_one_replica``) and a wider one on vectors
(``run_window``).  Both must report what a scan of every executed round's
configuration gives: a twin process with the same seed records each
round through a stride-1 trace, and the window's max load, min empty-bin
count, first legitimate round, rounds run and observation rounds are
recomputed from those snapshots.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.d_choices import BatchedDChoices
from repro.core.batched import BatchedRepeatedBallsIntoBins, make_ensemble_initial
from repro.core.config import legitimacy_threshold
from repro.core.tetris import BatchedTetris
from repro.core.token_process import BatchedTokens
from repro.graphs import resolve_topology
from repro.graphs.batched import BatchedConstrainedWalks
from repro.metrics import BatchedTraceRecorder

FAMILIES = (
    "rbb", "greedy1", "greedy2", "cycle", "star", "tetris", "leaky",
    "tokens_fifo", "tokens_random",
)


def _process(family, n, R, initial, seed, constrained):
    if family == "rbb":
        return BatchedRepeatedBallsIntoBins(
            n, R, initial=initial, seed=seed, kernel="numpy"
        )
    if family.startswith("greedy"):
        return BatchedDChoices(
            n, R, d=int(family[-1]), initial=initial, seed=seed, kernel="numpy"
        )
    if family == "tetris":  # the fixed floor(3n/4) arrivals
        return BatchedTetris(n, R, initial=initial, seed=seed)
    if family == "leaky":  # Binomial(n, 0.7) arrivals
        return BatchedTetris(n, R, lam=0.7, initial=initial, seed=seed)
    if family.startswith("tokens"):
        return BatchedTokens(
            n, R, discipline=family[7:], initial=initial, seed=seed
        )
    return BatchedConstrainedWalks(
        resolve_topology(f"{family}:{n}"), R, initial=initial,
        constrained=constrained, seed=seed, kernel="numpy",
    )


def _scan(start, snapshots, start_round, threshold, stop):
    """The window of each replica, from its start and every round's state.

    ``snapshots`` is ``(T, R, n)``: the state after each iteration of the
    loop, frozen replicas included.  Returns ``(rounds, max_seen,
    min_empty, first_legit)`` vectors.
    """
    R = start.shape[0]
    rounds = np.zeros(R, dtype=np.int64)
    max_seen = start.max(axis=1)
    min_empty = (start == 0).sum(axis=1)
    first = np.full(R, -1, dtype=np.int64)
    for r in range(R):
        if stop and start[r].max() <= threshold:
            first[r] = start_round[r]  # the pre-check: no round runs
            continue
        maxes = snapshots[:, r].max(axis=1, initial=0)
        empties = (snapshots[:, r] == 0).sum(axis=1)
        ran = len(snapshots)
        legit = np.flatnonzero(maxes <= threshold)
        if legit.size:
            first[r] = start_round[r] + legit[0] + 1
            if stop:
                ran = legit[0] + 1
        rounds[r] = ran
        if ran:
            max_seen[r] = maxes[:ran].max()
            min_empty[r] = empties[:ran].min()
    return rounds, max_seen, min_empty, first


@settings(max_examples=144, deadline=None)  # about 16 per family
@given(
    family=st.sampled_from(FAMILIES),
    R=st.sampled_from([1, 2]),
    n=st.integers(1, 20),
    balls=st.integers(0, 3),
    start=st.sampled_from(["balanced", "all_in_one", "random_uniform"]),
    warmup=st.integers(0, 4),
    rounds=st.integers(0, 30),
    observe_every=st.integers(1, 7),
    stop=st.booleans(),
    beta=st.sampled_from([0.5, 1.0, 4.0]),
    constrained=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_window_equals_a_per_round_scan(
    family, R, n, balls, start, warmup, rounds, observe_every, stop, beta,
    constrained, seed,
):
    if family in ("cycle", "star"):
        n = max(n, 3)
    initial = make_ensemble_initial(start, n, R, n_balls=balls * n, seed=seed)
    process, twin = (
        _process(family, n, R, initial, seed, constrained) for _ in range(2)
    )
    for p in (process, twin):
        p.run(warmup)
    start_loads = process.loads.astype(np.int64)
    start_round = process.rounds_completed

    fired = BatchedTraceRecorder()
    window = process.advance_window(
        rounds, beta, stop, observers=fired, observe_every=observe_every
    )
    trace = BatchedTraceRecorder()
    twin.advance_window(rounds, beta, stop, observers=trace)

    snapshots = trace.as_matrix().reshape(-1, R, n)
    threshold = legitimacy_threshold(n, beta)
    expected = _scan(start_loads, snapshots, start_round, threshold, stop)
    assert window.rounds.tolist() == expected[0].tolist()
    assert window.max_load_seen.tolist() == expected[1].tolist()
    assert window.min_empty_bins_seen.tolist() == expected[2].tolist()
    assert window.first_legitimate_round.tolist() == expected[3].tolist()
    # observers fire every observe_every iterations and after the last
    last = len(snapshots)
    due = [i for i in range(1, last + 1) if i % observe_every == 0 or i == last]
    assert fired.snapshot_rounds == [trace.snapshot_rounds[i - 1] for i in due]
    for snapshot, i in zip(fired.snapshots, due):
        assert np.array_equal(snapshot, trace.snapshots[i - 1])
    assert np.array_equal(process.loads, twin.loads)
