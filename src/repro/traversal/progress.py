"""Per-token progress and delay statistics.

Theorem 1 implies that, under FIFO, every ball performs ``Omega(t / log n)``
steps of its own random walk over any window of ``t = poly(n)`` rounds
(because no ball ever waits more than the maximum load, which is
``O(log n)``).  These helpers turn the raw per-ball counters exposed by
:class:`~repro.core.token_process.TokenRepeatedBallsIntoBins` (one run,
the ``R == 1`` view of :class:`~repro.core.token_process.BatchedTokens`)
into summary quantities; ablation A1 reads each replica's minimum
progress from ``BatchedTokens.moves`` directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.token_process import TokenRepeatedBallsIntoBins
from ..errors import ConfigurationError

__all__ = ["ProgressStats", "progress_statistics"]


@dataclass
class ProgressStats:
    """Progress/delay summary after ``rounds`` rounds of a token process.

    Attributes
    ----------
    rounds:
        Number of rounds over which the statistics were accumulated.
    min_moves, mean_moves, max_moves:
        Per-ball random-walk step counts (progress).
    min_progress_rate:
        ``min_moves / rounds`` — the paper's guarantee is that this stays
        above ``c / log n`` for some constant ``c`` under FIFO.
    max_waiting_rounds:
        Largest total waiting time of any ball.
    progress_rate_times_log_n:
        ``min_progress_rate * log n``; Theorem 1 predicts this is bounded
        below by a constant as ``n`` grows.
    """

    rounds: int
    min_moves: int
    mean_moves: float
    max_moves: int
    min_progress_rate: float
    max_waiting_rounds: int
    progress_rate_times_log_n: float


def progress_statistics(process: TokenRepeatedBallsIntoBins) -> ProgressStats:
    """Compute :class:`ProgressStats` from a token-level process' counters."""
    rounds = process.round_index
    if rounds <= 0:
        raise ConfigurationError("progress statistics require at least one simulated round")
    moves = np.asarray(process.moves)
    waiting = np.asarray(process.waiting_rounds)
    if moves.size == 0:
        raise ConfigurationError("process has no balls")
    min_moves = int(moves.min())
    rate = min_moves / rounds
    log_n = max(math.log(process.n_bins), 1.0)
    return ProgressStats(
        rounds=rounds,
        min_moves=min_moves,
        mean_moves=float(moves.mean()),
        max_moves=int(moves.max()),
        min_progress_rate=rate,
        max_waiting_rounds=int(waiting.max()),
        progress_rate_times_log_n=rate * log_n,
    )
