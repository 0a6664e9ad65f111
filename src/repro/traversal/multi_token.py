"""Multi-token traversal on the clique (Corollary 1).

``n`` tokens (one per resource/task) start from an arbitrary assignment to
the ``n`` nodes and perform parallel random walks, with every node releasing
at most one token per round (FIFO by default).  The protocol completes when
every token has visited every node; Corollary 1 states the cover time is
``O(n log^2 n)`` w.h.p., a single logarithmic factor above the single-token
baseline.

The implementation delegates the process dynamics to
:class:`~repro.core.token_process.TokenRepeatedBallsIntoBins` (the
``R == 1`` view of :class:`~repro.core.token_process.BatchedTokens`) with
visit tracking enabled and its cover stop, and layers the
traversal-specific bookkeeping (time-outs, per-token cover times,
normalized cover statistics) on top.  Without tokens nothing is left to
cover: the traversal completes at round 0 and stops after one round.
Experiment E8 runs its trials as the replicas of one ``BatchedTokens``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ..core.config import LoadConfiguration
from ..core.queueing import QueueDiscipline
from ..core.token_process import TokenRepeatedBallsIntoBins
from ..errors import ConfigurationError
from ..types import SeedLike

__all__ = ["MultiTokenTraversal", "TraversalResult"]


@dataclass
class TraversalResult:
    """Outcome of one multi-token traversal run.

    Attributes
    ----------
    n_nodes, n_tokens:
        Problem size.
    cover_time:
        Round at which the *last* token completed its traversal, or ``None``
        if the round budget was exhausted first.
    token_cover_times:
        Per-token completion rounds (-1 for tokens that did not finish).
    max_load_seen:
        Maximum node congestion observed during the run.
    rounds_simulated:
        Number of rounds actually simulated.
    completed:
        Whether every token covered every node within the budget.
    """

    n_nodes: int
    n_tokens: int
    cover_time: Optional[int]
    token_cover_times: np.ndarray
    max_load_seen: int
    rounds_simulated: int

    @property
    def completed(self) -> bool:
        return self.cover_time is not None

    @property
    def mean_token_cover_time(self) -> Optional[float]:
        """Mean per-token completion round (``None`` if any token timed out)."""
        if not self.completed:
            return None
        return float(self.token_cover_times.mean())

    def normalized_cover_time(self) -> Optional[float]:
        """Cover time divided by ``n log n`` — Corollary 1 predicts this grows
        like ``log n`` (up to constants), while a single token gives ~1."""
        if not self.completed:
            return None
        n = self.n_nodes
        return self.cover_time / (n * max(math.log(n), 1.0))


class MultiTokenTraversal:
    """Run the random-walk protocol for multi-token traversal on the clique.

    Parameters
    ----------
    n_nodes:
        Number of nodes (and, by default, tokens).
    n_tokens:
        Number of tokens; the paper's setting is ``n_tokens = n_nodes``.
    discipline:
        Queueing strategy at each node (default FIFO, as in Corollary 1).
    initial:
        Optional initial token placement as a load configuration.
    seed:
        Seed-like value.
    """

    def __init__(
        self,
        n_nodes: int,
        n_tokens: Optional[int] = None,
        discipline: Union[str, QueueDiscipline] = "fifo",
        initial: Union[LoadConfiguration, np.ndarray, None] = None,
        seed: SeedLike = None,
    ) -> None:
        if n_nodes < 1:
            raise ConfigurationError(f"n_nodes must be >= 1, got {n_nodes}")
        self._process = TokenRepeatedBallsIntoBins(
            n_bins=n_nodes,
            n_balls=n_tokens,
            discipline=discipline,
            initial=initial,
            track_visits=True,
            seed=seed,
        )

    # ------------------------------------------------------------------
    @property
    def process(self) -> TokenRepeatedBallsIntoBins:
        """The underlying token-level process (exposed for advanced metrics)."""
        return self._process

    @property
    def n_nodes(self) -> int:
        return self._process.n_bins

    @property
    def n_tokens(self) -> int:
        return self._process.n_balls

    def default_round_budget(self, safety_factor: float = 40.0) -> int:
        """A round budget of ``safety_factor * n log^2 n`` — comfortably above
        the Corollary 1 bound so that time-outs indicate a real anomaly."""
        n = self.n_nodes
        log_n = max(math.log(n), 1.0)
        return int(safety_factor * n * log_n * log_n) + 16

    def run(self, max_rounds: Optional[int] = None) -> TraversalResult:
        """Run until every token covered every node (or the budget runs out)."""
        budget = self.default_round_budget() if max_rounds is None else int(max_rounds)
        if budget < 0:
            raise ConfigurationError(f"max_rounds must be >= 0, got {budget}")
        result = self._process.run(budget, stop_when_covered=True)
        return TraversalResult(
            n_nodes=self.n_nodes,
            n_tokens=self.n_tokens,
            cover_time=result.cover_time,
            token_cover_times=(
                result.ball_cover_times
                if result.ball_cover_times is not None
                else np.full(self.n_tokens, -1, dtype=np.int64)
            ),
            max_load_seen=result.max_load_seen,
            rounds_simulated=result.rounds,
        )
