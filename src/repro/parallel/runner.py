"""Trial execution: in-process or multi-process.

The runner executes ``trial_fn(trial_index, seed_sequence, **kwargs)`` for
``n_trials`` independent trials.  The trial function must be picklable
(module-level) for process-pool execution; when parallelism was requested
but the function or its kwargs cannot be pickled, the runner falls back to
in-process execution and emits a ``RuntimeWarning`` (never silently).
Results are returned in trial order regardless of completion order.

Pool workers start from a ``forkserver`` context, never a plain ``fork``
of the caller: once the caller has run an OpenMP region on two or more
threads (a threaded native kernel), a forked child inherits libgomp's
thread-pool state without its threads and deadlocks in its next
parallel region.  The fork server preloads the modules trials run (the
ensemble engine and the experiment registry), so only the first pool of
a process pays for starting it and importing them.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional


from .seeding import trial_seeds
from ..errors import ConfigurationError
from ..types import SeedLike

__all__ = ["TrialRunner", "run_trials"]

TrialFunction = Callable[..., Any]


def _execute_trial(payload) -> Any:
    """Module-level worker entry point (must be picklable)."""
    trial_fn, trial_index, seed, kwargs = payload
    return trial_fn(trial_index, seed, **kwargs)


def _pool_context() -> multiprocessing.context.BaseContext:
    """The pool's start context: a fork server that has imported what trials run."""
    context = multiprocessing.get_context("forkserver")
    context.set_forkserver_preload(["repro.parallel.ensemble", "repro.experiments.registry"])
    return context


def _is_picklable(obj) -> bool:
    try:
        pickle.dumps(obj)
        return True
    except Exception:  # lint: allow-broad-except(a picklability probe must treat any failure as "not picklable")
        return False


@dataclass
class TrialRunner:
    """Run independent Monte-Carlo trials of a function.

    Parameters
    ----------
    n_workers:
        ``None`` or ``0`` → in-process execution; ``>= 1`` → a process pool
        with that many workers (capped at the CPU count).
    chunk_size:
        Number of trials submitted per pool task; larger chunks amortize
        inter-process overhead for fast trials.
    """

    n_workers: Optional[int] = None
    chunk_size: int = 1

    def __post_init__(self) -> None:
        if self.n_workers is not None and self.n_workers < 0:
            raise ConfigurationError(f"n_workers must be >= 0, got {self.n_workers}")
        if self.chunk_size < 1:
            raise ConfigurationError(f"chunk_size must be >= 1, got {self.chunk_size}")

    @property
    def effective_workers(self) -> int:
        """Resolved worker count (0 means run in-process)."""
        if not self.n_workers:
            return 0
        return min(self.n_workers, os.cpu_count() or 1)

    def run(
        self,
        trial_fn: TrialFunction,
        n_trials: int,
        seed: SeedLike = None,
        kwargs: Optional[Dict[str, Any]] = None,
    ) -> List[Any]:
        """Execute ``n_trials`` trials and return their results in order."""
        if n_trials < 0:
            raise ConfigurationError(f"n_trials must be >= 0, got {n_trials}")
        kwargs = dict(kwargs or {})
        seeds = trial_seeds(seed, n_trials)

        workers = self.effective_workers
        parallelism_requested = (self.n_workers or 0) > 1 and n_trials > 1
        picklable = True
        if parallelism_requested:
            unpicklable = [
                name
                for name, obj in (("trial_fn", trial_fn), ("kwargs", kwargs))
                if not _is_picklable(obj)
            ]
            if unpicklable:
                picklable = False
                warnings.warn(
                    f"TrialRunner: {' and '.join(unpicklable)} cannot be "
                    f"pickled; falling back to in-process execution despite "
                    f"n_workers={self.n_workers} (move the trial function to "
                    "module level to enable the process pool)",
                    RuntimeWarning,
                    stacklevel=2,
                )
        use_pool = workers > 1 and n_trials > 1 and picklable
        if not use_pool:
            return [trial_fn(i, seeds[i], **kwargs) for i in range(n_trials)]

        payloads = [(trial_fn, i, seeds[i], kwargs) for i in range(n_trials)]
        results: List[Any] = [None] * n_trials
        with ProcessPoolExecutor(max_workers=workers, mp_context=_pool_context()) as pool:
            for i, outcome in enumerate(
                pool.map(_execute_trial, payloads, chunksize=self.chunk_size)
            ):
                results[i] = outcome
        return results


def run_trials(
    trial_fn: TrialFunction,
    n_trials: int,
    seed: SeedLike = None,
    n_workers: Optional[int] = None,
    **kwargs,
) -> List[Any]:
    """Convenience wrapper around :class:`TrialRunner`.

    Extra keyword arguments are forwarded to every trial invocation.
    """
    runner = TrialRunner(n_workers=n_workers)
    return runner.run(trial_fn, n_trials, seed=seed, kwargs=kwargs)
