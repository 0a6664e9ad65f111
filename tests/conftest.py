"""Shared pytest fixtures."""

from __future__ import annotations

import numpy as np
import pytest

from repro.parallel.seeding import trial_seed


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator for tests that need raw randomness."""
    return np.random.default_rng(12345)


@pytest.fixture(params=[8, 32, 64])
def small_n(request) -> int:
    """A selection of small system sizes exercised by parametrized tests."""
    return request.param


@pytest.fixture
def single_replica_rng():
    """``seed -> Generator``: the stream ``run_ensemble`` gives its only shard.

    Seeding a single-replica simulator with it reproduces an
    ``n_replicas=1``, ``kernel="numpy"`` ensemble stream for stream.
    """

    def make(seed) -> np.random.Generator:
        _, sim_seq = trial_seed(seed, 0).spawn(2)
        return np.random.default_rng(sim_seq)

    return make
