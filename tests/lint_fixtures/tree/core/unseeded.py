"""R1 bait: unseeded / global-state randomness."""

import random

import numpy as np


def draw():
    rng = np.random.default_rng()  # line 9: R1 (unseeded)
    np.random.seed(1234)  # line 10: R1 (global state, even seeded)
    return rng.integers(0, 10), random.random()  # line 11: R1 (stdlib)


def seeded_is_fine(seed):
    return np.random.default_rng(seed).integers(0, 10)


def children(seq):
    return seq.spawn(2)  # line 19: R1 (spawn outside the seeding module)
