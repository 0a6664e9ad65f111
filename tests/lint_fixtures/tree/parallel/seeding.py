"""R1 exemption bait: this path is the one place allowed to seed."""

import numpy as np


def make_root():
    return np.random.default_rng()  # exempt: parallel/seeding.py


def children(seq):
    return seq.spawn(2)  # exempt: parallel/seeding.py
