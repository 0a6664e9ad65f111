"""Unit tests for repro.core.queueing (queue disciplines)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.queueing import (
    FIFODiscipline,
    LIFODiscipline,
    QueueDiscipline,
    RandomDiscipline,
    SmallestIDDiscipline,
    available_disciplines,
    get_discipline,
)
from repro.core.token_process import TokenRepeatedBallsIntoBins
from repro.errors import ConfigurationError


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestSelections:
    """``positions`` maps the queue lengths of the non-empty bins, in bin
    order, to the position of each bin's departing ball."""

    def test_fifo_selects_front(self, rng):
        assert FIFODiscipline().order == "arrival"
        assert FIFODiscipline().positions(np.array([3, 1, 5]), rng).tolist() == [0, 0, 0]

    def test_lifo_selects_back(self, rng):
        assert LIFODiscipline().order == "arrival"
        assert LIFODiscipline().positions(np.array([3, 1, 5]), rng).tolist() == [2, 0, 4]

    def test_lifo_single_element(self, rng):
        assert LIFODiscipline().positions(np.array([1]), rng).tolist() == [0]

    def test_random_in_range(self, rng):
        discipline = RandomDiscipline()
        assert discipline.order == "arrival"
        picks = discipline.positions(np.full(200, 5), rng)
        assert set(picks.tolist()) == set(range(5))  # all positions chosen

    def test_random_single_element_fast_path(self, rng):
        # a one-ball bin draws nothing; the others draw in bin order
        twin = np.random.default_rng(0)
        picks = RandomDiscipline().positions(np.array([1, 3, 1, 4]), rng)
        assert picks[[0, 2]].tolist() == [0, 0]
        assert picks[[1, 3]].tolist() == [int(twin.integers(0, 3)), int(twin.integers(0, 4))]
        assert rng.bit_generator.state == twin.bit_generator.state
        assert RandomDiscipline().positions(np.array([1, 1]), rng).tolist() == [0, 0]
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_smallest_id(self, rng):
        discipline = SmallestIDDiscipline()
        assert discipline.order == "id"
        assert discipline.positions(np.array([3, 1]), rng).tolist() == [0, 0]
        # in one bin every departing ball comes straight back to the end of
        # the arrival order; FIFO cycles through the balls, smallest-id
        # keeps taking ball 0
        for name, moves in (("fifo", [2, 2, 2]), ("smallest_id", [6, 0, 0])):
            process = TokenRepeatedBallsIntoBins(1, n_balls=3, discipline=name, seed=0)
            process.run(6)
            assert process.moves.tolist() == moves

    def test_disciplines_do_not_mutate_queue(self, rng):
        lengths = np.array([3, 1, 2])
        for discipline in (FIFODiscipline(), LIFODiscipline(), RandomDiscipline(), SmallestIDDiscipline()):
            picks = discipline.positions(lengths, rng)
            assert lengths.tolist() == [3, 1, 2]
            assert picks.dtype == np.int64
            assert np.all((0 <= picks) & (picks < lengths))


class TestRegistry:
    def test_available_names(self):
        names = available_disciplines()
        assert names == sorted(names)
        assert {"fifo", "lifo", "random", "smallest_id"} <= set(names)

    def test_get_by_name_case_insensitive(self):
        assert isinstance(get_discipline("FIFO"), FIFODiscipline)
        assert isinstance(get_discipline("lifo"), LIFODiscipline)

    def test_get_by_class(self):
        assert isinstance(get_discipline(RandomDiscipline), RandomDiscipline)

    def test_get_by_instance_passthrough(self):
        instance = SmallestIDDiscipline()
        assert get_discipline(instance) is instance

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            get_discipline("priority")

    def test_garbage_rejected(self):
        with pytest.raises(ConfigurationError):
            get_discipline(42)

    def test_all_registered_are_disciplines(self):
        for name in available_disciplines():
            assert isinstance(get_discipline(name), QueueDiscipline)
