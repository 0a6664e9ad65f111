"""Unit tests for repro.core.process (the repeated balls-into-bins simulator)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import LoadConfiguration
from repro.core.process import RepeatedBallsIntoBins
from repro.errors import ConfigurationError
from repro.metrics import BatchedEmptyBinsTracker, BatchedMaxLoadTracker


class TestConstruction:
    def test_default_balanced_start(self):
        process = RepeatedBallsIntoBins(10, seed=0)
        assert process.n_bins == 10
        assert process.n_balls == 10
        assert process.loads.tolist() == [1] * 10

    def test_custom_ball_count(self):
        process = RepeatedBallsIntoBins(10, n_balls=25, seed=0)
        assert process.n_balls == 25
        assert int(process.loads.sum()) == 25

    def test_initial_configuration(self):
        initial = LoadConfiguration.all_in_one(8)
        process = RepeatedBallsIntoBins(8, initial=initial, seed=0)
        assert process.max_load == 8

    def test_initial_as_plain_array(self):
        process = RepeatedBallsIntoBins(4, initial=np.array([4, 0, 0, 0]), seed=0)
        assert process.max_load == 4

    def test_inconsistent_initial_rejected(self):
        with pytest.raises(ConfigurationError):
            RepeatedBallsIntoBins(8, initial=LoadConfiguration.balanced(4), seed=0)
        with pytest.raises(ConfigurationError):
            RepeatedBallsIntoBins(4, n_balls=7, initial=LoadConfiguration.balanced(4), seed=0)

    def test_bad_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            RepeatedBallsIntoBins(0)
        with pytest.raises(ConfigurationError):
            RepeatedBallsIntoBins(4, n_balls=-1)

    def test_loads_view_is_read_only(self):
        process = RepeatedBallsIntoBins(4, seed=0)
        with pytest.raises(ValueError):
            process.loads[0] = 3


class TestDynamics:
    def test_ball_conservation_over_many_rounds(self):
        process = RepeatedBallsIntoBins(64, seed=1)
        for _ in range(200):
            loads = process.step()
            assert int(loads.sum()) == 64
            assert int(loads.min()) >= 0

    def test_round_counter_increments(self):
        process = RepeatedBallsIntoBins(8, seed=0)
        process.step()
        process.step()
        assert process.round_index == 2

    def test_deterministic_given_seed(self):
        a = RepeatedBallsIntoBins(32, seed=7)
        b = RepeatedBallsIntoBins(32, seed=7)
        for _ in range(50):
            assert np.array_equal(a.step(), b.step())

    def test_different_seeds_diverge(self):
        a = RepeatedBallsIntoBins(64, seed=1)
        b = RepeatedBallsIntoBins(64, seed=2)
        diverged = any(not np.array_equal(a.step(), b.step()) for _ in range(20))
        assert diverged

    def test_single_bin_system_is_fixed_point(self):
        process = RepeatedBallsIntoBins(1, seed=0)
        for _ in range(5):
            assert process.step().tolist() == [1]

    def test_empty_system_stays_empty(self):
        process = RepeatedBallsIntoBins(4, n_balls=0, seed=0)
        for _ in range(5):
            assert process.step().tolist() == [0, 0, 0, 0]

    def test_all_in_one_decreases_by_one_per_round_initially(self):
        n = 16
        process = RepeatedBallsIntoBins(n, initial=LoadConfiguration.all_in_one(n), seed=3)
        before = process.max_load
        process.step()
        # the congested bin loses exactly one ball and can gain at most a few
        assert process.loads[0] >= before - 1 - 3
        assert process.loads[0] <= before  # cannot gain more than it lost plus arrivals... sanity


class TestRun:
    def test_run_result_fields(self):
        process = RepeatedBallsIntoBins(32, seed=0)
        result = process.run(10)
        assert result.rounds == 10
        assert result.final_configuration.n_balls == 32
        assert result.max_load_seen >= 1
        assert 0 <= result.min_empty_bins_seen <= 32

    def test_run_zero_rounds(self):
        process = RepeatedBallsIntoBins(8, seed=0)
        result = process.run(0)
        assert result.rounds == 0
        assert result.final_configuration == process.configuration()

    def test_run_negative_rounds_rejected(self):
        process = RepeatedBallsIntoBins(8, seed=0)
        with pytest.raises(ConfigurationError):
            process.run(-1)

    def test_observers_called_every_round(self):
        process = RepeatedBallsIntoBins(16, seed=0)
        tracker = BatchedMaxLoadTracker()
        empties = BatchedEmptyBinsTracker()
        process.run(25, observers=[tracker, empties])
        assert tracker.rounds_observed == 25
        assert empties.rounds_observed == 25
        assert len(tracker.series) == 25
        assert tracker.rounds == list(range(1, 26))

    def test_callable_observer(self):
        seen = []
        process = RepeatedBallsIntoBins(8, seed=0)
        process.run(5, observers=lambda t, loads: seen.append(t))
        assert seen == [1, 2, 3, 4, 5]

    def test_stop_when_legitimate(self):
        n = 128
        process = RepeatedBallsIntoBins(n, initial=LoadConfiguration.all_in_one(n), seed=0)
        result = process.run(50 * n, stop_when_legitimate=True)
        assert result.first_legitimate_round is not None
        assert result.rounds == result.first_legitimate_round
        assert result.ended_legitimate

    def test_run_until_legitimate_returns_round(self):
        n = 128
        process = RepeatedBallsIntoBins(n, initial=LoadConfiguration.all_in_one(n), seed=0)
        hit = process.run_until_legitimate(max_rounds=50 * n)
        assert hit is not None
        assert hit <= 50 * n

    def test_run_until_legitimate_already_legitimate(self):
        process = RepeatedBallsIntoBins(64, seed=0)
        assert process.run_until_legitimate(max_rounds=10) == 0

    def test_run_until_legitimate_timeout(self):
        n = 4096
        process = RepeatedBallsIntoBins(n, initial=LoadConfiguration.all_in_one(n), seed=0)
        # a 3-round budget cannot possibly drain a bin with 4096 balls
        assert process.run_until_legitimate(max_rounds=3) is None


class TestReset:
    def test_reset_to_default(self):
        process = RepeatedBallsIntoBins(8, seed=0)
        process.run(5)
        process.reset()
        assert process.round_index == 0
        assert process.loads.tolist() == [1] * 8

    def test_reset_to_explicit_configuration(self):
        process = RepeatedBallsIntoBins(8, seed=0)
        process.reset(LoadConfiguration.all_in_one(8))
        assert process.max_load == 8
        assert process.n_balls == 8

    def test_reset_wrong_size_rejected(self):
        process = RepeatedBallsIntoBins(8, seed=0)
        with pytest.raises(ConfigurationError):
            process.reset(LoadConfiguration.balanced(4))

    def test_inject_loads_conserves_and_keeps_clock(self):
        process = RepeatedBallsIntoBins(8, seed=0)
        process.run(5)
        process.inject_loads(LoadConfiguration.all_in_one(8))
        assert process.max_load == 8
        assert process.round_index == 5  # unlike reset(), the clock runs on

    def test_inject_loads_rejects_nonconserving(self):
        process = RepeatedBallsIntoBins(8, seed=0)
        with pytest.raises(ConfigurationError, match="conserve"):
            process.inject_loads(LoadConfiguration.all_in_one(8, n_balls=9))
        with pytest.raises(ConfigurationError):
            process.inject_loads(LoadConfiguration.balanced(4))


class TestPaperBehaviour:
    """Statistical sanity checks tied to the paper's claims (small scale)."""

    def test_max_load_stays_moderate_from_balanced_start(self):
        n = 256
        process = RepeatedBallsIntoBins(n, seed=11)
        result = process.run(4 * n)
        # Theorem 1: O(log n); a window max above 6*log2(n) would be wildly off
        assert result.max_load_seen <= 6 * np.log(n)

    def test_empty_bins_exceed_quarter_after_first_round(self):
        n = 512
        process = RepeatedBallsIntoBins(n, seed=13)
        process.step()
        minimum_empty = n
        for _ in range(200):
            loads = process.step()
            minimum_empty = min(minimum_empty, int(np.count_nonzero(loads == 0)))
        assert minimum_empty >= n / 4

    def test_self_stabilizes_within_linear_time(self):
        n = 256
        process = RepeatedBallsIntoBins(n, initial=LoadConfiguration.all_in_one(n), seed=17)
        hit = process.run_until_legitimate(max_rounds=20 * n)
        assert hit is not None
        assert hit <= 5 * n
