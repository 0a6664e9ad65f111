"""Unit tests for repro.baselines (one-shot, d-choices, independent throws)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.baselines.birth_death import IndependentThrowsProcess, sqrt_t_envelope
from repro.baselines.d_choices import (
    DChoicesProcess,
    one_shot_d_choices_max_load,
    theoretical_d_choices_max_load,
)
from repro.baselines.one_shot import (
    one_shot_empty_fraction,
    one_shot_max_load,
    one_shot_max_load_trials,
    theoretical_one_shot_max_load,
)
from repro.core.config import LoadConfiguration
from repro.errors import ConfigurationError


class TestOneShot:
    def test_max_load_at_least_ceiling_of_mean(self):
        assert one_shot_max_load(100, seed=0) >= 1
        assert one_shot_max_load(4, n_balls=100, seed=0) >= 25

    def test_zero_balls(self):
        assert one_shot_max_load(10, n_balls=0, seed=0) == 0

    def test_reproducible(self):
        assert one_shot_max_load(256, seed=5) == one_shot_max_load(256, seed=5)

    def test_trials_vector(self):
        trials = one_shot_max_load_trials(128, trials=20, seed=0)
        assert trials.shape == (20,)
        assert np.all(trials >= 1)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            one_shot_max_load(0)
        with pytest.raises(ConfigurationError):
            one_shot_max_load(4, n_balls=-1)
        with pytest.raises(ConfigurationError):
            one_shot_max_load_trials(4, trials=-1)

    def test_empty_fraction_near_one_over_e(self):
        fractions = [one_shot_empty_fraction(1000, seed=s) for s in range(20)]
        assert abs(float(np.mean(fractions)) - math.exp(-1.0)) < 0.03

    def test_theoretical_prediction_monotone(self):
        small = theoretical_one_shot_max_load(64)
        large = theoretical_one_shot_max_load(2**20)
        assert large > small > 1.0
        assert theoretical_one_shot_max_load(2) == 1.0
        with pytest.raises(ConfigurationError):
            theoretical_one_shot_max_load(0)

    def test_measured_tracks_theory_direction(self):
        # the one-shot maximum at n = 4096 exceeds the one at n = 64 on average
        small = one_shot_max_load_trials(64, trials=30, seed=1).mean()
        large = one_shot_max_load_trials(4096, trials=30, seed=1).mean()
        assert large > small


class TestDChoices:
    def test_one_shot_two_choices_beats_one_choice(self):
        n = 2048
        one = np.mean([one_shot_max_load(n, seed=s) for s in range(10)])
        two = np.mean([one_shot_d_choices_max_load(n, d=2, seed=s) for s in range(10)])
        assert two < one

    def test_one_shot_d1_equivalent_to_plain(self):
        # d=1 is plain balls-into-bins (same distribution; just sanity-check range)
        value = one_shot_d_choices_max_load(256, d=1, seed=0)
        assert 1 <= value <= 20

    def test_zero_balls(self):
        assert one_shot_d_choices_max_load(8, d=2, n_balls=0, seed=0) == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            one_shot_d_choices_max_load(0)
        with pytest.raises(ConfigurationError):
            one_shot_d_choices_max_load(8, d=0)
        with pytest.raises(ConfigurationError):
            one_shot_d_choices_max_load(8, n_balls=-2)

    def test_theoretical_prediction(self):
        assert theoretical_d_choices_max_load(2**16, d=2) < theoretical_one_shot_max_load(2**16)
        with pytest.raises(ConfigurationError):
            theoretical_d_choices_max_load(8, d=1)

    def test_repeated_process_conserves_balls(self):
        process = DChoicesProcess(32, d=2, seed=0)
        for _ in range(50):
            assert int(process.step().sum()) == 32

    def test_repeated_process_run(self):
        process = DChoicesProcess(64, d=2, seed=1)
        result = process.run(100)
        assert result.rounds == 100
        assert result.max_load_seen <= 6 * np.log(64)
        assert process.is_legitimate()

    def test_repeated_d1_matches_original_statistics(self):
        from repro.core.process import RepeatedBallsIntoBins

        n = 64
        d1 = DChoicesProcess(n, d=1, seed=2).run(200).max_load_seen
        rbb = RepeatedBallsIntoBins(n, seed=3).run(200).max_load_seen
        assert abs(d1 - rbb) <= 4

    def test_repeated_two_choices_not_worse_than_one(self):
        n = 128
        rounds = 4 * n
        two = DChoicesProcess(n, d=2, seed=4).run(rounds).max_load_seen
        one = DChoicesProcess(n, d=1, seed=4).run(rounds).max_load_seen
        assert two <= one

    def test_construction_validation(self):
        with pytest.raises(ConfigurationError):
            DChoicesProcess(0)
        with pytest.raises(ConfigurationError):
            DChoicesProcess(8, d=0)
        with pytest.raises(ConfigurationError):
            DChoicesProcess(8, initial=LoadConfiguration.balanced(4))
        with pytest.raises(ConfigurationError):
            DChoicesProcess(8, n_balls=-1)
        with pytest.raises(ConfigurationError, match="contradicts"):
            DChoicesProcess(8, n_balls=5, initial=LoadConfiguration.all_in_one(8))
        with pytest.raises(ConfigurationError):
            DChoicesProcess(8, seed=0).run(-1)


class TestIndependentThrows:
    def test_sqrt_envelope(self):
        assert sqrt_t_envelope(0) == 0.0
        assert sqrt_t_envelope(16) == pytest.approx(4.0)
        assert sqrt_t_envelope(16, constant=2.0) == pytest.approx(8.0)
        with pytest.raises(ConfigurationError):
            sqrt_t_envelope(-1)

    def test_default_arrivals_equal_n(self):
        process = IndependentThrowsProcess(32, seed=0)
        assert process.loads.tolist() == [1] * 32

    def test_loads_non_negative(self):
        process = IndependentThrowsProcess(32, seed=1)
        for _ in range(100):
            assert int(process.step().min()) >= 0

    def test_run_result(self):
        process = IndependentThrowsProcess(64, seed=2)
        result = process.run(50)
        assert result.rounds == 50
        assert result.max_load_seen >= 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            IndependentThrowsProcess(0)
        with pytest.raises(ConfigurationError):
            IndependentThrowsProcess(8, arrivals_per_round=-1)
        with pytest.raises(ConfigurationError):
            IndependentThrowsProcess(8, initial=LoadConfiguration.balanced(4))
        with pytest.raises(ConfigurationError):
            IndependentThrowsProcess(8, seed=0).run(-1)

    def test_zero_drift_grows_faster_than_rbb_over_long_windows(self):
        """The E11 phenomenon at test scale: over a long window the zero-drift
        surrogate reaches visibly higher maxima than the real process."""
        from repro.core.process import RepeatedBallsIntoBins

        n = 128
        rounds = 40 * n
        surrogate = IndependentThrowsProcess(n, seed=3).run(rounds).max_load_seen
        rbb = RepeatedBallsIntoBins(n, seed=3).run(rounds).max_load_seen
        assert surrogate > rbb
