"""Unit tests for repro.core.config (load configurations and legitimacy)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.config import DEFAULT_BETA, LoadConfiguration, legitimacy_threshold
from repro.errors import ConfigurationError


class TestLegitimacyThreshold:
    def test_scales_with_log_n(self):
        assert legitimacy_threshold(1024, beta=2.0) == pytest.approx(2.0 * math.log(1024))

    def test_clamped_for_tiny_n(self):
        # log(1) = 0 and log(2) < 1: the threshold never drops below beta
        assert legitimacy_threshold(1, beta=3.0) == pytest.approx(3.0)
        assert legitimacy_threshold(2, beta=3.0) == pytest.approx(3.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            legitimacy_threshold(0)
        with pytest.raises(ConfigurationError):
            legitimacy_threshold(10, beta=0.0)
        with pytest.raises(ConfigurationError):
            legitimacy_threshold(10, beta=-1.0)
        with pytest.raises(ConfigurationError):
            legitimacy_threshold(10, beta=float("nan"))

    def test_infinite_beta_is_allowed(self):
        assert legitimacy_threshold(10, beta=math.inf) == math.inf


class TestConstructionAndValidation:
    def test_from_list(self):
        config = LoadConfiguration.from_loads([0, 2, 1])
        assert config.n_bins == 3
        assert config.n_balls == 3
        assert config.max_load == 2
        assert config.min_load == 0

    def test_float_integer_values_accepted(self):
        config = LoadConfiguration(np.array([1.0, 2.0, 0.0]))
        assert config.n_balls == 3
        assert config.loads.dtype == np.int64

    def test_non_integer_rejected(self):
        with pytest.raises(ConfigurationError):
            LoadConfiguration(np.array([0.5, 1.5]))

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            LoadConfiguration(np.array([1, -1]))

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            LoadConfiguration(np.array([], dtype=np.int64))

    def test_two_dimensional_rejected(self):
        with pytest.raises(ConfigurationError):
            LoadConfiguration(np.zeros((2, 2), dtype=np.int64))

    def test_loads_are_immutable(self):
        config = LoadConfiguration.from_loads([1, 1])
        with pytest.raises(ValueError):
            config.loads[0] = 5

    def test_input_array_is_copied(self):
        source = np.array([1, 2, 3], dtype=np.int64)
        config = LoadConfiguration(source)
        source[0] = 99
        assert config[0] == 1

    def test_as_array_returns_writable_copy(self):
        config = LoadConfiguration.from_loads([1, 2])
        arr = config.as_array()
        arr[0] = 7
        assert config[0] == 1


class TestProperties:
    def test_counts(self):
        config = LoadConfiguration.from_loads([0, 0, 3, 1])
        assert config.num_empty_bins == 2
        assert config.num_nonempty_bins == 2
        assert config.empty_fraction == pytest.approx(0.5)

    def test_histogram(self):
        config = LoadConfiguration.from_loads([0, 0, 3, 1])
        hist = config.load_histogram()
        assert hist.tolist() == [2, 1, 0, 1]

    def test_legitimacy_predicate(self):
        n = 1024
        ok = LoadConfiguration.balanced(n)
        assert ok.is_legitimate()
        bad = LoadConfiguration.all_in_one(n)
        assert not bad.is_legitimate()

    def test_dunder_len_getitem_iter(self):
        config = LoadConfiguration.from_loads([2, 0, 1])
        assert len(config) == 3
        assert config[0] == 2
        assert list(config) == [2, 0, 1]

    def test_equality_and_hash(self):
        a = LoadConfiguration.from_loads([1, 2])
        b = LoadConfiguration.from_loads([1, 2])
        c = LoadConfiguration.from_loads([2, 1])
        assert a == b
        assert hash(a) == hash(b)
        assert a != c
        assert a != "not a configuration"


class TestCanonicalConstructors:
    def test_balanced_default_one_per_bin(self):
        config = LoadConfiguration.balanced(5)
        assert config.loads.tolist() == [1, 1, 1, 1, 1]

    def test_balanced_uneven(self):
        config = LoadConfiguration.balanced(4, 6)
        assert config.n_balls == 6
        assert config.max_load - config.min_load <= 1

    def test_all_in_one(self):
        config = LoadConfiguration.all_in_one(8, bin_index=3)
        assert config.n_balls == 8
        assert config[3] == 8
        assert config.num_empty_bins == 7

    def test_all_in_one_bad_bin(self):
        with pytest.raises(ConfigurationError):
            LoadConfiguration.all_in_one(4, bin_index=9)

    def test_random_uniform_conserves_balls(self):
        config = LoadConfiguration.random_uniform(100, seed=0)
        assert config.n_balls == 100
        # reproducible
        again = LoadConfiguration.random_uniform(100, seed=0)
        assert config == again

    def test_pyramid_shape(self):
        config = LoadConfiguration.pyramid(8)
        assert config.n_balls == 8
        assert config[0] >= config[1] >= config[2]

    def test_pyramid_with_many_balls(self):
        config = LoadConfiguration.pyramid(4, 100)
        assert config.n_balls == 100

    def test_legitimate_extreme_is_legitimate(self):
        n = 256
        config = LoadConfiguration.legitimate_extreme(n)
        assert config.n_balls == n
        assert config.is_legitimate(DEFAULT_BETA)
        # it should be near the boundary: max load within one of the threshold cap
        cap = int(legitimacy_threshold(n, DEFAULT_BETA))
        assert config.max_load >= cap - 1

    def test_constructors_reject_bad_counts(self):
        with pytest.raises(ConfigurationError):
            LoadConfiguration.balanced(0)
        with pytest.raises(ConfigurationError):
            LoadConfiguration.balanced(4, -1)
        with pytest.raises(ConfigurationError):
            LoadConfiguration.random_uniform(0)
