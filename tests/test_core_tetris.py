"""Unit tests for repro.core.tetris (Tetris process and leaky bins)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import LoadConfiguration
from repro.core.tetris import BatchedTetris, ProbabilisticTetris, TetrisProcess
from repro.errors import ConfigurationError


class TestTetrisConstruction:
    def test_default_arrivals_three_quarters(self):
        tetris = TetrisProcess(100, seed=0)
        assert tetris.arrivals_per_round == 75

    def test_default_arrivals_floor(self):
        tetris = TetrisProcess(10, seed=0)
        assert tetris.arrivals_per_round == 7  # floor(30/4)

    def test_explicit_arrivals(self):
        tetris = TetrisProcess(10, arrivals_per_round=3, seed=0)
        assert tetris.arrivals_per_round == 3

    def test_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            TetrisProcess(0)
        with pytest.raises(ConfigurationError):
            TetrisProcess(10, arrivals_per_round=-1)
        with pytest.raises(ConfigurationError):
            TetrisProcess(8, initial=LoadConfiguration.balanced(4))

    def test_initial_configuration(self):
        tetris = TetrisProcess(8, initial=LoadConfiguration.all_in_one(8), seed=0)
        assert tetris.max_load == 8


class TestTetrisDynamics:
    def test_total_balls_follow_departures_and_arrivals(self):
        tetris = TetrisProcess(40, seed=1)
        for _ in range(20):
            before = int(tetris.loads.sum())
            nonempty = int(np.count_nonzero(tetris.loads > 0))
            after = int(tetris.step().sum())
            assert after == before - nonempty + tetris.arrivals_per_round

    def test_loads_stay_non_negative(self):
        tetris = TetrisProcess(32, seed=2)
        for _ in range(100):
            assert int(tetris.step().min()) >= 0

    def test_deterministic_given_seed(self):
        a = TetrisProcess(32, seed=9)
        b = TetrisProcess(32, seed=9)
        for _ in range(30):
            assert np.array_equal(a.step(), b.step())

    def test_zero_arrivals_drains_the_system(self):
        tetris = TetrisProcess(8, arrivals_per_round=0, initial=LoadConfiguration.balanced(8), seed=0)
        tetris.step()
        assert int(tetris.loads.sum()) == 0

    def test_reset(self):
        tetris = TetrisProcess(8, seed=0)
        tetris.run(10)
        tetris.reset()
        assert tetris.round_index == 0
        assert tetris.loads.tolist() == [1] * 8
        tetris.reset(LoadConfiguration.all_in_one(8))
        assert tetris.max_load == 8
        with pytest.raises(ConfigurationError):
            tetris.reset(LoadConfiguration.balanced(3))


class TestTetrisRun:
    def test_result_fields(self):
        tetris = TetrisProcess(64, seed=0)
        result = tetris.run(50)
        assert result.rounds == 50
        assert result.max_load_seen >= 1
        assert result.final_configuration.n_bins == 64

    def test_negative_rounds_rejected(self):
        with pytest.raises(ConfigurationError):
            TetrisProcess(8, seed=0).run(-1)

    def test_all_bins_emptied_within_5n_from_all_in_one(self):
        # Lemma 4 at small scale: from the worst start every bin empties within 5n rounds
        n = 128
        tetris = TetrisProcess(n, initial=LoadConfiguration.all_in_one(n), seed=3)
        result = tetris.run(5 * n)
        assert result.all_bins_emptied_by is not None
        assert result.all_bins_emptied_by <= 5 * n

    def test_all_bins_emptied_none_when_budget_too_small(self):
        n = 64
        tetris = TetrisProcess(n, initial=LoadConfiguration.all_in_one(n), seed=3)
        result = tetris.run(2)
        assert result.all_bins_emptied_by is None

    def test_initially_empty_bins_count_as_emptied_at_round_zero(self):
        initial = LoadConfiguration.from_loads([4, 0, 0, 0])
        tetris = TetrisProcess(4, arrivals_per_round=0, initial=initial, seed=0)
        result = tetris.run(6)
        assert result.all_bins_emptied_by is not None
        # bin 0 needs 4 rounds to drain; the others were empty from the start
        assert result.all_bins_emptied_by == 4

    @pytest.mark.parametrize("start", ["balanced", "all_in_one", "pyramid"])
    @pytest.mark.parametrize("arrivals", [None, 32])
    def test_all_bins_emptied_by_matches_a_per_round_scan(self, start, arrivals):
        n = 32
        initial = getattr(LoadConfiguration, start)(n)
        tetris = TetrisProcess(n, arrivals_per_round=arrivals, initial=initial, seed=5)
        for rounds in (7, 0, 3, 40, 400):
            # the reference: every round, each bin's first empty round
            first = np.where(tetris.loads == 0, 0, -1)

            def scan(t, loads):
                first[(first < 0) & (np.ravel(loads) == 0)] = t

            result = tetris.run(rounds, observers=scan)
            expected = int(first.max()) if np.all(first >= 0) else None
            assert result.all_bins_emptied_by == expected

    def test_max_load_stays_logarithmic(self):
        # Lemma 6 at small scale
        n = 512
        tetris = TetrisProcess(n, seed=4)
        result = tetris.run(4 * n)
        assert result.max_load_seen <= 6 * np.log(n)

    def test_observer_invoked(self):
        calls = []
        TetrisProcess(16, seed=0).run(5, observers=lambda t, loads: calls.append(t))
        assert calls == [1, 2, 3, 4, 5]


class TestProbabilisticTetris:
    def test_lambda_validation(self):
        with pytest.raises(ConfigurationError):
            ProbabilisticTetris(8, lam=1.5)
        with pytest.raises(ConfigurationError):
            ProbabilisticTetris(8, lam=-0.1)

    def test_lambda_zero_never_adds_balls(self):
        process = ProbabilisticTetris(8, lam=0.0, initial=LoadConfiguration.balanced(8), seed=0)
        process.step()
        assert int(process.loads.sum()) == 0

    def test_lambda_property(self):
        assert ProbabilisticTetris(8, lam=0.25, seed=0).lam == 0.25

    def test_arrivals_are_binomial_mean(self):
        n = 200
        lam = 0.5
        process = ProbabilisticTetris(n, lam=lam, initial=LoadConfiguration.balanced(n), seed=5)
        totals = []
        for _ in range(300):
            before = int(process.loads.sum())
            nonempty = int(np.count_nonzero(process.loads > 0))
            after = int(process.step().sum())
            totals.append(after - before + nonempty)  # this round's arrival count
        mean_arrivals = float(np.mean(totals))
        assert abs(mean_arrivals - lam * n) < 0.1 * n

    def test_subcritical_rate_keeps_load_bounded(self):
        n = 256
        process = ProbabilisticTetris(n, lam=0.5, seed=6)
        result = process.run(4 * n)
        assert result.max_load_seen <= 8 * np.log(n)


class TestBatchedTetris:
    @pytest.mark.parametrize("R", [1, 3])
    @pytest.mark.parametrize(
        "rule, overflowing",
        [
            ({"arrivals_per_round": 5}, {"arrivals_per_round": 2}),
            ({"lam": 0.6}, {"lam": 1.0}),
        ],
        ids=["fixed", "binomial"],
    )
    def test_rows_move_by_arrivals_minus_departures(self, R, rule, overflowing):
        n = 8
        initial = LoadConfiguration.pyramid(n)
        process = BatchedTetris(
            n, R, initial=initial, seed=np.random.default_rng(3), **rule
        )
        replay = np.random.default_rng(3)  # the rule's draws, one round at a time
        active = np.ones(R, dtype=bool)
        for step in range(40):
            if step == 20:  # a frozen row neither loses nor gains balls
                active[-1] = False
                process.deactivate(~active)
            if "lam" in rule:
                arrivals = replay.binomial(n, rule["lam"], size=R)
            else:
                arrivals = np.full(R, rule["arrivals_per_round"])
            arrivals *= active
            replay.integers(0, n, size=int(arrivals.sum()))
            before = process.loads.astype(np.int64)
            after = process.step().astype(np.int64)
            thrown = after - before + ((before > 0) & active[:, None])
            assert thrown.min() >= 0
            assert thrown.sum(axis=1).tolist() == arrivals.tolist()
            assert process.n_balls.tolist() == after.sum(axis=1).tolist()
        process.run(20)  # the window's open conservation check holds

        # one ball departs and two arrive: the row would hold 2**31 - 1
        limit = 2**31 - 1
        big = BatchedTetris(
            2, R, initial=[limit - 1, 0], seed=np.random.default_rng(4), **overflowing
        )
        loads, balls = big.loads.copy(), big.n_balls
        with pytest.raises(ConfigurationError, match="does not fit"):
            big.step()
        assert np.array_equal(big.loads, loads)
        assert np.array_equal(big.n_balls, balls)
        assert big.rounds_completed.tolist() == [0] * R
