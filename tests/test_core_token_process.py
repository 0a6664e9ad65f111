"""Unit tests for repro.core.token_process (identity-tracking process)."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core.config import LoadConfiguration
from repro.core.token_process import BatchedTokens, TokenRepeatedBallsIntoBins
from repro.errors import ConfigurationError
from repro.traversal import MultiTokenTraversal


class TestConstruction:
    def test_default_placement_one_per_bin(self):
        process = TokenRepeatedBallsIntoBins(8, seed=0)
        assert process.n_balls == 8
        assert process.loads.tolist() == [1] * 8
        assert process.ball_bins.tolist() == list(range(8))

    def test_more_balls_than_bins_wraps_around(self):
        process = TokenRepeatedBallsIntoBins(4, n_balls=10, seed=0)
        assert process.n_balls == 10
        assert int(process.loads.sum()) == 10

    def test_initial_load_configuration(self):
        initial = LoadConfiguration.from_loads([3, 0, 1, 0])
        process = TokenRepeatedBallsIntoBins(4, initial=initial, seed=0)
        assert process.loads.tolist() == [3, 0, 1, 0]
        assert process.max_load == 3

    def test_inconsistent_ball_count_rejected(self):
        with pytest.raises(ConfigurationError):
            TokenRepeatedBallsIntoBins(
                4, n_balls=7, initial=LoadConfiguration.balanced(4), seed=0
            )

    def test_wrong_bin_count_rejected(self):
        with pytest.raises(ConfigurationError):
            TokenRepeatedBallsIntoBins(8, initial=LoadConfiguration.balanced(4), seed=0)

    def test_bad_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            TokenRepeatedBallsIntoBins(0)
        with pytest.raises(ConfigurationError):
            TokenRepeatedBallsIntoBins(4, n_balls=-1)

    def test_visit_tracking_off_by_default(self):
        process = TokenRepeatedBallsIntoBins(8, seed=0)
        assert process.visited_counts is None
        with pytest.raises(ConfigurationError):
            _ = process.cover_time


class TestDynamics:
    def test_conservation_and_consistency(self):
        process = TokenRepeatedBallsIntoBins(16, seed=1)
        for _ in range(100):
            loads = process.step()
            assert int(loads.sum()) == 16
            # loads always consistent with per-ball positions
            recomputed = np.bincount(process.ball_bins, minlength=16)
            assert np.array_equal(recomputed, loads)

    def test_deterministic_given_seed(self):
        a = TokenRepeatedBallsIntoBins(16, seed=5)
        b = TokenRepeatedBallsIntoBins(16, seed=5)
        for _ in range(30):
            a.step()
            b.step()
            assert np.array_equal(a.ball_bins, b.ball_bins)

    def test_moves_and_waiting_account_for_every_round(self):
        process = TokenRepeatedBallsIntoBins(8, n_balls=16, seed=2)
        rounds = 40
        process.run(rounds)
        # every ball is, in each round, either selected (a move) or waiting
        totals = process.moves + process.waiting_rounds
        assert np.all(totals == rounds)

    def test_moves_match_load_process_departures(self):
        process = TokenRepeatedBallsIntoBins(8, seed=3)
        total_departures = 0
        for _ in range(20):
            nonempty = int(np.count_nonzero(process.loads > 0))
            process.step()
            total_departures += nonempty
        assert int(process.moves.sum()) == total_departures

    def test_empty_system(self):
        process = TokenRepeatedBallsIntoBins(4, n_balls=0, seed=0)
        process.step()
        assert process.loads.tolist() == [0, 0, 0, 0]


class TestDisciplines:
    def test_fifo_order_respected_in_deterministic_scenario(self):
        # two balls in bin 0, nothing else; FIFO must move ball 0 first.
        initial = LoadConfiguration.from_loads([2, 0])
        process = TokenRepeatedBallsIntoBins(2, discipline="fifo", initial=initial, seed=0)
        process.step()
        assert process.moves[0] == 1
        assert process.moves[1] == 0

    def test_lifo_order_respected_in_deterministic_scenario(self):
        initial = LoadConfiguration.from_loads([2, 0])
        process = TokenRepeatedBallsIntoBins(2, discipline="lifo", initial=initial, seed=0)
        process.step()
        assert process.moves[1] == 1
        assert process.moves[0] == 0

    def test_smallest_id_starves_large_ids(self):
        initial = LoadConfiguration.from_loads([4, 0, 0, 0])
        process = TokenRepeatedBallsIntoBins(4, discipline="smallest_id", initial=initial, seed=0)
        process.step()
        assert process.moves[0] == 1
        assert process.moves[3] == 0

    @pytest.mark.parametrize("discipline", ["fifo", "lifo", "random", "smallest_id"])
    def test_all_disciplines_conserve_balls(self, discipline):
        process = TokenRepeatedBallsIntoBins(16, discipline=discipline, seed=7)
        result = process.run(50)
        assert int(process.loads.sum()) == 16
        assert result.rounds == 50

    def test_load_statistics_match_anonymous_process_in_distribution(self):
        """The token-level process must agree with the anonymous simulator on
        load statistics (same dynamics, different bookkeeping)."""
        from repro.core.process import RepeatedBallsIntoBins

        n = 64
        rounds = 200
        token_max = TokenRepeatedBallsIntoBins(n, seed=123).run(rounds).max_load_seen
        anon_max = RepeatedBallsIntoBins(n, seed=123).run(rounds).max_load_seen
        # not identical trajectories (different RNG consumption), but the same
        # order of magnitude: both should be well below 6 log n
        assert token_max <= 6 * np.log(n)
        assert anon_max <= 6 * np.log(n)


class TestCoverTracking:
    def test_cover_time_reached_for_tiny_system(self):
        process = TokenRepeatedBallsIntoBins(4, track_visits=True, seed=0)
        cover = process.run_until_covered(max_rounds=4000)
        assert cover is not None
        assert process.all_covered
        assert process.cover_time == cover
        assert np.all(process.visited_counts == 4)

    def test_visit_counts_monotone(self):
        process = TokenRepeatedBallsIntoBins(8, track_visits=True, seed=1)
        previous = process.visited_counts.copy()
        for _ in range(50):
            process.step()
            current = process.visited_counts
            assert np.all(current >= previous)
            previous = current.copy()

    def test_single_bin_system_trivially_covered(self):
        process = TokenRepeatedBallsIntoBins(1, track_visits=True, seed=0)
        assert process.all_covered
        assert process.cover_time == 0
        # a covered process still runs one round before its stop
        assert process.run(5, stop_when_covered=True).rounds == 1

    def test_no_balls_count_as_covered_at_round_zero(self):
        process = TokenRepeatedBallsIntoBins(4, n_balls=0, track_visits=True, seed=0)
        assert process.all_covered
        assert process.cover_time == 0
        result = process.run(5, stop_when_covered=True)
        assert (result.rounds, result.cover_time) == (1, 0)
        assert result.ball_cover_times.size == 0
        outcome = MultiTokenTraversal(4, n_tokens=0, seed=0).run(10)
        assert (outcome.cover_time, outcome.rounds_simulated) == (0, 1)

    def test_stop_when_covered_requires_tracking(self):
        process = TokenRepeatedBallsIntoBins(4, seed=0)
        with pytest.raises(ConfigurationError):
            process.run(10, stop_when_covered=True)

    def test_ball_cover_times_in_result(self):
        process = TokenRepeatedBallsIntoBins(4, track_visits=True, seed=2)
        result = process.run(4000, stop_when_covered=True)
        assert result.cover_time is not None
        assert result.ball_cover_times is not None
        assert int(result.ball_cover_times.max()) == result.cover_time
        assert np.all(result.ball_cover_times >= 0)


class TestRun:
    def test_negative_rounds_rejected(self):
        with pytest.raises(ConfigurationError):
            TokenRepeatedBallsIntoBins(4, seed=0).run(-1)

    def test_observer_sees_every_round(self):
        rounds_seen = []
        TokenRepeatedBallsIntoBins(8, seed=0).run(
            7, observers=lambda t, loads: rounds_seen.append(t)
        )
        assert rounds_seen == list(range(1, 8))

    def test_result_min_moves(self):
        process = TokenRepeatedBallsIntoBins(8, seed=0)
        result = process.run(30)
        assert result.min_moves == int(process.moves.min())
        assert result.max_load_seen >= 1

    def test_min_empty_seen_tracks_window_minimum(self):
        # start from all_in_one (15 empty bins) so the per-round tracking is
        # actually exercised: mixing *reduces* the empty count round by round
        initial = LoadConfiguration.all_in_one(16)
        process = TokenRepeatedBallsIntoBins(16, initial=initial, seed=3)
        seen = []
        result = process.run(
            40, observers=lambda t, loads: seen.append(int((loads == 0).sum()))
        )
        assert result.min_empty_seen == min([15] + seen)
        assert result.min_empty_seen < 15  # the seed alone is not the answer

    def test_min_empty_seen_seeded_from_current_state_zero_rounds(self):
        # the window-stat bug class fixed in PR 4/5: a zero-round call must
        # report the observed configuration, not the n_bins sentinel
        initial = LoadConfiguration.all_in_one(8)
        process = TokenRepeatedBallsIntoBins(8, initial=initial, seed=0)
        result = process.run(0)
        assert result.rounds == 0
        assert result.max_load_seen == 8
        assert result.min_empty_seen == 7

    def test_min_empty_seen_seeded_from_preloaded_state(self):
        # a second run() call starts its window from the mixed state the
        # first call left behind, never from the pristine constructor state
        process = TokenRepeatedBallsIntoBins(16, seed=9)
        process.run(30)
        start_empty = process.num_empty_bins
        start_max = process.max_load
        result = process.run(5)
        assert result.min_empty_seen <= start_empty
        assert result.max_load_seen >= start_max


class TestBatchedTokens:
    @pytest.mark.parametrize("R", [1, 3])
    def test_each_replica_freezes_at_its_cover_time(self, R):
        n, m = 4, 6
        process, twin = (
            BatchedTokens(n, R, n_balls=m, track_visits=True, seed=5)
            for _ in range(2)
        )
        seen = []

        def record(round_index, loads):
            books = (process.ball_bins, process.moves, process._stamp.reshape(R, m))
            seen.append([np.array(loads), *(np.array(b) for b in books)])

        result = process.run(2000, observers=record, stop_when_covered=True)
        covers = process.cover_times
        assert (covers > 0).all()
        assert result.rounds.tolist() == covers.tolist()
        assert process.rounds_completed.tolist() == covers.tolist()
        assert len(seen) == covers.max()
        for r, cover in enumerate(covers):
            # loads, ball books and stamps stay as the cover round left them
            frozen = seen[cover - 1]
            for later in seen[cover:]:
                assert all(np.array_equal(a[r], b[r]) for a, b in zip(later, frozen))
        # the twin runs without the stop; a round-by-round scan of its
        # visited counts finds each replica's cover round, and the twin
        # then freezes that replica by hand
        scanned = np.full(R, -1)
        while twin.active.any():
            twin.step()
            newly = twin.active & (twin.visited_counts == n).all(axis=1)
            scanned[newly] = twin.rounds_completed[newly]
            twin.deactivate(newly)
        assert scanned.tolist() == covers.tolist()

        state = (process.loads.copy(), process.ball_bins.copy(), process.moves.copy())
        pile = np.tile(LoadConfiguration.all_in_one(n, m).loads, (R, 1))
        for refused in (process.inject_loads, process.replace_loads):
            with pytest.raises(ConfigurationError):
                refused(pile)
            now = (process.loads, process.ball_bins, process.moves)
            assert all(np.array_equal(a, b) for a, b in zip(now, state))
        for start in (pile, None):
            process.reset(start)
            assert process.moves.sum() == 0
            for r in range(R):
                placed = np.bincount(process.ball_bins[r], minlength=n)
                assert np.array_equal(placed, process.loads[r])

    def test_unequal_ball_counts_are_refused(self):
        with pytest.raises(ConfigurationError, match="same number of balls"):
            BatchedTokens(3, 2, initial=np.array([[1, 1, 1], [2, 0, 0]]))


#: (n, m, start, rounds) of each pinned stream; ``rounds=None`` runs with
#: ``track_visits=True`` until every ball has visited every bin.
PINNED_SHAPES = {
    "n2_m2": (2, 2, None, 200),
    "n16_m40_all_in_one": (16, 40, "all_in_one", 200),
    "n37_m5": (37, 5, None, 200),
    "n64_covered": (64, 64, None, None),
}

#: SHA-256 of each (discipline, shape) stream, see ``_stream_digest``.
PINNED_STREAMS = {
    ("fifo", "n2_m2"): "743ba42f1acd578b430e9e26c36f3791abdee0dd90b92761b4263b4d5204e984",
    ("fifo", "n16_m40_all_in_one"): "04f8ae56696bf053308147b33fe2b74b261a8e97b01b1a510a7e83374a344b9b",
    ("fifo", "n37_m5"): "9813230c13dc22036c65f8ba18ff90e4f14b6da88d860c55e2dadc77364ce77b",
    ("fifo", "n64_covered"): "1acf4010963c48ce76f9ed72d5a816d9ebc51c21894db3bb2abd9fe2060ad647",
    ("lifo", "n2_m2"): "7f762446bc3f447cfba7bace3b36038ce44e59a34e724d295a71223a1b0e33c6",
    ("lifo", "n16_m40_all_in_one"): "749afce8e55109012d31e6342f40a87cc715e65e66633e2b62e9e27127d6abfe",
    ("lifo", "n37_m5"): "19b31724f029fe01ba8d98629e41aede7938ba56996f4777b4d7a36e0d5bacb1",
    ("lifo", "n64_covered"): "8b8bc60e06b92f3adfe40910e8631ac43be5717cee1b794c810c8f9a6af23ff9",
    ("random", "n2_m2"): "c4c738a8c250e64c09e61f2037d671f7d60be664b0139bae2f95def3b308ecc7",
    ("random", "n16_m40_all_in_one"): "75e9acca06804c5605ecd73c485ae4b7b2af8ea35efdc4b55750f84497a564ad",
    ("random", "n37_m5"): "7d7f023fe95c32bc964eec10916e990281b4d5cff8c9e99d354269f54e04dab2",
    ("random", "n64_covered"): "a23abf25ba1f64969f905630dc122d71c4bdbc80cef8e763a5144695a6841b74",
    ("smallest_id", "n2_m2"): "0af491e4b2378175800fc306240575ae59e08e05a68746b074ac64b8cecb8a58",
    ("smallest_id", "n16_m40_all_in_one"): "f51a104211739facc85c43e1fd771061be3c1f0e18ba6b9718769613fa5007dc",
    ("smallest_id", "n37_m5"): "728345f6b5e7ca69a19b9379040322cf06cc20892244464f3e2f9b40b5e03db3",
    ("smallest_id", "n64_covered"): "4e58e8697edd94ce96e5fec266fbd2b243c68f8f8f3c93712e27826ede808346",
}


def _stream_digest(discipline, shape):
    """SHA-256 of a run's per-ball state, loads, cover times and the state
    of the ``Generator`` passed in as ``seed``."""
    n, m, start, rounds = PINNED_SHAPES[shape]
    rng = np.random.default_rng(2024)
    initial = LoadConfiguration.all_in_one(n, m) if start == "all_in_one" else None
    track = rounds is None
    process = TokenRepeatedBallsIntoBins(
        n, n_balls=m, discipline=discipline, initial=initial,
        track_visits=track, seed=rng,
    )
    result = process.run(100_000 if track else rounds, stop_when_covered=track)
    arrays = [process.ball_bins, process.moves, process.waiting_rounds, process.loads]
    if track:
        assert result.cover_time is not None
        arrays.append(result.ball_cover_times)
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype="<i8").tobytes())
    digest.update(json.dumps(rng.bit_generator.state, sort_keys=True).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("discipline, shape", sorted(PINNED_STREAMS))
def test_stream_is_pinned(discipline, shape):
    """Which ball leaves each bin, where it goes and every draw made for it
    stay the same across rewrites of the step."""
    assert _stream_digest(discipline, shape) == PINNED_STREAMS[discipline, shape]
