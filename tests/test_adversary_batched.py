"""Tests for batched adversarial fault injection.

The load-bearing invariant is the Section 4.1 constraint applied per
replica: however an adversary rewrites the ``(R, n)`` ensemble state, the
total number of balls of **every replica** must be conserved — by the
vectorized ``apply_batch`` reassignments themselves, and across whole
:class:`BatchedFaultyProcess` runs with repeated fault injection.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary import (
    Adversary,
    BatchedFaultyProcess,
    ConcentrateAdversary,
    FaultSchedule,
    FaultyProcess,
    available_adversaries,
    get_adversary,
)
from repro.baselines.d_choices import BatchedDChoices
from repro.core.batched import BatchedRepeatedBallsIntoBins, make_ensemble_initial
from repro.core.config import LoadConfiguration
from repro.core.native import native_available
from repro.errors import ConfigurationError

ALL_ADVERSARIES = available_adversaries()

KERNELS = [
    "numpy",
    pytest.param("native", marks=pytest.mark.skipif(
        not native_available(), reason="native kernel unavailable"
    )),
]


@pytest.fixture
def load_matrix() -> np.ndarray:
    rng = np.random.default_rng(123)
    # heterogeneous per-replica totals, including an all-empty replica
    matrix = rng.integers(0, 9, size=(8, 24)).astype(np.int64)
    matrix[3] = 0
    return matrix


# ----------------------------------------------------------------------
# apply_batch: per-replica ball conservation for every adversary
# ----------------------------------------------------------------------
class TestApplyBatch:
    @pytest.mark.parametrize("name", ALL_ADVERSARIES)
    def test_conserves_balls_per_replica(self, name, load_matrix):
        adversary = get_adversary(name)
        out = adversary.apply_batch(load_matrix, np.random.default_rng(0))
        assert out.shape == load_matrix.shape
        assert np.array_equal(out.sum(axis=1), load_matrix.sum(axis=1))
        assert (out >= 0).all()

    @pytest.mark.parametrize("name", ALL_ADVERSARIES)
    def test_rejects_non_matrix_input(self, name):
        adversary = get_adversary(name)
        with pytest.raises(ConfigurationError):
            adversary.apply_batch(np.ones(8, dtype=np.int64), np.random.default_rng(0))

    def test_concentrate_piles_everything_in_one_bin(self, load_matrix):
        out = get_adversary("concentrate").apply_batch(
            load_matrix, np.random.default_rng(1)
        )
        assert np.array_equal(out.max(axis=1), load_matrix.sum(axis=1))
        assert ((out > 0).sum(axis=1) <= 1).all()

    def test_shuffle_preserves_load_multiset_per_replica(self, load_matrix):
        out = get_adversary("shuffle").apply_batch(
            load_matrix, np.random.default_rng(2)
        )
        assert np.array_equal(np.sort(out, axis=1), np.sort(load_matrix, axis=1))

    def test_pyramid_rows_match_single_vector_form(self, load_matrix):
        out = get_adversary("pyramid").apply_batch(
            load_matrix, np.random.default_rng(3)
        )
        for replica in range(load_matrix.shape[0]):
            expected = LoadConfiguration.pyramid(
                load_matrix.shape[1], int(load_matrix[replica].sum())
            ).as_array()
            assert np.array_equal(out[replica], expected)

    def test_target_heaviest_moves_the_clipped_quota(self, load_matrix):
        adversary = get_adversary("target_heaviest")
        out = adversary.apply_batch(load_matrix, np.random.default_rng(4))
        for replica in range(load_matrix.shape[0]):
            row = load_matrix[replica]
            total = int(row.sum())
            target = int(row.argmax())
            quota = int(adversary.fraction * total)
            gain = min(quota, total - int(row[target]))
            assert int(out[replica, target]) == int(row[target]) + gain

    def test_default_batch_falls_back_to_rowwise_reassign(self, load_matrix):
        class ReverseAdversary(Adversary):
            name = "reverse"

            def reassign(self, loads, rng):
                return np.asarray(loads)[::-1]

        out = ReverseAdversary().apply_batch(load_matrix, np.random.default_rng(5))
        assert np.array_equal(out, load_matrix[:, ::-1])

    def test_batch_validation_catches_nonconserving_adversary(self, load_matrix):
        class BallEater(Adversary):
            name = "eater"

            def reassign(self, loads, rng):
                return np.zeros_like(np.asarray(loads))

        with pytest.raises(ConfigurationError, match="replica"):
            BallEater().apply_batch(load_matrix, np.random.default_rng(6))


# ----------------------------------------------------------------------
# BatchedFaultyProcess: conservation across faults, recovery bookkeeping
# ----------------------------------------------------------------------
class TestBatchedFaultyProcess:
    @pytest.mark.parametrize("name", ALL_ADVERSARIES)
    def test_ball_conservation_across_faults(self, name):
        initial = make_ensemble_initial("random_uniform", 32, 12, n_balls=48, seed=0)
        process = BatchedFaultyProcess(
            32,
            12,
            adversary=name,
            schedule=FaultSchedule(period=10),
            initial=initial,
            seed=1,
            kernel="numpy",
        )
        result = process.run(95)
        assert result.fault_rounds == [10, 20, 30, 40, 50, 60, 70, 80, 90]
        assert np.array_equal(result.final_loads.sum(axis=1), initial.sum(axis=1))
        # the invariant holds mid-run too (process state, not just the result)
        assert np.array_equal(process.process.loads.sum(axis=1), initial.sum(axis=1))

    @pytest.mark.parametrize("kernel", ["numpy", "auto"])
    def test_recovery_times_shape_and_range(self, kernel):
        process = BatchedFaultyProcess(
            64,
            10,
            adversary="concentrate",
            schedule=FaultSchedule(period=384),
            seed=2,
            kernel=kernel,
        )
        result = process.run(1152)
        assert result.fault_rounds == [384, 768, 1152]
        assert result.recovery_times.shape == (3, 10)
        assert result.n_faults == 3
        assert result.fault_count == 30
        recovered = result.flat_recoveries()
        assert (recovered >= 0).all()
        # a recovery is bounded by the gap to the next fault / end of run
        assert (recovered < 384).all()
        # concentrate spikes the full ball count, so the window max sees it
        assert (result.max_load_seen >= 64).all()

    def test_matches_sequential_faulty_process_distributionally(self):
        n, trials, rounds = 64, 40, 1536
        schedule = FaultSchedule(period=384)
        batched = BatchedFaultyProcess(
            n, trials, adversary="concentrate", schedule=schedule, seed=3,
            kernel="numpy",
        ).run(rounds)
        rng = np.random.default_rng(3)
        sequential = []
        for _ in range(trials):
            process = FaultyProcess(
                n, adversary="concentrate", schedule=schedule, seed=rng
            )
            sequential.extend(
                r for r in process.run(rounds).recovery_times if r >= 0
            )
        batched_mean = batched.flat_recoveries().mean()
        sequential_mean = float(np.mean(sequential))
        assert abs(batched_mean - sequential_mean) < 0.3 * sequential_mean + 2.0

    def test_no_faults_matches_plain_window_metrics(self):
        process = BatchedFaultyProcess(
            32, 6, schedule=FaultSchedule.never(), seed=4, kernel="numpy"
        )
        result = process.run(50)
        assert result.fault_rounds == []
        assert result.recovery_times.shape == (0, 6)
        assert result.n_faults == 0
        assert not result.all_recovered  # vacuously false with zero faults
        ensemble = result.to_ensemble_result()
        assert ensemble.max_load_seen.shape == (6,)
        assert (ensemble.rounds == 50).all()

    def test_explicit_fault_rounds(self):
        schedule = FaultSchedule(explicit_rounds=frozenset({5, 17}))
        process = BatchedFaultyProcess(
            16, 4, adversary="shuffle", schedule=schedule, seed=5, kernel="numpy"
        )
        result = process.run(30)
        assert result.fault_rounds == [5, 17]

    def test_wraps_custom_batched_process(self):
        inner = BatchedDChoices(16, 5, d=2, seed=6)
        process = BatchedFaultyProcess(
            16,
            5,
            adversary="concentrate",
            schedule=FaultSchedule(period=8),
            process=inner,
            seed=7,
        )
        result = process.run(40)
        assert result.fault_rounds == [8, 16, 24, 32, 40]
        assert np.array_equal(result.final_loads.sum(axis=1), np.full(5, 16))

    def test_process_shape_mismatch_rejected(self):
        inner = BatchedRepeatedBallsIntoBins(16, 5, seed=8, kernel="numpy")
        with pytest.raises(ConfigurationError):
            BatchedFaultyProcess(16, 6, process=inner)
        with pytest.raises(ConfigurationError):
            BatchedFaultyProcess(32, 5, process=inner)

    def test_with_gamma_period(self):
        process = BatchedFaultyProcess.with_gamma(32, 4, gamma=2.0, seed=9)
        assert process.schedule.period == 64
        with pytest.raises(ConfigurationError):
            BatchedFaultyProcess.with_gamma(32, 4, gamma=0.0)

    def test_negative_rounds_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchedFaultyProcess(8, 2, seed=10).run(-1)


# ----------------------------------------------------------------------
# inject_loads: the conservation gate faults pass through
# ----------------------------------------------------------------------
class TestInjectLoads:
    def test_accepts_conserving_matrix(self):
        batched = BatchedRepeatedBallsIntoBins(8, 3, seed=0, kernel="numpy")
        replacement = make_ensemble_initial("all_in_one", 8, 3)
        batched.inject_loads(replacement)
        assert np.array_equal(batched.loads, replacement)

    def test_rejects_nonconserving_matrix(self):
        batched = BatchedRepeatedBallsIntoBins(8, 3, seed=0, kernel="numpy")
        bad = make_ensemble_initial("all_in_one", 8, 3)
        bad[1, 0] += 1
        with pytest.raises(ConfigurationError, match="conserve"):
            batched.inject_loads(bad)

    def test_rejects_wrong_shape_and_negative(self):
        batched = BatchedRepeatedBallsIntoBins(8, 3, seed=0, kernel="numpy")
        with pytest.raises(ConfigurationError):
            batched.inject_loads(np.ones((2, 8), dtype=np.int64))
        bad = np.ones((3, 8), dtype=np.int64)
        bad[0, 0] = -1
        bad[0, 1] = 3
        with pytest.raises(ConfigurationError):
            batched.inject_loads(bad)

    def test_rejects_fractional_loads_even_when_sums_match(self):
        batched = BatchedRepeatedBallsIntoBins(8, 3, seed=0, kernel="numpy")
        fractional = np.ones((3, 8), dtype=float)
        fractional[0, 0] = 0.5
        fractional[0, 1] = 1.5  # row still sums to 8
        with pytest.raises(ConfigurationError, match="integer"):
            batched.inject_loads(fractional)
        # integral floats are fine
        batched.inject_loads(np.ones((3, 8), dtype=float))
        assert (batched.loads == 1).all()


# ----------------------------------------------------------------------
# A misbehaving adversary inside the wrapper: inject_loads is the one check
# ----------------------------------------------------------------------
class _Recorder(Adversary):
    """Remembers the state it was handed, then returns ``self.bad(loads)``."""

    name = "recorder"

    def reassign(self, loads, rng):
        raise AssertionError("the wrapper reassigns whole matrices")

    def reassign_batch(self, loads, rng):
        self.seen = np.array(loads, copy=True)
        return self.bad(self.seen.astype(np.int64))


class BallEater(_Recorder):
    @staticmethod
    def bad(loads):
        out = loads.copy()
        out[2] = 0  # replica 2 loses every ball
        return out


class NegativeLoad(_Recorder):
    @staticmethod
    def bad(loads):
        out = loads.copy()
        out[2, 0] = -1  # replica 2 keeps its total, with a negative bin
        out[2, 1] += loads[2, 0] + 1
        return out


class PileEater(ConcentrateAdversary):
    """A concentrate adversary whose own ``reassign_batch`` drops replica
    2's balls.  Overriding it keeps the faults out of the rbb kernel, so
    ``inject_loads`` checks each one."""

    def reassign_batch(self, loads, rng):
        self.seen = np.array(loads, copy=True)
        out = super().reassign_batch(self.seen.astype(np.int64), rng)
        out[2] = 0
        return out


class OutOfRangePiles(ConcentrateAdversary):
    """Piles replica 2's balls into ``bad_bin(n)``: one bin past the last."""

    @staticmethod
    def bad_bin(n_bins):
        return n_bins

    def pile_targets(self, n_bins, n_replicas, rng):
        targets = super().pile_targets(n_bins, n_replicas, rng)
        targets[2] = self.bad_bin(n_bins)
        return targets


class NegativePiles(OutOfRangePiles):
    """Piles replica 2's balls into bin -1, which numpy indexing would
    read as the last bin."""

    @staticmethod
    def bad_bin(n_bins):
        return -1


class MisshapedPiles(ConcentrateAdversary):
    """Draws one pile bin too many per fault."""

    def pile_targets(self, n_bins, n_replicas, rng):
        return super().pile_targets(n_bins, n_replicas + 1, rng)


class TestMisbehavingAdversaryInWrapper:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("adversary, reason", [
        (BallEater, "conserve balls in replica 2"),
        (NegativeLoad, "replica 2 has a negative load"),
        (PileEater, "conserve balls in replica 2"),
    ])
    def test_refused_and_state_unchanged(self, kernel, adversary, reason):
        attacker = adversary()
        faulty = BatchedFaultyProcess(
            16, 4, adversary=attacker, schedule=FaultSchedule(period=5),
            seed=3, kernel=kernel,
        )
        with pytest.raises(ConfigurationError, match=reason):
            faulty.run(12)
        # the refused fault never reached the state: it still holds the
        # configuration the adversary was handed after round 4
        assert np.array_equal(faulty.process.loads, attacker.seen)
        assert faulty.process.rounds_completed.tolist() == [4] * 4

    @pytest.mark.parametrize("kernel, rounds_run", [
        pytest.param("numpy", 4, id="segmented"),
        pytest.param("native", 0, id="in_kernel", marks=pytest.mark.skipif(
            not native_available(), reason="native kernel unavailable"
        )),
    ])
    @pytest.mark.parametrize("adversary, reason", [
        (OutOfRangePiles, r"pile bins must lie in \[0, 16\)"),
        (NegativePiles, r"pile bins must lie in \[0, 16\)"),
        (MisshapedPiles, "pile bins have shape"),
    ])
    def test_bad_pile_bins_refused(self, kernel, rounds_run, adversary, reason):
        """Pile bins pass one check on both fault paths: the segmented loop
        refuses them at the first fault, after 4 rounds; the rbb kernel,
        which takes every fault's bins up front, before any round."""
        def faulty(attacker):
            return BatchedFaultyProcess(
                16, 4, adversary=attacker, schedule=FaultSchedule(period=5),
                seed=3, kernel=kernel,
            )

        refused = faulty(adversary())
        with pytest.raises(ConfigurationError, match=reason):
            refused.run(12)
        expected = faulty("concentrate").run(rounds_run).final_loads
        assert np.array_equal(refused.process.loads, expected)
        assert refused.process.rounds_completed.tolist() == [rounds_run] * 4


class TestReportedKernel:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_zero_rounds_report_the_kernel_a_window_runs(self, kernel):
        faulty = BatchedFaultyProcess(
            8, 4, schedule=FaultSchedule.every(2), seed=1, kernel=kernel
        )
        assert faulty.run(0).kernel == kernel
        assert faulty.run(3).kernel == kernel
        plain = BatchedRepeatedBallsIntoBins(8, 4, kernel=kernel)
        assert plain.run(0).kernel == kernel
        assert plain.window_kernel() == kernel
