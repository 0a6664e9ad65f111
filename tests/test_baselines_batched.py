"""Tests for the batched Greedy[d] baseline (BatchedDChoices + one-shot).

The load-bearing guarantee mirrors the batched engine's: with ``R == 1``,
the same seed and the numpy kernel, :class:`BatchedDChoices` must
reproduce :class:`DChoicesProcess` step for step (identical generator
consumption), and in particular the max-load distribution over a fixed
seed grid must match quantile for quantile.  On top of that sit
conservation checks at ``R > 1``, protocol conformance, the native
Greedy[d] kernel, and the ensemble-engine routing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.d_choices import (
    BatchedDChoices,
    DChoicesProcess,
    batched_one_shot_d_choices_max_load,
    one_shot_d_choices_max_load,
)
from repro.core.batched import (
    BatchedProcess,
    BatchedRepeatedBallsIntoBins,
    make_ensemble_initial,
)
from repro.core import native
from repro.errors import ConfigurationError
from repro.parallel.ensemble import EnsembleSpec, run_ensemble

SEED_GRID = list(range(24))

needs_native_greedy = pytest.mark.skipif(
    not native.native_available("greedy_d"),
    reason="native greedy_d kernel unavailable (no C compiler)",
)


# ----------------------------------------------------------------------
# R = 1 equivalence with the single-replica Greedy[d] simulator
# ----------------------------------------------------------------------
class TestSequentialEquivalence:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_step_for_step(self, d):
        sequential = DChoicesProcess(24, d=d, seed=99)
        batched = BatchedDChoices(24, 1, d=d, seed=99)
        for _ in range(80):
            assert np.array_equal(sequential.step(), batched.step()[0])

    def test_distribution_consistent_on_seed_grid_d1(self):
        """ISSUE requirement: R=1, d=1 max-load quantiles over a seed grid."""
        n, rounds = 32, 96
        sequential_max = []
        batched_max = []
        for seed in SEED_GRID:
            sequential = DChoicesProcess(n, d=1, seed=seed)
            sequential_max.append(sequential.run(rounds).max_load_seen)
            batched = BatchedDChoices(n, 1, d=1, seed=seed, kernel="numpy")
            batched_max.append(int(batched.run(rounds).max_load_seen[0]))
        # the numpy paths are stream-equal, so the per-seed values (and
        # hence every quantile of the seed-grid distribution) coincide
        assert sequential_max == batched_max
        for q in (0.1, 0.25, 0.5, 0.75, 0.9):
            assert np.quantile(sequential_max, q) == np.quantile(batched_max, q)

    def test_distribution_consistent_on_seed_grid_d2(self):
        n, rounds = 32, 64
        pairs = [
            (
                DChoicesProcess(n, d=2, seed=seed).run(rounds).max_load_seen,
                int(
                    BatchedDChoices(n, 1, d=2, seed=seed, kernel="numpy")
                    .run(rounds)
                    .max_load_seen[0]
                ),
            )
            for seed in SEED_GRID
        ]
        assert all(a == b for a, b in pairs)

    def test_d1_matches_plain_batched_process(self):
        """Greedy[1] degenerates to the plain process — stream-equal at any R."""
        greedy = BatchedDChoices(16, 6, d=1, seed=5)
        plain = BatchedRepeatedBallsIntoBins(16, 6, seed=5, kernel="numpy")
        for _ in range(40):
            assert np.array_equal(greedy.step(), plain.step())


# ----------------------------------------------------------------------
# Ensemble semantics at R > 1
# ----------------------------------------------------------------------
class TestBatchedDChoices:
    def test_protocol_conformance(self):
        assert isinstance(BatchedDChoices(8, 2, seed=0), BatchedProcess)

    def test_ball_conservation_heterogeneous(self):
        initial = make_ensemble_initial("random_uniform", 16, 10, n_balls=40, seed=1)
        batched = BatchedDChoices(16, 10, d=2, initial=initial, seed=2)
        result = batched.run(60)
        assert np.array_equal(result.n_balls, initial.sum(axis=1))

    def test_power_of_two_choices_reduces_window_max(self):
        n, trials, rounds = 64, 60, 128
        one = BatchedDChoices(n, trials, d=1, seed=3).run(rounds)
        two = BatchedDChoices(n, trials, d=2, seed=3).run(rounds)
        assert two.max_load_seen.mean() < one.max_load_seen.mean()

    def test_early_stop_freezes_replicas(self):
        initial = make_ensemble_initial("all_in_one", 32, 8)
        batched = BatchedDChoices(32, 8, d=2, initial=initial, seed=4)
        result = batched.run(20 * 32, stop_when_legitimate=True)
        assert result.converged_fraction == 1.0
        frozen = batched.loads.copy()
        batched.run(10)
        assert np.array_equal(batched.loads, frozen)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BatchedDChoices(8, 2, d=0)
        with pytest.raises(ConfigurationError):
            BatchedDChoices(0, 2)
        with pytest.raises(ConfigurationError):
            BatchedDChoices(8, 2, seed=0).run(-1)


# ----------------------------------------------------------------------
# The native Greedy[d] kernel
# ----------------------------------------------------------------------
class TestNativeKernel:
    SPEC = EnsembleSpec(
        n_bins=16, n_replicas=4, rounds=8, process="d_choices", d=2
    )

    @needs_native_greedy
    def test_run_ensemble_honours_native(self):
        result = run_ensemble(self.SPEC, seed=1, kernel="native")
        assert result.kernel == "native"
        process = BatchedDChoices(16, 4, d=2, seed=1, kernel="native")
        assert process.run(8).kernel == "native"

    def test_unavailable_native_kernel_raises(self, monkeypatch):
        unavailable = native._LoadedKernel(
            None, "disabled for this test", "unavailable"
        )
        monkeypatch.setitem(
            native._CACHE, ("greedy_d", native.sanitize_mode()), unavailable
        )
        with pytest.raises(ConfigurationError, match="greedy_d.*disabled for"):
            BatchedDChoices(16, 4, d=2, seed=1, kernel="native")
        with pytest.raises(ConfigurationError, match="greedy_d.*unavailable"):
            run_ensemble(self.SPEC, seed=1, kernel="native")
        # "auto" falls back to the numpy reference and says so
        assert run_ensemble(self.SPEC, seed=1, kernel="auto").kernel == "numpy"

    @needs_native_greedy
    def test_d1_matches_native_rbb(self):
        """Greedy[1] consumes the native streams exactly as the rbb kernel
        does, so the two native trajectories coincide.  The wider grid
        (block-spanning rounds, rejections, early stop, frozen replicas,
        fused observation, two threads) is in ``test_native_threads.py``."""
        if not native.native_available("rbb"):
            pytest.skip("native rbb kernel unavailable")
        greedy = BatchedDChoices(16, 6, d=1, seed=5, kernel="native").run(40)
        plain = BatchedRepeatedBallsIntoBins(16, 6, seed=5, kernel="native").run(40)
        assert np.array_equal(greedy.final_loads, plain.final_loads)
        assert np.array_equal(greedy.max_load_seen, plain.max_load_seen)
        assert np.array_equal(greedy.min_empty_bins_seen, plain.min_empty_bins_seen)


# ----------------------------------------------------------------------
# Batched one-shot greedy[d]
# ----------------------------------------------------------------------
class TestBatchedOneShot:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_r1_matches_scalar_helper(self, d):
        for seed in range(6):
            scalar = one_shot_d_choices_max_load(37, d=d, seed=seed)
            vector = batched_one_shot_d_choices_max_load(37, 1, d=d, seed=seed)
            assert vector.shape == (1,)
            assert scalar == int(vector[0])

    def test_two_choices_beats_one_choice(self):
        n, trials = 256, 80
        one = batched_one_shot_d_choices_max_load(n, trials, d=1, seed=0)
        two = batched_one_shot_d_choices_max_load(n, trials, d=2, seed=0)
        assert two.mean() < one.mean()

    def test_zero_balls(self):
        out = batched_one_shot_d_choices_max_load(8, 5, d=2, n_balls=0, seed=0)
        assert np.array_equal(out, np.zeros(5))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            batched_one_shot_d_choices_max_load(0, 1)
        with pytest.raises(ConfigurationError):
            batched_one_shot_d_choices_max_load(8, 0)
        with pytest.raises(ConfigurationError):
            batched_one_shot_d_choices_max_load(8, 1, d=0)
        with pytest.raises(ConfigurationError):
            batched_one_shot_d_choices_max_load(8, 1, n_balls=-1)


# ----------------------------------------------------------------------
# Engine routing through run_ensemble
# ----------------------------------------------------------------------
class TestEnsembleRouting:
    def test_engines_share_schema_d_choices(self):
        # "auto" and "batched" name the same engine
        spec = EnsembleSpec(
            n_bins=32, n_replicas=10, rounds=40, process="d_choices", d=2
        )
        auto = run_ensemble(spec, seed=0, engine="auto")
        batched = run_ensemble(spec, seed=0, engine="batched")
        for result in (auto, batched):
            assert result.n_replicas == 10
            assert (result.n_balls == 32).all()
            assert result.max_load_seen.shape == (10,)
        assert np.array_equal(auto.final_loads, batched.final_loads)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_single_replica_matches_simulator(self, d, single_replica_rng):
        spec = EnsembleSpec(
            n_bins=24, n_replicas=1, rounds=60, process="d_choices", d=d
        )
        result = run_ensemble(spec, seed=7, kernel="numpy")
        process = DChoicesProcess(24, d=d, seed=single_replica_rng(7))
        outcome = process.run(60)
        # balanced start: the simulator's window (which folds the max load
        # of the call-time configuration, 1) agrees with the engine's
        assert outcome.max_load_seen == result.max_load_seen[0]
        assert np.array_equal(result.final_loads[0], process.loads)

    def test_engines_agree_distributionally_d_choices(self):
        # the engine vs independent single-replica simulators
        spec = EnsembleSpec(
            n_bins=32, n_replicas=50, rounds=64, process="d_choices", d=2
        )
        batched = run_ensemble(spec, seed=1)
        rng = np.random.default_rng(1)
        single = [
            DChoicesProcess(32, d=2, seed=rng).run(64).max_load_seen
            for _ in range(50)
        ]
        mean_b = batched.max_load_seen.mean()
        mean_s = float(np.mean(single))
        assert abs(mean_b - mean_s) < 0.25 * max(mean_b, mean_s) + 0.5

    def test_engines_share_schema_faulty(self):
        spec = EnsembleSpec(
            n_bins=32,
            n_replicas=8,
            rounds=50,
            process="faulty",
            adversary="concentrate",
            fault_period=20,
        )
        auto = run_ensemble(spec, seed=2, engine="auto", kernel="numpy")
        batched = run_ensemble(spec, seed=2, engine="batched", kernel="numpy")
        assert np.array_equal(auto.final_loads, batched.final_loads)
        for result in (auto, batched):
            assert result.n_replicas == 8
            assert (result.n_balls == 32).all()
            # concentrate spikes the whole ball count into one bin
            assert (result.max_load_seen == 32).all()

    def test_faulty_spec_validation(self):
        with pytest.raises(ConfigurationError):
            EnsembleSpec(
                n_bins=8, n_replicas=2, rounds=4, process="faulty",
                stop_when_legitimate=True,
            )
        with pytest.raises(ConfigurationError):
            EnsembleSpec(
                n_bins=8, n_replicas=2, rounds=4, process="faulty",
                warmup_rounds=1,
            )
        with pytest.raises(ConfigurationError):
            EnsembleSpec(
                n_bins=8, n_replicas=2, rounds=4, process="faulty",
                adversary="gremlin",
            )
        with pytest.raises(ConfigurationError):
            EnsembleSpec(n_bins=8, n_replicas=2, rounds=4, process="quantum")

    def test_deterministic_per_engine(self):
        spec = EnsembleSpec(
            n_bins=16, n_replicas=6, rounds=30, process="d_choices", d=3
        )
        a = run_ensemble(spec, seed=3, engine="batched")
        b = run_ensemble(spec, seed=3, engine="batched")
        assert np.array_equal(a.final_loads, b.final_loads)

    def test_sharded_pool_runs_d_choices(self):
        spec = EnsembleSpec(
            n_bins=16, n_replicas=9, rounds=20, process="d_choices", d=2
        )
        result = run_ensemble(spec, seed=4, engine="batched", n_workers=2)
        assert result.n_replicas == 9
