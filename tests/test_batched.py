"""Tests for the batched ensemble engine (core.batched, parallel.ensemble).

The load-bearing guarantee is *engine equivalence*: with ``R == 1`` and the
same seed, the numpy kernel of :class:`BatchedRepeatedBallsIntoBins` must
reproduce :class:`RepeatedBallsIntoBins` step for step (identical generator
consumption).  On top of that sit ball-conservation and distributional
sanity checks at ``R > 1``, the per-replica early stop, the native kernel
(when a C compiler is available), the engine-selection surface, and
results that do not depend on whether a seed object was used before.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.batched import BatchedFaultyProcess
from repro.baselines.d_choices import BatchedDChoices
from repro.core.batched import (
    INITIAL_KINDS,
    BatchedRepeatedBallsIntoBins,
    EnsembleResult,
    make_ensemble_initial,
)
from repro.core.config import DEFAULT_BETA, LoadConfiguration, legitimacy_threshold
from repro.core.native import native_available
from repro.core.process import RepeatedBallsIntoBins
from repro.errors import ConfigurationError
from repro.graphs.batched import BatchedConstrainedWalks
from repro.graphs.generators import resolve_topology
from repro.metrics import BatchedMaxLoadTracker
from repro.parallel.aggregate import aggregate_ensemble
from repro.parallel.ensemble import EnsembleSpec, run_ensemble

needs_native = pytest.mark.skipif(
    not native_available(), reason="native kernel unavailable (no C compiler)"
)


# ----------------------------------------------------------------------
# R = 1 equivalence with the single-replica simulator (numpy kernel)
# ----------------------------------------------------------------------
class TestSequentialEquivalence:
    @pytest.mark.parametrize(
        "n,m", [(2, 2), (8, 8), (64, 64), (32, 64), (16, 5), (7, 0)]
    )
    def test_step_for_step(self, n, m):
        sequential = RepeatedBallsIntoBins(n, n_balls=m, seed=1234)
        batched = BatchedRepeatedBallsIntoBins(
            n, 1, n_balls=m, seed=1234, kernel="numpy"
        )
        for _ in range(100):
            expected = sequential.step()
            actual = batched.step()
            assert np.array_equal(expected, actual[0])

    def test_step_for_step_from_all_in_one(self):
        initial = LoadConfiguration.all_in_one(32)
        sequential = RepeatedBallsIntoBins(32, initial=initial, seed=9)
        batched = BatchedRepeatedBallsIntoBins(
            32, 1, initial=initial, seed=9, kernel="numpy"
        )
        for _ in range(200):
            assert np.array_equal(sequential.step(), batched.step()[0])

    def test_run_metrics_match(self):
        sequential = RepeatedBallsIntoBins(64, seed=7)
        batched = BatchedRepeatedBallsIntoBins(64, 1, seed=7, kernel="numpy")
        seq_result = sequential.run(250)
        bat_result = batched.run(250)
        assert seq_result.max_load_seen == bat_result.max_load_seen[0]
        assert seq_result.min_empty_bins_seen == bat_result.min_empty_bins_seen[0]
        expected_first = (
            -1
            if seq_result.first_legitimate_round is None
            else seq_result.first_legitimate_round
        )
        assert expected_first == bat_result.first_legitimate_round[0]
        assert np.array_equal(
            seq_result.final_configuration.loads, bat_result.final_loads[0]
        )

    def test_run_until_legitimate_matches(self):
        initial = LoadConfiguration.all_in_one(64)
        sequential = RepeatedBallsIntoBins(64, initial=initial, seed=11)
        batched = BatchedRepeatedBallsIntoBins(
            64, 1, initial=initial, seed=11, kernel="numpy"
        )
        hit = sequential.run_until_legitimate(20 * 64)
        vec = batched.run_until_legitimate(20 * 64)
        assert (hit if hit is not None else -1) == vec[0]

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=48),
        m=st.integers(min_value=0, max_value=96),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_property_trajectory_equality(self, n, m, seed):
        sequential = RepeatedBallsIntoBins(n, n_balls=m, seed=seed)
        batched = BatchedRepeatedBallsIntoBins(
            n, 1, n_balls=m, seed=seed, kernel="numpy"
        )
        for _ in range(20):
            assert np.array_equal(sequential.step(), batched.step()[0])


# ----------------------------------------------------------------------
# Ensemble semantics at R > 1 (numpy kernel)
# ----------------------------------------------------------------------
class TestBatchedEnsemble:
    def test_ball_conservation_per_replica(self):
        initial = make_ensemble_initial("random_uniform", 32, 20, seed=0)
        batched = BatchedRepeatedBallsIntoBins(
            32, 20, initial=initial, seed=1, kernel="numpy"
        )
        expected = initial.sum(axis=1)
        batched.run(100)
        assert np.array_equal(batched.loads.sum(axis=1), expected)

    def test_heterogeneous_ball_counts(self):
        rows = np.vstack(
            [
                LoadConfiguration.balanced(16, 8).as_array(),
                LoadConfiguration.balanced(16, 16).as_array(),
                LoadConfiguration.balanced(16, 40).as_array(),
            ]
        )
        batched = BatchedRepeatedBallsIntoBins(
            16, 3, initial=rows, seed=2, kernel="numpy"
        )
        batched.run(50)
        assert batched.loads.sum(axis=1).tolist() == [8, 16, 40]

    def test_metric_reducers_are_vectors(self):
        batched = BatchedRepeatedBallsIntoBins(16, 5, seed=3, kernel="numpy")
        batched.step()
        assert batched.max_load.shape == (5,)
        assert batched.num_empty_bins.shape == (5,)
        assert batched.is_legitimate().shape == (5,)
        assert batched.loads.shape == (5, 16)
        with pytest.raises(ValueError):
            batched.loads[0, 0] = 99  # read-only view

    def test_early_stop_freezes_replicas(self):
        initial = make_ensemble_initial("all_in_one", 64, 10)
        batched = BatchedRepeatedBallsIntoBins(
            64, 10, initial=initial, seed=4, kernel="numpy"
        )
        result = batched.run(20 * 64, stop_when_legitimate=True)
        assert result.converged_fraction == 1.0
        assert not batched.active.any()
        frozen = batched.loads.copy()
        rounds_before = batched.rounds_completed
        batched.run(25)  # all frozen: nothing may change
        assert np.array_equal(batched.loads, frozen)
        assert np.array_equal(batched.rounds_completed, rounds_before)

    def test_early_stop_rounds_match_first_legitimate(self):
        initial = make_ensemble_initial("all_in_one", 64, 8)
        batched = BatchedRepeatedBallsIntoBins(
            64, 8, initial=initial, seed=5, kernel="numpy"
        )
        result = batched.run(20 * 64, stop_when_legitimate=True)
        assert np.array_equal(result.rounds, result.first_legitimate_round)

    def test_already_legitimate_replica_stops_immediately(self):
        batched = BatchedRepeatedBallsIntoBins(64, 4, seed=6, kernel="numpy")
        result = batched.run(10, stop_when_legitimate=True)
        # the balanced start is legitimate, so no replica simulates a round
        assert np.array_equal(result.first_legitimate_round, np.zeros(4))
        assert np.array_equal(result.rounds, np.zeros(4))

    def test_distributional_sanity_vs_sequential(self):
        n, trials, rounds = 64, 120, 128
        batched = BatchedRepeatedBallsIntoBins(n, trials, seed=7, kernel="numpy")
        ensemble = batched.run(rounds)
        rng = np.random.default_rng(7)
        sequential_max = []
        for _ in range(40):
            process = RepeatedBallsIntoBins(n, seed=rng)
            sequential_max.append(process.run(rounds).max_load_seen)
        batched_mean = ensemble.max_load_seen.mean()
        sequential_mean = float(np.mean(sequential_max))
        # same distribution: window-max means agree within a loose tolerance
        assert abs(batched_mean - sequential_mean) < 0.2 * sequential_mean + 1.0
        # Lemma 2: the empty-bin fraction stays above ~1/4 after round one
        assert ensemble.min_empty_bins_seen.min() >= n // 8

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BatchedRepeatedBallsIntoBins(0, 1)
        with pytest.raises(ConfigurationError):
            BatchedRepeatedBallsIntoBins(4, 0)
        with pytest.raises(ConfigurationError):
            BatchedRepeatedBallsIntoBins(4, 1, kernel="fortran")
        with pytest.raises(ConfigurationError):
            BatchedRepeatedBallsIntoBins(4, 2, initial=np.zeros((3, 4), dtype=int))
        with pytest.raises(ConfigurationError):
            BatchedRepeatedBallsIntoBins(4, 1, initial=-np.ones((1, 4), dtype=int))
        with pytest.raises(ConfigurationError):
            BatchedRepeatedBallsIntoBins(4, 1).run(-1)

    def test_reset(self):
        batched = BatchedRepeatedBallsIntoBins(16, 3, seed=8, kernel="numpy")
        batched.run(20, stop_when_legitimate=True)
        batched.reset()
        assert batched.active.all()
        assert (batched.rounds_completed == 0).all()
        assert (batched.loads == 1).all()


# ----------------------------------------------------------------------
# make_ensemble_initial
# ----------------------------------------------------------------------
class TestEnsembleInitial:
    @pytest.mark.parametrize(
        "kind", ["balanced", "all_in_one", "pyramid", "legitimate_extreme"]
    )
    def test_deterministic_kinds(self, kind):
        block = make_ensemble_initial(kind, 16, 4, n_balls=20)
        assert block.shape == (4, 16)
        assert (block.sum(axis=1) == 20).all()
        assert (block == block[0]).all()  # replicated rows

    def test_random_uniform(self):
        block = make_ensemble_initial("random_uniform", 16, 50, n_balls=32, seed=0)
        assert block.shape == (50, 16)
        assert (block.sum(axis=1) == 32).all()
        assert not (block == block[0]).all()  # independent throws per replica

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            make_ensemble_initial("spiral", 8, 2)

    @pytest.mark.parametrize("kind", INITIAL_KINDS)
    @pytest.mark.parametrize("n_bins", [0, -3])
    def test_refuses_no_bins(self, kind, n_bins):
        with pytest.raises(ConfigurationError, match="n_bins"):
            make_ensemble_initial(kind, n_bins, 2, n_balls=0, seed=0)


# ----------------------------------------------------------------------
# EnsembleResult aggregate
# ----------------------------------------------------------------------
class TestEnsembleResult:
    @pytest.fixture
    def result(self) -> EnsembleResult:
        batched = BatchedRepeatedBallsIntoBins(32, 6, seed=9, kernel="numpy")
        return batched.run(64)

    def test_vectors_and_aggregates(self, result):
        assert result.n_replicas == 6
        assert result.max_load_seen.shape == (6,)
        assert (result.n_balls == 32).all()
        assert 0.0 <= result.converged_fraction <= 1.0
        assert result.ended_legitimate().shape == (6,)
        assert result.configuration(0).n_bins == 32

    def test_to_records_and_aggregate(self, result):
        records = result.to_records()
        assert len(records) == 6
        assert set(records[0]) == {
            "window_max_load",
            "min_empty_bins",
            "first_legitimate_round",
            "rounds",
            "final_max_load",
        }
        aggregate = aggregate_ensemble(result)
        assert aggregate.n_trials == 6
        assert aggregate.mean("window_max_load") == pytest.approx(
            result.max_load_seen.mean()
        )

    def test_describe(self, result):
        info = result.describe()
        assert info["n_replicas"] == 6.0
        assert info["mean_window_max_load"] > 0


# ----------------------------------------------------------------------
# Native kernel
# ----------------------------------------------------------------------
@needs_native
class TestNativeKernel:
    def test_conservation_and_sanity(self):
        batched = BatchedRepeatedBallsIntoBins(64, 40, seed=10, kernel="native")
        result = batched.run(256)
        assert result.kernel == "native"
        assert (result.n_balls == 64).all()
        threshold = legitimacy_threshold(64, DEFAULT_BETA)
        assert (result.max_load_seen <= 3 * threshold).all()
        assert (result.min_empty_bins_seen >= 64 // 8).all()

    def test_deterministic_for_fixed_seed(self):
        first = BatchedRepeatedBallsIntoBins(32, 8, seed=11, kernel="native").run(100)
        second = BatchedRepeatedBallsIntoBins(32, 8, seed=11, kernel="native").run(100)
        assert np.array_equal(first.final_loads, second.final_loads)
        assert np.array_equal(first.max_load_seen, second.max_load_seen)

    def test_distribution_matches_numpy_kernel(self):
        n, trials, rounds = 64, 150, 128
        native = BatchedRepeatedBallsIntoBins(
            n, trials, seed=12, kernel="native"
        ).run(rounds)
        reference = BatchedRepeatedBallsIntoBins(
            n, trials, seed=12, kernel="numpy"
        ).run(rounds)
        native_mean = native.max_load_seen.mean()
        reference_mean = reference.max_load_seen.mean()
        assert abs(native_mean - reference_mean) < 0.15 * reference_mean + 1.0
        assert abs(
            native.min_empty_bins_seen.mean() - reference.min_empty_bins_seen.mean()
        ) < 0.15 * reference.min_empty_bins_seen.mean() + 2.0

    def test_early_stop(self):
        initial = make_ensemble_initial("all_in_one", 64, 10)
        batched = BatchedRepeatedBallsIntoBins(
            64, 10, initial=initial, seed=13, kernel="native"
        )
        result = batched.run(20 * 64, stop_when_legitimate=True)
        assert result.converged_fraction == 1.0
        assert (result.first_legitimate_round > 0).all()
        assert (result.first_legitimate_round < 20 * 64).all()

    @pytest.mark.parametrize("process", ["rbb", "walks", "greedy_d"])
    def test_oversized_state_rejected_not_downgraded(self, process):
        if not native_available(process):
            pytest.skip(f"native {process} kernel unavailable")
        initial = np.zeros((1, 4), dtype=np.int64)
        initial[0, 0] = 2**31  # does not fit the kernel's int32 loads

        def build(kernel):
            if process == "walks":
                return BatchedConstrainedWalks(
                    resolve_topology("cycle:4"), 1, initial=initial, seed=14,
                    kernel=kernel,
                )
            if process == "greedy_d":
                return BatchedDChoices(
                    4, 1, d=2, initial=initial, seed=14, kernel=kernel
                )
            return BatchedRepeatedBallsIntoBins(
                4, 1, initial=initial, seed=14, kernel=kernel
            )

        # the int32 state refuses it at construction, whatever the kernel:
        # "auto" no longer drops to numpy
        for kernel in ("native", "auto", "numpy"):
            with pytest.raises(ConfigurationError, match="int32"):
                build(kernel)


# ----------------------------------------------------------------------
# The int32 state: owned by the process, written in place by the kernels
# ----------------------------------------------------------------------
def _build_family(family, kernel, **kwargs):
    if family == "walks":
        return BatchedConstrainedWalks(
            resolve_topology("cycle:16"), 4, seed=5, kernel=kernel, **kwargs
        )
    if family == "greedy_d":
        return BatchedDChoices(16, 4, d=2, seed=5, kernel=kernel, **kwargs)
    return BatchedRepeatedBallsIntoBins(16, 4, seed=5, kernel=kernel, **kwargs)


FAMILIES = ["rbb", "walks", "greedy_d"]


class TestInt32State:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("kernel", ["numpy", "auto"])
    def test_state_is_int32_and_results_int64(self, family, kernel):
        process = _build_family(family, kernel)
        assert process.loads.dtype == np.int32
        assert process.loads.flags.c_contiguous
        result = process.run(8)
        assert process.loads.dtype == np.int32
        assert result.final_loads.dtype == np.int64
        assert np.array_equal(result.final_loads, process.loads)
        assert process.max_load.dtype == np.int64

    @pytest.mark.parametrize("family", FAMILIES)
    def test_kernel_writes_the_process_buffer(self, family, monkeypatch):
        import ctypes

        import repro.core.batched as batched

        if not native_available(family):
            pytest.skip(f"native {family} kernel unavailable")
        process = _build_family(family, "native", n_threads=1)
        before = process.loads.copy()
        buffer = process.loads.ctypes.data
        seen = []
        get_kernel = batched.get_kernel

        def recording_get_kernel(name):
            kernel = get_kernel(name)

            def call(*args):
                seen.append(ctypes.cast(args[0], ctypes.c_void_p).value)
                return kernel(*args)

            return call

        monkeypatch.setattr(batched, "get_kernel", recording_get_kernel)
        process.run(8)  # one unobserved call
        process.run(8, observers=lambda t, loads: None, observe_every=4)
        process.run(8, observers=BatchedMaxLoadTracker(), observe_every=4)
        assert len(seen) == 4
        assert set(seen) == {buffer}  # the loads, never a copy
        assert process.loads.ctypes.data == buffer
        assert not np.array_equal(process.loads, before)

    def test_wrappers_return_int64_loads(self):
        from repro.scenarios.engine import compile_scenario, run_scenario_batched
        from repro.scenarios.spec import ScenarioEvent, ScenarioSpec

        faulty = BatchedFaultyProcess(16, 3, seed=1, kernel="numpy")
        assert faulty.run(10).final_loads.dtype == np.int64
        burst = ScenarioSpec(events=(ScenarioEvent(kind="burst", round=3, count=2),))
        result = run_scenario_batched(
            BatchedRepeatedBallsIntoBins(16, 3, seed=1, kernel="numpy"),
            compile_scenario(burst, rounds=6),
        )
        assert result.final_loads.dtype == np.int64
        assert result.final_loads.sum(axis=1).tolist() == [18, 18, 18]

    @pytest.mark.parametrize("kernel", ["numpy", "auto"])
    def test_reset_and_replace_refuse_oversized_state(self, kernel):
        process = BatchedRepeatedBallsIntoBins(4, 2, seed=1, kernel=kernel)
        before = process.loads.copy()
        huge = np.zeros((2, 4), dtype=np.int64)
        huge[1, 0] = 2**31
        with pytest.raises(ConfigurationError, match="int32"):
            process.replace_loads(huge)
        with pytest.raises(ConfigurationError, match="int32"):
            process.reset(huge)
        split = np.zeros((2, 4), dtype=np.int64)
        split[0] = 2**30  # every load fits; the replica's total does not
        with pytest.raises(ConfigurationError, match="int32"):
            process.replace_loads(split)
        assert np.array_equal(process.loads, before)
        assert process.n_balls.tolist() == [4, 4]

    def test_a_row_start_is_refused_as_its_matrix_would_be(self):
        process = BatchedRepeatedBallsIntoBins(4, 3, seed=1, kernel="numpy")
        before = process.loads.copy()
        for row, message in [
            ([1, -1, 2, 2], "replica 0 has a negative load"),
            ([1.5, 0.5, 1, 1], "integer-valued"),
            ([2**31 - 1, 0, 0, 0], "int32"),
            ([2**30, 2**30, 0, 0], "int32"),  # every load fits, the total not
            ([2**62] * 4, "int32"),  # the int64 total would wrap to 0
            ([1, 1, 1], "3 bins, expected 4"),
        ]:
            with pytest.raises(ConfigurationError, match=message):
                process.reset(np.array(row))
        assert np.array_equal(process.loads, before)
        assert process.n_balls.tolist() == [4, 4, 4]

    def test_spec_refuses_bad_n_balls(self):
        with pytest.raises(ConfigurationError, match="n_balls must be >= 0"):
            EnsembleSpec(n_bins=4, n_replicas=1, rounds=1, n_balls=-1)
        with pytest.raises(ConfigurationError, match="int32"):
            EnsembleSpec(n_bins=4, n_replicas=1, rounds=1, n_balls=2**31 - 1)
        EnsembleSpec(n_bins=4, n_replicas=1, rounds=1, n_balls=2**31 - 2)


# ----------------------------------------------------------------------
# Reusing a seed object repeats the run
# ----------------------------------------------------------------------
KERNELS = ["numpy", pytest.param("native", marks=needs_native)]


class TestSeedObjectReuse:
    """``SeedSequence.spawn`` advances its root; no seed path may use it."""

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_run_ensemble_twice(self, kernel):
        ss = np.random.SeedSequence(7)
        spec = EnsembleSpec(n_bins=16, n_replicas=4, rounds=16)
        first = run_ensemble(spec, seed=ss, kernel=kernel)
        second = run_ensemble(spec, seed=ss, kernel=kernel)
        fresh = run_ensemble(spec, seed=7, kernel=kernel)
        assert np.array_equal(first.max_load_seen, second.max_load_seen)
        assert np.array_equal(first.final_loads, second.final_loads)
        assert np.array_equal(first.final_loads, fresh.final_loads)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_process_built_twice(self, kernel):
        ss = np.random.SeedSequence(7)
        runs = [
            BatchedRepeatedBallsIntoBins(64, 4, seed=ss, kernel=kernel).run(32)
            for _ in range(2)
        ]
        assert np.array_equal(runs[0].final_loads, runs[1].final_loads)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_faulty_process_built_twice(self, kernel):
        ss = np.random.SeedSequence(7)
        runs = [
            BatchedFaultyProcess.with_gamma(
                16, 4, gamma=1.0, adversary="shuffle", seed=ss, kernel=kernel
            ).run(40)
            for _ in range(2)
        ]
        assert np.array_equal(runs[0].final_loads, runs[1].final_loads)


# ----------------------------------------------------------------------
# Engine selection surface
# ----------------------------------------------------------------------
class TestRunEnsemble:
    def test_engines_share_schema(self):
        # "auto" and "batched" name the same engine
        spec = EnsembleSpec(n_bins=32, n_replicas=12, rounds=64, start="random_uniform")
        auto = run_ensemble(spec, seed=0, engine="auto", kernel="numpy")
        batched = run_ensemble(spec, seed=0, engine="batched", kernel="numpy")
        for result in (auto, batched):
            assert result.n_replicas == 12
            assert result.max_load_seen.shape == (12,)
            assert (result.n_balls == 32).all()
            assert result.kernel == "numpy"
        assert np.array_equal(auto.final_loads, batched.final_loads)
        assert np.array_equal(auto.max_load_seen, batched.max_load_seen)

    def test_engines_agree_distributionally(self):
        # the engine vs independent single-replica simulators
        n = 64
        spec = EnsembleSpec(
            n_bins=n,
            n_replicas=60,
            rounds=20 * n,
            start="all_in_one",
            stop_when_legitimate=True,
        )
        batched = run_ensemble(spec, seed=1, kernel="numpy")
        rng = np.random.default_rng(1)
        hits = [
            RepeatedBallsIntoBins(
                n, initial=LoadConfiguration.all_in_one(n), seed=rng
            ).run_until_legitimate(20 * n)
            for _ in range(60)
        ]
        assert batched.converged_fraction == 1.0
        assert all(hit is not None for hit in hits)
        mean_b = batched.first_legitimate_round.mean()
        mean_s = float(np.mean(hits))
        assert abs(mean_b - mean_s) < 0.35 * max(mean_b, mean_s)

    @pytest.mark.parametrize("start", ["balanced", "all_in_one"])
    @pytest.mark.parametrize("stop_when_legitimate", [False, True])
    def test_single_replica_matches_simulator(
        self, start, stop_when_legitimate, single_replica_rng
    ):
        # kernel="numpy" at n_replicas=1 reproduces RepeatedBallsIntoBins
        # stream for stream
        n, rounds = 32, 200
        spec = EnsembleSpec(
            n_bins=n,
            n_replicas=1,
            rounds=rounds,
            start=start,
            stop_when_legitimate=stop_when_legitimate,
        )
        result = run_ensemble(spec, seed=21, kernel="numpy")
        process = RepeatedBallsIntoBins(
            n,
            initial=getattr(LoadConfiguration, start)(n),
            seed=single_replica_rng(21),
        )
        if stop_when_legitimate and process.is_legitimate():
            expected_rounds, first = 0, 0  # the pre-check stops at once
        else:
            outcome = process.run(rounds, stop_when_legitimate=stop_when_legitimate)
            assert outcome.max_load_seen == result.max_load_seen[0]
            assert outcome.min_empty_bins_seen == result.min_empty_bins_seen[0]
            expected_rounds = outcome.rounds
            first = (
                -1
                if outcome.first_legitimate_round is None
                else outcome.first_legitimate_round
            )
        assert result.rounds[0] == expected_rounds
        assert result.first_legitimate_round[0] == first
        assert np.array_equal(result.final_loads[0], process.loads)

    def test_warmup_rounds(self):
        spec = EnsembleSpec(
            n_bins=32, n_replicas=8, rounds=40, start="all_in_one", warmup_rounds=1
        )
        result = run_ensemble(spec, seed=2, engine="batched", kernel="numpy")
        # after the warm-up round the all-in-one spike has dispersed, so the
        # tracked window max is far below n
        assert (result.max_load_seen < 32).all()
        assert (result.rounds == 40).all()

    def test_deterministic_per_engine(self):
        spec = EnsembleSpec(n_bins=16, n_replicas=6, rounds=30)
        a = run_ensemble(spec, seed=3, engine="batched", kernel="numpy")
        b = run_ensemble(spec, seed=3, engine="batched", kernel="numpy")
        assert np.array_equal(a.final_loads, b.final_loads)

    def test_explicit_matrix_start(self):
        start = make_ensemble_initial("random_uniform", 16, 5, seed=4)
        spec = EnsembleSpec(n_bins=16, n_replicas=5, rounds=10, start=start)
        batched = run_ensemble(spec, seed=5, engine="batched", kernel="numpy")
        assert np.array_equal(batched.n_balls, start.sum(axis=1))

    def test_start_matrix_with_other_replica_count_refused(self):
        # a start is one row or the whole (R, n) block, never cut to fit
        start = make_ensemble_initial("random_uniform", 16, 7, seed=4)
        spec = EnsembleSpec(n_bins=16, n_replicas=5, rounds=10, start=start)
        with pytest.raises(ConfigurationError, match=r"shape \(7, 16\)"):
            run_ensemble(spec, seed=5, kernel="numpy")

    def test_sharded_pool_runs(self):
        spec = EnsembleSpec(n_bins=16, n_replicas=9, rounds=20)
        result = run_ensemble(spec, seed=6, engine="batched", n_workers=2)
        assert result.n_replicas == 9

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            EnsembleSpec(n_bins=0, n_replicas=1, rounds=1)
        with pytest.raises(ConfigurationError):
            EnsembleSpec(n_bins=4, n_replicas=1, rounds=1, start="spiral")
        spec = EnsembleSpec(n_bins=4, n_replicas=1, rounds=1)
        with pytest.raises(ConfigurationError):
            run_ensemble(spec, engine="quantum")

    def test_removed_sequential_engine_names_replacement(self):
        spec = EnsembleSpec(n_bins=4, n_replicas=1, rounds=1)
        with pytest.raises(ConfigurationError, match="removed.*kernel='numpy'"):
            run_ensemble(spec, engine="sequential")
