"""Unit tests for repro.parallel (seeding, runner, aggregation) and repro.rng."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.batched import BatchedFaultyProcess
from repro.adversary.faulty_process import FaultSchedule
from repro.baselines.d_choices import BatchedDChoices
from repro.core.batched import BatchedRepeatedBallsIntoBins
from repro.core.native import available_cpu_count, native_available
from repro.errors import ConfigurationError
from repro.graphs.batched import BatchedConstrainedWalks
from repro.graphs.generators import cycle_graph
from repro.parallel.aggregate import TrialAggregate, aggregate_ensemble, aggregate_records
from repro.parallel.ensemble import EnsembleSpec, run_ensemble
from repro.parallel.runner import TrialRunner, run_trials
from repro.parallel.seeding import trial_seed, trial_seeds, trial_states
from repro.rng import as_generator, as_seed_sequence, derive_substream, spawn_generators, spawn_seeds

SRC = Path(__file__).resolve().parent.parent / "src"


# ----------------------------------------------------------------------
# rng module
# ----------------------------------------------------------------------
class TestRngHelpers:
    def test_as_generator_from_int_is_deterministic(self):
        a = as_generator(42).integers(0, 1000, size=5)
        b = as_generator(42).integers(0, 1000, size=5)
        assert np.array_equal(a, b)

    def test_as_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen

    def test_as_generator_from_seed_sequence(self):
        seq = np.random.SeedSequence(7)
        gen = as_generator(seq)
        assert isinstance(gen, np.random.Generator)

    def test_as_seed_sequence_rejects_generator(self):
        with pytest.raises(TypeError):
            as_seed_sequence(np.random.default_rng(0))

    def test_spawn_generators_are_independent(self):
        gens = spawn_generators(0, 3)
        assert len(gens) == 3
        draws = [g.integers(0, 2**31) for g in gens]
        assert len(set(draws)) == 3

    def test_spawn_seeds_count_validation(self):
        with pytest.raises(ValueError):
            spawn_seeds(0, -1)

    def test_spawn_seeds_leaves_the_seed_object_unadvanced(self):
        root = np.random.SeedSequence(3)
        first = [child.generate_state(4).tolist() for child in spawn_seeds(root, 3)]
        again = [child.generate_state(4).tolist() for child in spawn_seeds(root, 3)]
        fresh = np.random.SeedSequence(3).spawn(3)
        assert first == again == [child.generate_state(4).tolist() for child in fresh]

    def test_derive_substream_deterministic_and_keyed(self):
        a = derive_substream(5, (1, 2)).integers(0, 2**31)
        b = derive_substream(5, (1, 2)).integers(0, 2**31)
        c = derive_substream(5, (1, 3)).integers(0, 2**31)
        assert a == b
        assert a != c


# ----------------------------------------------------------------------
# seeding
# ----------------------------------------------------------------------
class TestTrialSeeds:
    def test_seed_list_reproducible(self):
        first = [s.generate_state(2).tolist() for s in trial_seeds(0, 4)]
        second = [s.generate_state(2).tolist() for s in trial_seeds(0, 4)]
        assert first == second

    def test_individual_seed_matches_spawned_list(self):
        full = trial_seeds(123, 5)
        single = trial_seed(123, 3)
        assert single.generate_state(4).tolist() == full[3].generate_state(4).tolist()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            trial_seeds(0, -1)

    def test_spawned_children_yield_independent_trial_streams(self):
        """trial_seed folds the root's own spawn_key into the derivation,
        so distinct spawned children of one ancestor do not alias."""
        children = as_seed_sequence(7).spawn(2)
        a = trial_seed(children[0], 3)
        b = trial_seed(children[1], 3)
        assert a.spawn_key != b.spawn_key
        # and it still matches trial_seeds on the same (fresh) root
        assert a.spawn_key == trial_seeds(children[0], 4)[3].spawn_key
        with pytest.raises(ConfigurationError):
            trial_seed(0, -1)


def _spawned_states(root, n):
    """Each child's xoshiro state, from SeedSequence itself (a fresh copy's spawn)."""
    fresh = np.random.SeedSequence(root.entropy, spawn_key=root.spawn_key)
    rows = [child.generate_state(4, dtype=np.uint64) for child in fresh.spawn(n)]
    return np.array(rows, dtype=np.uint64).reshape(n, 4)


def _per_replica_states(seed, n):
    """The per-replica loop trial_states replaces."""
    rows = [trial_seed(seed, r).generate_state(4, dtype=np.uint64) for r in range(n)]
    return np.array(rows, dtype=np.uint64).reshape(n, 4)


class TestTrialStates:
    @settings(max_examples=40, deadline=None)
    @given(
        entropy=st.one_of(
            st.integers(0, 2**128),
            st.lists(st.integers(0, 2**64), max_size=6),
            st.none(),  # fresh OS entropy
        ),
        spawn_key=st.lists(
            st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**80)),
            max_size=3,
        ),
        n=st.sampled_from([0, 1, 513]),
    )
    def test_rows_equal_seed_sequence_children(self, entropy, spawn_key, n):
        root = np.random.SeedSequence(entropy, spawn_key=tuple(spawn_key))
        states = trial_states(root, n)
        assert states.dtype == np.uint64
        assert states.shape == (n, 4)
        assert states.flags.c_contiguous
        assert np.array_equal(states, _spawned_states(root, n))

    def test_seed_object_is_not_advanced(self):
        root = np.random.SeedSequence(5)
        first = trial_states(root, 8)
        assert root.n_children_spawned == 0
        assert root.spawn_key == ()
        assert np.array_equal(trial_states(root, 8), first)
        # nor does a root that spawned before hand out other states
        used = np.random.SeedSequence(5)
        used.spawn(3)
        assert np.array_equal(trial_states(used, 8), first)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            trial_states(0, -1)
        # raised before any allocation: a larger index takes two words
        with pytest.raises(ConfigurationError, match="2\\*\\*32"):
            trial_states(0, 2**32 + 1)

    @pytest.mark.parametrize("n_replicas", [1, 3, 512])
    @pytest.mark.parametrize("process", ["rbb", "walks", "greedy_d", "faulty"])
    def test_native_states_equal_the_per_replica_stack(self, process, n_replicas):
        seed = np.random.SeedSequence(31)
        if process == "rbb":
            batch = BatchedRepeatedBallsIntoBins(16, n_replicas, seed=seed)
        elif process == "walks":
            batch = BatchedConstrainedWalks(cycle_graph(8), n_replicas, seed=seed)
        elif process == "greedy_d":
            batch = BatchedDChoices(16, n_replicas, d=2, seed=seed)
        else:
            # the adversary draws from child 0, the process from child 1
            batch = BatchedFaultyProcess(16, n_replicas, seed=seed).process
            seed = trial_seed(seed, 1)
        assert np.array_equal(
            batch._native_states(), _per_replica_states(seed, n_replicas)
        )


# ----------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------
def _picklable_trial(trial_index, seed, scale=1):
    """Module-level trial function so the process pool can pickle it."""
    rng = np.random.default_rng(seed)
    return {"index": trial_index, "value": float(rng.random()) * scale}


class TestTrialRunner:
    def test_sequential_execution(self):
        results = run_trials(_picklable_trial, 5, seed=0)
        assert len(results) == 5
        assert [r["index"] for r in results] == [0, 1, 2, 3, 4]

    def test_results_independent_of_worker_count(self):
        sequential = run_trials(_picklable_trial, 6, seed=1, n_workers=0)
        parallel = run_trials(_picklable_trial, 6, seed=1, n_workers=2)
        assert [r["value"] for r in sequential] == pytest.approx(
            [r["value"] for r in parallel]
        )

    def test_kwargs_forwarded(self):
        results = run_trials(_picklable_trial, 3, seed=0, scale=10)
        assert all(0 <= r["value"] <= 10 for r in results)

    def test_closure_falls_back_to_sequential_with_warning(self):
        captured = []

        def closure_trial(i, seed):
            captured.append(i)
            return i

        runner = TrialRunner(n_workers=4)
        with pytest.warns(RuntimeWarning, match="cannot be pickled"):
            results = runner.run(closure_trial, 4, seed=0)
        assert results == [0, 1, 2, 3]
        assert captured == [0, 1, 2, 3]

    def test_no_warning_when_sequential_requested(self, recwarn):
        def closure_trial(i, seed):
            return i

        results = TrialRunner(n_workers=0).run(closure_trial, 3, seed=0)
        assert results == [0, 1, 2]
        assert not [w for w in recwarn.list if issubclass(w.category, RuntimeWarning)]

    def test_zero_trials(self):
        assert run_trials(_picklable_trial, 0, seed=0) == []

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TrialRunner(n_workers=-1)
        with pytest.raises(ConfigurationError):
            TrialRunner(chunk_size=0)
        with pytest.raises(ConfigurationError):
            TrialRunner().run(_picklable_trial, -1)

    def test_effective_workers(self):
        assert TrialRunner(n_workers=None).effective_workers == 0
        assert TrialRunner(n_workers=0).effective_workers == 0
        assert TrialRunner(n_workers=1).effective_workers == 1


#: A sharded native run after a 2-thread in-process one: a pool forked from
#: a process whose OpenMP runtime already ran a threaded region deadlocks.
_THREADED_THEN_SHARDED = textwrap.dedent("""
    import numpy as np
    from repro.parallel.ensemble import EnsembleSpec, run_ensemble

    spec = EnsembleSpec(n_bins=256, n_replicas=64, rounds=64)
    run_ensemble(spec, seed=1, kernel="native", n_threads=2)
    first = run_ensemble(spec, seed=1, kernel="native", n_threads=2, n_workers=2)
    again = run_ensemble(spec, seed=1, kernel="native", n_threads=2, n_workers=2)
    assert np.array_equal(first.final_loads, again.final_loads)
""")


@pytest.mark.skipif(available_cpu_count() < 2, reason="needs 2 visible CPUs")
@pytest.mark.skipif(not native_available(), reason="native kernel unavailable")
def test_sharded_run_after_threaded_native_run_returns():
    # its own session, so a hung pool's workers die with the interpreter
    proc = subprocess.Popen(
        [sys.executable, "-c", _THREADED_THEN_SHARDED],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        start_new_session=True,
        text=True,
    )
    try:
        output, _ = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("sharded run after a threaded native run hung for 60 s")
    assert proc.returncode == 0, output


#: A trial module that imports nothing from repro: unpickling a trial loads
#: `repro.parallel`, never the experiment registry, so a worker holds the
#: registry only if the fork server preloaded it.
_PRELOAD_PROBE = textwrap.dedent("""
    import sys

    def registry_loaded(trial_index, seed):
        return "repro.experiments.registry" in sys.modules
""")

_RUN_PRELOAD_PROBE = textwrap.dedent("""
    import preload_probe
    from repro.parallel.runner import run_trials

    print(run_trials(preload_probe.registry_loaded, 2, seed=0, n_workers=2))
""")


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a pool needs 2 CPUs")
def test_pool_workers_start_with_the_experiment_registry_loaded(tmp_path):
    (tmp_path / "preload_probe.py").write_text(_PRELOAD_PROBE)
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_PRELOAD_PROBE],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(tmp_path)])),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[True, True]"


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
class TestAggregation:
    def test_aggregate_records_basic(self):
        records = [{"a": 1, "b": 2.0}, {"a": 3, "b": 4.0}]
        agg = aggregate_records(records)
        assert agg.n_trials == 2
        assert agg.column("a").tolist() == [1.0, 3.0]
        assert agg.mean("b") == pytest.approx(3.0)
        assert agg.max("a") == 3.0
        assert agg.min("a") == 1.0

    def test_summary_column(self):
        agg = aggregate_records([{"x": v} for v in range(10)])
        summary = agg.summary("x")
        assert summary.count == 10
        assert summary.mean == pytest.approx(4.5)

    def test_fraction_true(self):
        agg = aggregate_records([{"ok": True}, {"ok": False}, {"ok": True}])
        assert agg.fraction_true("ok") == pytest.approx(2 / 3)

    def test_none_becomes_nan(self):
        agg = aggregate_records([{"x": None}, {"x": 2.0}])
        assert np.isnan(agg.column("x")[0])

    def test_empty_records(self):
        agg = aggregate_records([])
        assert agg.n_trials == 0
        assert isinstance(agg, TrialAggregate)

    def test_unknown_column(self):
        agg = aggregate_records([{"a": 1}])
        with pytest.raises(ConfigurationError):
            agg.column("b")

    def test_heterogeneous_records_rejected(self):
        with pytest.raises(ConfigurationError):
            aggregate_records([{"a": 1}, {"b": 2}])

    def test_as_dict_of_lists(self):
        agg = aggregate_records([{"a": 1}, {"a": 2}])
        assert agg.as_dict_of_lists() == {"a": [1.0, 2.0]}

    def test_end_to_end_with_runner(self):
        records = run_trials(_picklable_trial, 8, seed=3)
        agg = aggregate_records(records)
        assert agg.n_trials == 8
        assert 0.0 <= agg.mean("value") <= 1.0


class TestAggregateEnsembleEdgeCases:
    def test_single_replica_ensemble(self):
        """R = 1: every column is length-1 and summaries degrade gracefully."""
        result = run_ensemble(
            EnsembleSpec(n_bins=8, n_replicas=1, rounds=4),
            seed=1,
            engine="batched",
            kernel="numpy",
        )
        agg = aggregate_ensemble(result)
        assert agg.n_trials == 1
        summary = agg.summary("window_max_load")
        assert summary.count == 1
        assert summary.std == 0.0
        assert summary.minimum == summary.maximum == summary.mean

    def test_faulty_run_with_empty_recovery_matrix(self):
        """A never-faulting schedule yields a (0, R) recovery matrix."""
        process = BatchedFaultyProcess(
            8, 3, adversary="concentrate", schedule=FaultSchedule.never(),
            seed=0, kernel="numpy",
        )
        outcome = process.run(4)
        assert outcome.recovery_times.shape == (0, 3)
        assert outcome.flat_recoveries().size == 0
        assert outcome.max_recovery_time is None
        assert not outcome.all_recovered
        assert outcome.fault_count == 0
        agg = aggregate_ensemble(outcome.to_ensemble_result())
        assert agg.n_trials == 3
        assert agg.column("rounds").tolist() == [4.0, 4.0, 4.0]

    def test_never_converged_minus_one_propagates(self):
        """first_legitimate_round == -1 survives aggregation and summaries."""
        result = run_ensemble(
            EnsembleSpec(n_bins=64, n_replicas=3, rounds=1, start="all_in_one"),
            seed=2,
            engine="batched",
            kernel="numpy",
        )
        assert (result.first_legitimate_round == -1).all()
        agg = aggregate_ensemble(result)
        column = agg.column("first_legitimate_round")
        assert column.tolist() == [-1.0, -1.0, -1.0]
        assert agg.fraction_true("converged") == 0.0
        summary = agg.summary("first_legitimate_round")
        assert summary.mean == -1.0 and summary.maximum == -1.0
