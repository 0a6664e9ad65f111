"""Unit tests for repro.parallel (seeding, runner, aggregation) and repro.rng."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import warnings
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
from repro.experiments import run_experiment
from repro.graphs.batched import BatchedConstrainedWalks
from repro.graphs.generators import cycle_graph
from repro.parallel.aggregate import TrialAggregate, aggregate_ensemble, aggregate_records
from repro.parallel.ensemble import BATCHED_CLASSES, EnsembleSpec, run_ensemble
from repro.parallel.runner import run_trials
from repro.parallel.seeding import trial_seed, trial_seeds, trial_states
from repro.rng import as_generator, as_seed_sequence, derive_substream, spawn_generators, spawn_seeds
from repro.scenarios.spec import ScenarioEvent, ScenarioSpec

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
def _value_trial(trial_index, seed, scale=1):
    """One draw from the trial's own stream, scaled."""
    rng = np.random.default_rng(seed)
    return {"index": trial_index, "value": float(rng.random()) * scale}


class TestTrialRunner:
    """``run_trials``, the in-process trial loop."""

    def test_sequential_execution(self):
        results = run_trials(_value_trial, 5, seed=0)
        assert len(results) == 5
        assert [r["index"] for r in results] == [0, 1, 2, 3, 4]

    def test_kwargs_forwarded(self):
        results = run_trials(_value_trial, 3, seed=0, scale=10)
        assert all(0 <= r["value"] <= 10 for r in results)

    def test_zero_trials(self):
        assert run_trials(_value_trial, 0, seed=0) == []

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            run_trials(_value_trial, -1)


#: A native run with ``n_workers=2`` after a 2-thread in-process one.  An
#: ensemble runs in process at every ``n_workers``, so this starts no pool.
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
    # its own session, so a hung run's children die with the interpreter
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


#: E8 with ``n_workers=2``, as a script fed on stdin.  A process pool's
#: workers would re-import the main script, which ``<stdin>`` is not, so
#: this runs only where every trial runs in the calling process.
_E8_FROM_STDIN = textwrap.dedent("""
    import json
    import warnings
    from repro.experiments import run_experiment

    params = {"sizes": [16], "trials": 2}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        asked = run_experiment("E8", params={**params, "n_workers": 2}, seed=0)
    inline = run_experiment("E8", params={**params, "n_workers": 0}, seed=0)
    print(json.dumps({
        "warnings": [
            str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)
        ],
        "asked": asked.rows,
        "inline": inline.rows,
    }))
""")


def test_e8_with_workers_runs_from_stdin():
    proc = subprocess.run(
        [sys.executable, "-"],
        input=_E8_FROM_STDIN,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    outcome = json.loads(proc.stdout)
    assert len(outcome["warnings"]) == 1
    assert "n_workers" in outcome["warnings"][0]
    assert outcome["asked"] == outcome["inline"]


def test_e8_refuses_negative_workers():
    with pytest.raises(ConfigurationError, match="n_workers"):
        run_experiment("E8", params={"sizes": [16], "trials": 1, "n_workers": -1}, seed=0)


# ----------------------------------------------------------------------
# ensemble results do not depend on n_workers
# ----------------------------------------------------------------------
#: One small ensemble per process family, each from a drawn start with one
#: metric tracker.
_FAMILY_SPECS = {
    "rbb": {},
    "d_choices": {"process": "d_choices", "d": 2},
    "faulty": {
        "process": "faulty", "adversary": "concentrate", "fault_period": 7,
    },
    "graph_walks": {"process": "graph_walks", "topology": "cycle:16"},
}


def _family_kernel_cases():
    for family, fields in _FAMILY_SPECS.items():
        yield pytest.param(family, fields, "numpy", id=f"{family}-numpy")
        native = BATCHED_CLASSES[fields.get("process", "rbb")].native_kernel
        yield pytest.param(
            family, fields, "native", id=f"{family}-native",
            marks=pytest.mark.skipif(
                not native_available(native),
                reason=f"native {native} kernel unavailable",
            ),
        )


def _assert_same_result(got, want):
    """Every per-replica vector, the final loads and every payload agree."""
    for field in (
        "rounds", "final_loads", "max_load_seen", "min_empty_bins_seen",
        "first_legitimate_round",
    ):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    assert got.kernel == want.kernel
    assert set(got.metrics) == set(want.metrics)
    for name, payload in want.metrics.items():
        other = got.metrics[name]
        assert np.array_equal(other.rounds, payload.rounds), name
        for slot in ("series", "summaries", "arrays"):
            ours, theirs = getattr(other, slot), getattr(payload, slot)
            assert set(ours) == set(theirs), (name, slot)
            for key, value in theirs.items():
                assert np.array_equal(ours[key], value), (name, slot, key)


class TestEnsembleWorkerInvariance:
    """An ensemble result is the same at every ``n_workers``, on any host.

    A split of the replicas by ``min(n_workers, cores)`` shows only on two
    or more cores, so CI runs this file on two visible cores.
    """

    @pytest.mark.parametrize("family, fields, kernel", _family_kernel_cases())
    def test_run_ensemble_ignores_n_workers(self, family, fields, kernel):
        spec = EnsembleSpec(
            n_bins=16, n_replicas=6, rounds=24, start="random_uniform",
            metrics="max_load", **fields,
        )
        base = run_ensemble(spec, seed=7, kernel=kernel, n_workers=0)
        assert base.metrics["max_load"].n_observations == 24
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _assert_same_result(
                run_ensemble(spec, seed=7, kernel=kernel, n_workers=1), base
            )
        for n_workers in (2, 4):
            with pytest.warns(RuntimeWarning, match="n_threads"):
                run = run_ensemble(
                    spec, seed=7, kernel=kernel, n_workers=n_workers
                )
            _assert_same_result(run, base)

    def test_negative_n_workers_refused(self):
        spec = EnsembleSpec(n_bins=4, n_replicas=2, rounds=1)
        with pytest.raises(ConfigurationError, match="n_workers"):
            run_ensemble(spec, seed=0, n_workers=-1)

    def test_e2_rows_ignore_n_workers(self):
        params = {"sizes": [16, 32], "trials": 3, "budget_factor": 20.0}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sequential = run_experiment("E2", params={**params, "n_workers": 0}, seed=7)
            parallel = run_experiment("E2", params={**params, "n_workers": 2}, seed=7)
        assert sequential.rows == parallel.rows


@st.composite
def _scenarios(draw, rounds, n_bins):
    """One to three events, each of any kind a plain rbb window takes.

    Bursts, churns, adversaries and stride changes may repeat; drains fire
    once and take at most a third of the starting balls, so no draw can
    empty a replica below zero."""
    events = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(
            ["burst", "drain", "bin_churn", "adversary", "observe_every"]
        ))
        if kind == "adversary":
            payload = {"adversary": draw(st.sampled_from(["concentrate", "shuffle"]))}
        elif kind == "observe_every":
            payload = {"value": draw(st.integers(1, 8))}
        elif kind == "bin_churn":
            payload = {"count": draw(st.integers(1, n_bins - 1))}
        elif kind == "drain":
            payload = {"count": draw(st.integers(1, max(1, n_bins // 3)))}
        else:
            payload = {"count": draw(st.integers(1, n_bins))}
        every = None if kind == "drain" else draw(st.none() | st.integers(1, rounds))
        events.append(ScenarioEvent(
            kind=kind, round=draw(st.integers(1, rounds)), every=every, **payload
        ))
    return ScenarioSpec(events=tuple(events))


@st.composite
def _small_specs(draw):
    """A small ``EnsembleSpec``: rbb (maybe under a scenario), Greedy[d],
    or concentrate or shuffle faults, from each start family, with or
    without metrics and early stop."""
    process = draw(st.sampled_from(["rbb", "scenario", "d_choices", "faulty"]))
    rounds = draw(st.integers(1, 60))
    n_bins = draw(st.integers(2, 300))
    fields = {}
    if process == "d_choices":
        fields["d"] = draw(st.integers(1, 4))
    if process == "faulty":
        fields["adversary"] = draw(st.sampled_from(["concentrate", "shuffle"]))
        fields["fault_period"] = draw(st.integers(1, min(rounds, 20)))
    elif process == "scenario":
        # an rbb run; EnsembleSpec refuses a scenario with an early stop
        process = "rbb"
        fields["scenario"] = draw(_scenarios(rounds, n_bins))
    else:
        fields["stop_when_legitimate"] = draw(st.booleans())
    return EnsembleSpec(
        process=process,
        n_bins=n_bins,
        n_replicas=draw(st.integers(1, 9)),
        rounds=rounds,
        start=draw(st.sampled_from(["random_uniform", "all_in_one", "balanced"])),
        metrics=draw(st.sampled_from([None, "max_load", "histogram,moments"])),
        **fields,
    )


class TestEnsembleExecutionInvariance:
    """An ensemble result is a function of (spec, seed, kernel) alone: the
    kernel's thread count, fused observation and whether the seed object
    was used before change no bit of it.  CI runs this file on two cores
    with ``REPRO_NATIVE_THREADS=2``."""

    @given(spec=_small_specs(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_execution_knobs_change_no_result(self, spec, seed):
        used = np.random.SeedSequence(seed)
        base = run_ensemble(spec, seed=used, n_threads=1)
        _assert_same_result(
            run_ensemble(spec, seed=np.random.SeedSequence(seed), n_threads=2),
            base,
        )
        _assert_same_result(run_ensemble(spec, seed=used, n_threads=1), base)
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("REPRO_NATIVE_FUSED", "0")
            _assert_same_result(
                run_ensemble(spec, seed=np.random.SeedSequence(seed)), base
            )


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
        records = run_trials(_value_trial, 8, seed=3)
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
