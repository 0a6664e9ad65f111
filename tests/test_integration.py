"""Integration tests: cross-module scenarios that mirror the paper's storyline.

Each test stitches several subsystems together the way the experiments do:
process + metrics + analysis, coupling + Tetris + bounds, traversal +
baselines, adversary + recovery, harness + io + cli-level table rendering.
"""

from __future__ import annotations

import math

import numpy as np

from repro import (
    ConcentrateAdversary,
    ConstrainedParallelWalks,
    FaultSchedule,
    FaultyProcess,
    LoadConfiguration,
    MultiTokenTraversal,
    RepeatedBallsIntoBins,
    SingleTokenWalk,
    TetrisProcess,
    TokenRepeatedBallsIntoBins,
    complete_graph,
)
from repro.analysis.bounds import log_bound, sqrt_window_bound
from repro.analysis.fitting import fit_log_growth, fit_power_law
from repro.baselines.one_shot import one_shot_max_load
from repro.experiments import format_table, run_experiment, save_result_json, load_result_json
from repro.metrics import (
    BatchedEmptyBinsTracker,
    BatchedLegitimacyTracker,
    BatchedMaxLoadTracker,
)
from repro.parallel.aggregate import aggregate_records
from repro.parallel.runner import run_trials
from repro.traversal.progress import progress_statistics


class TestTheoremOneStory:
    """Theorem 1 end-to-end: convergence then stability, with observers."""

    def test_convergence_then_stability(self):
        n = 256
        process = RepeatedBallsIntoBins(n, initial=LoadConfiguration.all_in_one(n), seed=0)
        legitimacy = BatchedLegitimacyTracker()
        empties = BatchedEmptyBinsTracker()
        max_load = BatchedMaxLoadTracker(record_series=False)
        process.run(8 * n, observers=[legitimacy, empties, max_load])

        # convergence within O(n): well inside the 8n window
        assert legitimacy.converged[0]
        assert legitimacy.first_legitimate_round[0] <= 4 * n
        # once legitimate it stays legitimate for the rest of the window
        assert legitimacy.stable_after_convergence[0]
        # empty bins: at least n/4 once the initial pile has drained
        assert empties.window_min[0] >= 0
        # the window max load is dominated by the initial pile, but the final
        # configuration is logarithmic
        assert process.max_load <= 2 * log_bound(n)

    def test_window_max_scales_logarithmically_in_n(self):
        sizes = [64, 128, 256, 512]
        maxima = []
        for n in sizes:
            process = RepeatedBallsIntoBins(n, seed=n)
            maxima.append(process.run(2 * n).max_load_seen)
        fit = fit_log_growth(sizes, maxima)
        # a log fit describes the data well and the slope is a small constant
        assert fit.r_squared > 0.5
        assert 0.0 < fit.params["coefficient"] < 6.0

    def test_convergence_time_scales_linearly_in_n(self):
        sizes = [64, 128, 256, 512]
        times = []
        for n in sizes:
            trial_times = []
            for seed in range(3):
                process = RepeatedBallsIntoBins(
                    n, initial=LoadConfiguration.all_in_one(n), seed=seed
                )
                hit = process.run_until_legitimate(max_rounds=30 * n)
                assert hit is not None
                trial_times.append(hit)
            times.append(float(np.mean(trial_times)))
        fit = fit_power_law(sizes, times)
        assert 0.7 <= fit.params["exponent"] <= 1.3  # Theorem 1: linear


class TestLemmaPipeline:
    """Lemmas 1-6 chained the way the proof uses them."""

    def test_empty_bins_feed_the_coupling_precondition(self):
        n = 256
        process = RepeatedBallsIntoBins(n, seed=1)
        process.step()
        # Lemma 1-2: >= n/4 empty bins after round 1 ...
        assert process.num_empty_bins >= n / 4
        # ... which is exactly the precondition Lemma 3's coupling needs:
        from repro.core.coupling import CoupledRun

        coupled = CoupledRun(n, initial=process.configuration(), seed=2)
        outcome = coupled.run(2 * n)
        assert outcome.domination_held
        # Lemma 6: the dominating Tetris max load is itself logarithmic
        assert outcome.tetris_max_load <= 5 * log_bound(n)

    def test_tetris_emptying_supports_self_stabilization(self):
        n = 256
        tetris = TetrisProcess(n, initial=LoadConfiguration.all_in_one(n), seed=3)
        outcome = tetris.run(5 * n)
        assert outcome.all_bins_emptied_by is not None
        assert outcome.all_bins_emptied_by <= 5 * n


class TestTraversalStory:
    """Section 4: cover time of the parallel protocol vs the single token."""

    def test_parallel_cover_time_within_log_factor_of_single(self):
        n = 48
        multi = MultiTokenTraversal(n, seed=4).run()
        assert multi.completed
        singles = [SingleTokenWalk(n, seed=s).cover_time() for s in range(10)]
        single_mean = float(np.mean([s for s in singles if s is not None]))
        slowdown = multi.cover_time / single_mean
        # Corollary 1: slowdown is O(log n); allow a generous constant
        assert slowdown <= 4 * math.log(n)
        # and the parallel protocol cannot beat a single token by much
        assert multi.cover_time >= 0.5 * single_mean

    def test_progress_guarantee_under_fifo(self):
        n = 64
        process = TokenRepeatedBallsIntoBins(n, discipline="fifo", seed=5)
        rounds = 10 * n
        process.run(rounds)
        stats = progress_statistics(process)
        # Omega(t / log n) progress per ball
        assert stats.min_moves >= 0.2 * rounds / math.log(n)

    def test_clique_walks_equal_rbb_equal_traversal_loads(self):
        """The three views of the same process (anonymous loads, graph walks on
        the clique, token process) produce statistically consistent loads."""
        n = 64
        rounds = 4 * n
        rbb = RepeatedBallsIntoBins(n, seed=6).run(rounds).max_load_seen
        walks = ConstrainedParallelWalks(complete_graph(n), seed=7).run(rounds).max_load_seen
        tokens = TokenRepeatedBallsIntoBins(n, seed=8).run(rounds).max_load_seen
        values = [rbb, walks, tokens]
        assert max(values) - min(values) <= 4
        assert max(values) <= 3 * log_bound(n)


class TestAdversarialStory:
    """Section 4.1: periodic adversarial faults are absorbed."""

    def test_recovery_much_faster_than_fault_period(self):
        n = 128
        gamma = 6.0
        faulty = FaultyProcess.with_gamma(n, gamma=gamma, adversary=ConcentrateAdversary(), seed=9)
        # leave 4n rounds of slack after the last fault so it can recover
        result = faulty.run(int(2 * gamma * n) + 4 * n)
        assert len(result.fault_rounds) >= 2
        assert result.all_recovered
        assert result.max_recovery_time < gamma * n / 2

    def test_shuffle_faults_are_harmless(self):
        n = 128
        faulty = FaultyProcess(
            n, adversary="shuffle", schedule=FaultSchedule.every(n), seed=10
        )
        result = faulty.run(5 * n)
        assert result.max_load_seen <= 3 * log_bound(n)


class TestComparativeStory:
    """The comparisons the paper makes against prior bounds and baselines."""

    def test_repeated_process_beats_sqrt_t_envelope_for_long_windows(self):
        n = 128
        rounds = 64 * n
        window_max = RepeatedBallsIntoBins(n, seed=11).run(rounds).max_load_seen
        assert window_max < sqrt_window_bound(rounds)
        assert window_max <= 3 * log_bound(n)

    def test_repeated_window_max_exceeds_one_shot_max(self):
        n = 1024
        one_shot = float(np.mean([one_shot_max_load(n, seed=s) for s in range(5)]))
        repeated = RepeatedBallsIntoBins(n, seed=12).run(n).max_load_seen
        assert repeated >= one_shot - 1


class TestHarnessIntegration:
    """Experiments + parallel runner + persistence + rendering round trip."""

    def test_experiment_to_json_and_table(self, tmp_path):
        result = run_experiment(
            "E1", params={"sizes": [16, 32], "trials": 2, "rounds_factor": 1.0}, seed=0
        )
        path = save_result_json(result, tmp_path / "e1.json")
        loaded = load_result_json(path)
        assert loaded.experiment_id == "E1"
        table = format_table(loaded.rows, style="markdown")
        assert table.count("|") > 4

    def test_parallel_runner_inside_experiment(self):
        """E1 produces identical tables sequentially and with 2 workers."""
        params = {"sizes": [16, 32], "trials": 3, "rounds_factor": 1.0}
        sequential = run_experiment("E1", params={**params, "n_workers": 0}, seed=7)
        parallel = run_experiment("E1", params={**params, "n_workers": 2}, seed=7)
        assert sequential.rows == parallel.rows

    def test_trial_records_aggregate_cleanly(self):
        def trial(i, seed, n=64):
            process = RepeatedBallsIntoBins(n, seed=seed)
            result = process.run(n)
            return {
                "window_max": result.max_load_seen,
                "min_empty": result.min_empty_bins_seen,
            }

        records = run_trials(trial, 6, seed=13)
        agg = aggregate_records(records)
        assert agg.n_trials == 6
        assert agg.mean("window_max") <= 3 * log_bound(64)
        assert agg.min("min_empty") >= 64 / 4
