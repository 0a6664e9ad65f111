"""The paper's claims as shapes of the experiment tables.

Each test regenerates one registered experiment at a reduced scale (seconds,
not minutes) and asserts the *shape* of its table — who wins, which way a
column grows, that a normalized column stays bounded — not absolute numbers.
Every run uses ``seed=0``.  The experiment ids are the registry's, catalogued
in ``docs/EXPERIMENTS.md``.
"""

from __future__ import annotations

import math

import pytest

from repro.experiments import run_experiment


def test_e1_stability():
    """E1 — Theorem 1 (stability): max load stays O(log n) over a long window."""
    result = run_experiment(
        "E1",
        params={"sizes": [64, 128, 256, 512], "trials": 5, "rounds_factor": 4.0, "n_workers": 0},
        seed=0,
    )
    rows = result.rows
    assert len(rows) == 4
    # every size stayed legitimate in every trial (the Theorem 1 event)
    for row in rows:
        assert row["legitimate_fraction"] == 1.0
        # window max within a small constant of log n
        assert row["window_max_over_log_n"] <= 4.0
    # growth direction: the window max grows much more slowly than n does
    small, large = rows[0], rows[-1]
    assert large["mean_window_max"] >= small["mean_window_max"] - 1
    growth = large["mean_window_max"] / small["mean_window_max"]
    assert growth <= 2.5 * (math.log(large["n"]) / math.log(small["n"]))


def test_e2_convergence():
    """E2 — Theorem 1 (convergence): legitimate configuration within O(n) rounds."""
    result = run_experiment(
        "E2",
        params={"sizes": [64, 128, 256, 512], "trials": 5, "budget_factor": 30.0, "n_workers": 0},
        seed=0,
    )
    rows = result.rows
    assert all(row["converged_fraction"] == 1.0 for row in rows)
    # convergence time is linear in n: the normalized time stays bounded
    for row in rows:
        assert row["convergence_over_n"] <= 6.0
    # and the fitted exponent (reported in the notes) should be near 1
    assert any("exponent" in note or "n^" in note for note in result.notes)


def test_e3_empty_bins():
    """E3 — Lemmas 1-2: at least n/4 bins are empty in every round after the first."""
    result = run_experiment(
        "E3", params={"sizes": [64, 256, 512], "trials": 5, "rounds_factor": 4.0}, seed=0
    )
    for row in result.rows:
        # the worst observed empty fraction never drops below the n/4 bound
        assert row["worst_min_empty_fraction"] >= 0.25
        assert row["frac_trials_above_quarter"] == 1.0


def test_e4_coupling():
    """E4 — Lemma 3: the Tetris process dominates the original process."""
    result = run_experiment(
        "E4", params={"sizes": [64, 256, 512], "trials": 8, "rounds_factor": 2.0}, seed=0
    )
    for row in result.rows:
        # max-load domination holds in every trial; bin-wise domination in
        # essentially every trial (allow one failure at the smallest n)
        assert row["maxload_domination_fraction"] >= 0.85
        assert row["binwise_domination_fraction"] >= 0.85
        assert row["mean_tetris_max"] >= row["mean_original_max"] - 1e-9
    # at the larger sizes the failure probability is negligible
    assert result.rows[-1]["binwise_domination_fraction"] == 1.0


def test_e5_tetris_emptying():
    """E5 — Lemma 4: in Tetris every bin empties at least once within 5n rounds."""
    result = run_experiment("E5", params={"sizes": [128, 256, 512], "trials": 5}, seed=0)
    for row in result.rows:
        assert row["bound_5n"] == 5 * row["n"]
    # at the larger sizes the 5n bound holds in every trial and the measured
    # emptying time is close to the ~4n drain time implied by the drift
    for row in result.rows[1:]:
        assert row["within_bound_fraction"] == 1.0
        assert row["emptied_by_over_n"] <= 5.0


def test_e6_absorption_tail():
    """E6 — Lemma 5: P_k(tau > t) <= exp(-t/144) for t >= 8k in the bin-load chain."""
    result = run_experiment(
        "E6",
        params={"n": 1024, "starts": [1, 4, 8, 16, 32], "horizon_factor": 4.0, "mc_trials": 300},
        seed=0,
    )
    for row in result.rows:
        # the exact tail never exceeds the paper's envelope on the checked grid
        assert row["bound_violations"] == 0
        # and the exact tail at t = 8k is indeed below the bound evaluated there
        assert row["exact_survival_at_8k"] <= row["bound_at_8k"] + 1e-12
        # Wald's identity: expected absorption time is k / 0.25 = 4k
        assert abs(row["expected_absorption_time"] - 4 * row["start_k"]) < 1e-6


def test_e7_tetris_load():
    """E7 — Lemma 6: the Tetris maximum load is O(log n) over a long window."""
    result = run_experiment(
        "E7", params={"sizes": [64, 128, 256, 512], "trials": 5, "rounds_factor": 4.0}, seed=0
    )
    for row in result.rows:
        assert row["window_max_over_log_n"] <= 4.0
    # the normalized max load is roughly flat across sizes (logarithmic growth)
    ratios = [row["window_max_over_log_n"] for row in result.rows]
    assert max(ratios) - min(ratios) <= 2.0


def test_e8_cover_time():
    """E8 — Corollary 1: parallel cover time O(n log^2 n) vs single-token Theta(n log n)."""
    result = run_experiment(
        "E8",
        params={"sizes": [16, 32, 64], "trials": 4, "budget_factor": 40.0, "n_workers": 0},
        seed=0,
    )
    rows = result.rows
    assert all(row["completed_fraction"] == 1.0 for row in rows)
    for row in rows:
        n = row["n"]
        # the multi-token cover time sits between the single-token baseline and
        # the Corollary 1 envelope
        assert row["mean_multi_cover"] >= 0.5 * row["single_cover_expected"]
        assert row["multi_cover_over_nlog2n"] <= 10.0
        # the slowdown over a single token is at most a few log n
        assert row["slowdown_vs_single"] <= 4 * math.log(n)
    # direction: the normalized cover time (over n log n) does not shrink with n
    assert rows[-1]["multi_cover_over_nlogn"] >= 0.5 * rows[0]["multi_cover_over_nlogn"]


def test_e9_adversarial():
    """E9 — Section 4.1: periodic adversarial faults every gamma*n rounds are absorbed."""
    result = run_experiment(
        "E9",
        params={
            "n": 256,
            "gammas": [2.0, 6.0, 12.0, None],
            "trials": 4,
            "rounds_factor": 30.0,
            "adversary": "concentrate",
        },
        seed=0,
    )
    by_gamma = {row["gamma"]: row for row in result.rows}
    # the fault-free run never builds up a heavy bin
    fault_free = by_gamma[0]
    assert fault_free["mean_window_max_load"] <= 30
    # with gamma >= 6 every fault (with room left to recover) recovers, and
    # recovery is linear in n (a small fraction of the fault period)
    for gamma in (6.0, 12.0):
        row = by_gamma[gamma]
        assert row["eligible_recovered_fraction"] == 1.0
        assert row["mean_recovery_rounds"] <= 3 * row["n"]
        assert row["mean_recovery_rounds"] < 0.5 * row["fault_period"]
    # recovery time does not depend on the fault frequency (it is a property of
    # the process, not of the schedule)
    assert abs(by_gamma[6.0]["mean_recovery_rounds"] - by_gamma[12.0]["mean_recovery_rounds"]) <= 256


def test_e10_one_shot_comparison():
    """E10 — comparison: one-shot Theta(log n/log log n) vs repeated O(log n) max load."""
    result = run_experiment(
        "E10", params={"sizes": [64, 256, 1024, 4096], "trials": 8, "window_factor": 1.0}, seed=0
    )
    rows = result.rows
    for row in rows:
        # the repeated window maximum dominates the one-shot maximum ...
        assert row["repeated_window_mean_max"] >= row["one_shot_mean_max"] - 1e-9
        # ... but stays within a small constant of log n
        assert row["repeated_over_log_n"] <= 4.0
        # the one-shot maximum tracks the log n / log log n prediction
        assert 0.5 <= row["one_shot_over_loglog"] <= 3.0
    # both quantities grow with n (same direction as the asymptotics)
    assert rows[-1]["one_shot_mean_max"] > rows[0]["one_shot_mean_max"]
    assert rows[-1]["repeated_window_mean_max"] > rows[0]["repeated_window_mean_max"]


def test_e11_sqrt_t():
    """E11 — improvement over [12]: flat O(log n) max load vs the O(sqrt(t)) envelope."""
    result = run_experiment(
        "E11", params={"n": 256, "window_factors": [1, 4, 16, 64], "trials": 4}, seed=0
    )
    rows = result.rows
    shortest, longest = rows[0], rows[-1]
    # the real process's window max barely moves as the window grows 64x ...
    assert longest["rbb_mean_window_max"] <= shortest["rbb_mean_window_max"] + 4
    # ... and stays within a small constant of log n
    assert longest["rbb_mean_window_max"] <= 4 * longest["log_n"]
    # while the sqrt(t) envelope overtakes it by a wide margin at long windows
    assert longest["sqrt_t_envelope"] > 3 * longest["rbb_mean_window_max"]
    # the zero-drift surrogate (what the old analysis cannot exclude) really
    # does keep growing with the window
    assert longest["zero_drift_mean_window_max"] > shortest["zero_drift_mean_window_max"]
    assert longest["zero_drift_mean_window_max"] > longest["rbb_mean_window_max"]


def test_e12_m_balls():
    """E12 — open question (Section 5): m balls in n bins."""
    result = run_experiment(
        "E12",
        params={"n": 256, "ratios": [0.5, 1.0, 2.0, 4.0], "trials": 4, "rounds_factor": 4.0},
        seed=0,
    )
    by_ratio = {row["m_over_n"]: row for row in result.rows}
    # m <= n: stability indistinguishable from the m = n case
    assert by_ratio[0.5]["window_max_over_log_n"] <= 4.0
    assert by_ratio[1.0]["window_max_over_log_n"] <= 4.0
    # the window max grows with the number of balls ...
    assert by_ratio[4.0]["mean_window_max"] > by_ratio[1.0]["mean_window_max"]
    # ... but the *excess* over the mean load m/n stays moderate, i.e. the
    # extra balls mostly show up as a higher floor, not as instability
    assert by_ratio[4.0]["window_max_minus_mean_load"] <= 8 * by_ratio[1.0]["mean_window_max"]


def test_e13_graph_topologies():
    """E13 — open question (Section 5): the process on general graph topologies."""
    result = run_experiment(
        "E13",
        params={
            "n": 256,
            "topologies": ["complete", "hypercube", "random_regular", "torus", "cycle"],
            "trials": 3,
            "rounds_factor": 4.0,
        },
        seed=0,
    )
    by_topology = {row["topology"]: row for row in result.rows}
    # dense / expanding topologies stay logarithmic
    assert by_topology["complete"]["window_max_over_log_n"] <= 4.0
    assert by_topology["hypercube"]["window_max_over_log_n"] <= 5.0
    assert by_topology["random_regular"]["window_max_over_log_n"] <= 5.0
    # the ring accumulates at least as much congestion as the clique over the
    # same window (the phenomenon that makes the open question hard)
    assert (
        by_topology["cycle"]["mean_window_max"]
        >= by_topology["complete"]["mean_window_max"] - 1
    )


def test_e14_negative_association():
    """E14 — Appendix B: arrival counts at a bin are not negatively associated."""
    result = run_experiment("E14", params={"mc_sizes": [2, 4, 8], "mc_trials": 3000}, seed=0)
    exact = result.rows[0]
    assert exact["method"] == "exact"
    # the paper's exact numbers
    assert exact["p_first_zero"] == pytest.approx(1 / 4)
    assert exact["p_second_zero"] == pytest.approx(3 / 8)
    assert exact["p_joint_zero"] == pytest.approx(1 / 8)
    assert exact["product"] == pytest.approx(3 / 32)
    assert exact["violates_negative_association"] is True
    # Monte-Carlo estimates agree with the exact n=2 values and the positive
    # correlation persists at larger n
    for row in result.rows[1:]:
        assert row["gap"] > 0
    mc_n2 = next(row for row in result.rows[1:] if row["n"] == 2)
    assert abs(mc_n2["p_joint_zero"] - 1 / 8) < 0.03


def test_e15_leaky_bins():
    """E15 — leaky bins ([18]): probabilistic Tetris with Binomial(n, lambda) arrivals."""
    result = run_experiment(
        "E15",
        params={"n": 256, "lams": [0.5, 0.75, 0.9, 0.99], "trials": 4, "rounds_factor": 8.0},
        seed=0,
    )
    by_lam = {row["lam"]: row for row in result.rows}
    # subcritical arrival rates keep the maximum load logarithmic
    assert by_lam[0.5]["window_max_over_log_n"] <= 4.0
    assert by_lam[0.75]["window_max_over_log_n"] <= 5.0
    # the load profile degrades monotonically as lambda -> 1
    assert by_lam[0.9]["mean_window_max"] >= by_lam[0.5]["mean_window_max"] - 1
    assert by_lam[0.99]["mean_window_max"] >= by_lam[0.9]["mean_window_max"] - 1
    # near-critical rates also hold many more balls in the system overall
    assert by_lam[0.99]["mean_final_total_balls"] > by_lam[0.5]["mean_final_total_balls"]


def test_a1_queueing_ablation():
    """A1 — ablation: queueing discipline obliviousness (load) vs fairness (progress)."""
    result = run_experiment(
        "A1",
        params={
            "n": 128,
            "disciplines": ["fifo", "lifo", "random", "smallest_id"],
            "trials": 4,
            "rounds_factor": 4.0,
        },
        seed=0,
    )
    by_discipline = {row["discipline"]: row for row in result.rows}
    loads = [row["mean_window_max"] for row in result.rows]
    # Theorem 1 is oblivious to the discipline: the load curves coincide
    assert max(loads) - min(loads) <= 3.0
    for row in result.rows:
        assert row["window_max_over_log_n"] <= 4.0
    # per-ball progress is NOT oblivious: FIFO guarantees progress for every
    # ball, the smallest-id discipline starves the highest ids
    assert (
        by_discipline["fifo"]["mean_min_progress"]
        >= by_discipline["smallest_id"]["mean_min_progress"]
    )
    assert by_discipline["fifo"]["min_progress_per_round"] > 0.05


def test_a2_d_choices():
    """A2 — ablation: Greedy[d] gains only an additive constant over the plain process."""
    result = run_experiment(
        "A2", params={"sizes": [64, 128, 256], "d_values": [1, 2, 4], "trials": 8}, seed=0
    )
    for row in result.rows:
        # every d, d = 1 included, stays within E1's constant of log n
        assert row["repeated_over_log_n"] <= 4.0
        # more than one choice lowers the window max at every n ...
        if row["d"] >= 2:
            assert row["d_choices_gain_vs_d1"] > 0
    # ... but only additively: going from 2 to 4 choices gains less than
    # going from 1 to 2 did
    gain = {(row["n"], row["d"]): row["d_choices_gain_vs_d1"] for row in result.rows}
    for n in (64, 128, 256):
        assert gain[(n, 4)] - gain[(n, 2)] < gain[(n, 2)]


def test_a3_arrival_rate_ablation():
    """A3 — ablation: Tetris arrival rate rho*n (the role of the negative drift)."""
    result = run_experiment(
        "A3",
        params={"n": 256, "rhos": [0.5, 0.75, 0.9, 1.0], "trials": 4, "rounds_factor": 8.0},
        seed=0,
    )
    by_rho = {row["rho"]: row for row in result.rows}
    # the paper's 3/4 rate (and anything below it) keeps the max load logarithmic
    assert by_rho[0.5]["window_max_over_log_n"] <= 4.0
    assert by_rho[0.75]["window_max_over_log_n"] <= 5.0
    # removing the drift entirely (rho = 1) visibly degrades the max load
    assert by_rho[1.0]["mean_window_max"] > by_rho[0.75]["mean_window_max"]
    # and the degradation is monotone in rho
    assert by_rho[0.9]["mean_window_max"] >= by_rho[0.75]["mean_window_max"] - 1
