"""Unit tests for repro.adversary (adversaries and fault injection)."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.adversary.adversaries import (
    Adversary,
    ConcentrateAdversary,
    PyramidAdversary,
    ShuffleAdversary,
    TargetHeaviestAdversary,
    available_adversaries,
    get_adversary,
)
from repro.adversary.faulty_process import FaultSchedule, FaultyProcess
from repro.errors import ConfigurationError


@pytest.fixture
def rng():
    return np.random.default_rng(7)


#: The load vectors one generator runs each adversary's reassign over.
REASSIGN_VECTORS = [
    [3, 0, 1, 4, 0, 2],
    [0, 0, 0, 0, 0],
    [7],
    [5, 5, 5, 5],
    [0, 9, 0, 0, 1, 2, 0, 0, 3],
    [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12],
]


class TestAdversaries:
    def test_concentrate(self, rng):
        loads = np.array([2, 3, 1, 0], dtype=np.int64)
        out = ConcentrateAdversary()(loads, rng)
        assert int(out.sum()) == 6
        assert int(out.max()) == 6
        assert int(np.count_nonzero(out)) == 1

    def test_pyramid(self, rng):
        loads = np.array([1, 1, 1, 1, 1, 1, 1, 1], dtype=np.int64)
        out = PyramidAdversary()(loads, rng)
        assert int(out.sum()) == 8
        assert out[0] >= out[1] >= out[2]

    def test_shuffle_preserves_multiset(self, rng):
        loads = np.array([5, 0, 2, 1], dtype=np.int64)
        out = ShuffleAdversary()(loads, rng)
        assert sorted(out.tolist()) == sorted(loads.tolist())

    def test_target_heaviest(self, rng):
        loads = np.array([4, 3, 2, 1], dtype=np.int64)
        out = TargetHeaviestAdversary(fraction=0.5)(loads, rng)
        assert int(out.sum()) == 10
        assert int(out.max()) >= 4 + 5 - 1  # at least ~half the balls moved onto the heaviest

    def test_target_heaviest_empty_system(self, rng):
        loads = np.zeros(4, dtype=np.int64)
        out = TargetHeaviestAdversary()(loads, rng)
        assert int(out.sum()) == 0

    def test_target_heaviest_fraction_validation(self):
        with pytest.raises(ConfigurationError):
            TargetHeaviestAdversary(fraction=0.0)
        with pytest.raises(ConfigurationError):
            TargetHeaviestAdversary(fraction=1.5)

    def test_call_wrapper_checks_conservation(self, rng):
        class BrokenAdversary(Adversary):
            name = "broken"

            def reassign(self, loads, rng):
                return np.zeros_like(np.asarray(loads))

        with pytest.raises(ConfigurationError):
            BrokenAdversary()(np.array([1, 2], dtype=np.int64), rng)

    def test_an_adversary_implementing_neither_method_is_refused(self):
        class Idle(Adversary):
            name = "idle"

        with pytest.raises(TypeError, match="neither reassign nor reassign_batch"):
            Idle()
        with pytest.raises(TypeError):
            Adversary()

    @pytest.mark.parametrize(
        "name, pinned",
        [
            ("concentrate", "60803d09188c0fd2e97c24a2faeb5407a5e4ffea3e63a4953de1ffa1d73b771e"),
            ("pyramid", "c67f906544a7bef8d572d29d05d800047a22077ef2991789347c94e8f0658515"),
            ("shuffle", "43094650e137c661d7f43f68b2ec4721e2d654d1570d4f9f9f12cfc8d5ddf1a2"),
            (
                "target_heaviest",
                "c44d9aa5e5710dbc312f421f2dd38961143c494b4ce22a47975b9891f4b6af53",
            ),
        ],
    )
    def test_reassign_stream_is_pinned(self, name, pinned):
        # SHA-256 of the outputs (little-endian int64) and the generator's
        # state after them, as each adversary's own reassign produced them
        # before reassign became the one-row view of reassign_batch
        adversary = get_adversary(name)
        rng = np.random.default_rng(9)
        digest = hashlib.sha256()
        for vector in REASSIGN_VECTORS:
            loads = np.array(vector, dtype=np.int64)
            out = adversary.reassign(loads, rng)
            assert out.shape == loads.shape
            assert int(out.sum()) == int(loads.sum())
            digest.update(np.ascontiguousarray(out, dtype="<i8").tobytes())
        digest.update(json.dumps(rng.bit_generator.state, sort_keys=True).encode())
        assert digest.hexdigest() == pinned

    def test_registry(self):
        assert {"concentrate", "pyramid", "shuffle", "target_heaviest"} <= set(
            available_adversaries()
        )
        assert isinstance(get_adversary("concentrate"), ConcentrateAdversary)
        assert isinstance(get_adversary(ShuffleAdversary), ShuffleAdversary)
        instance = PyramidAdversary()
        assert get_adversary(instance) is instance
        with pytest.raises(ConfigurationError):
            get_adversary("nonexistent")
        with pytest.raises(ConfigurationError):
            get_adversary(3.14)


class TestFaultSchedule:
    def test_periodic(self):
        schedule = FaultSchedule.every(10)
        assert not schedule.is_faulty(1)
        assert schedule.is_faulty(10)
        assert schedule.is_faulty(20)
        assert not schedule.is_faulty(25)

    def test_offset(self):
        schedule = FaultSchedule.every(10, offset=3)
        assert schedule.is_faulty(3)
        assert schedule.is_faulty(13)
        assert not schedule.is_faulty(10)
        assert not schedule.is_faulty(1)

    def test_explicit_rounds(self):
        schedule = FaultSchedule(period=None, explicit_rounds={5, 9})
        assert schedule.is_faulty(5)
        assert schedule.is_faulty(9)
        assert not schedule.is_faulty(6)

    def test_never(self):
        schedule = FaultSchedule.never()
        assert not any(schedule.is_faulty(t) for t in range(1, 100))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FaultSchedule(period=0)
        with pytest.raises(ConfigurationError):
            FaultSchedule(period=5, offset=0)

    @pytest.mark.parametrize(
        "schedule",
        [
            FaultSchedule.never(),
            FaultSchedule.every(1),
            FaultSchedule.every(10),
            FaultSchedule.every(7, offset=3),
            FaultSchedule(period=None, explicit_rounds={0, 5, 9, 40}),
            FaultSchedule(period=6, offset=4, explicit_rounds={1, 4, 11}),
        ],
    )
    def test_fault_rounds_lists_the_faulty_rounds(self, schedule):
        for rounds in (0, 1, 9, 10, 31):
            expected = [t for t in range(1, rounds + 1) if schedule.is_faulty(t)]
            assert schedule.fault_rounds(rounds) == expected


class TestFaultyProcess:
    def test_no_faults_matches_plain_process_statistics(self):
        n = 64
        faulty = FaultyProcess(n, schedule=FaultSchedule.never(), seed=0)
        result = faulty.run(4 * n)
        assert result.fault_rounds == []
        assert result.recovery_times == []
        assert result.max_load_seen <= 6 * np.log(n)

    def test_faults_fire_on_schedule(self):
        n = 32
        faulty = FaultyProcess(
            n, adversary="concentrate", schedule=FaultSchedule.every(50), seed=1
        )
        result = faulty.run(160)
        assert result.fault_rounds == [50, 100, 150]
        # a concentrate fault makes the max load jump to n right away
        assert result.max_load_seen == n

    def test_recovery_after_each_fault(self):
        n = 64
        faulty = FaultyProcess.with_gamma(n, gamma=6.0, adversary="concentrate", seed=2)
        result = faulty.run(2 * 6 * n + 4 * n)
        assert len(result.fault_rounds) >= 2
        assert result.all_recovered
        # Theorem 1: recovery is linear in n, hence well below the 6n period
        assert result.max_recovery_time is not None
        assert result.max_recovery_time <= 5 * n

    def test_unrecovered_fault_reported(self):
        n = 256
        # fault at round 10, run only 12 rounds: cannot recover from a full pile-up
        faulty = FaultyProcess(
            n,
            adversary="concentrate",
            schedule=FaultSchedule(period=None, explicit_rounds={10}),
            seed=3,
        )
        result = faulty.run(12)
        assert result.fault_rounds == [10]
        assert result.recovery_times == [-1]
        assert not result.all_recovered
        assert result.max_recovery_time is None

    def test_with_gamma_validation(self):
        with pytest.raises(ConfigurationError):
            FaultyProcess.with_gamma(16, gamma=0.0)

    def test_negative_rounds_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultyProcess(8, seed=0).run(-1)

    def test_shuffle_adversary_does_not_disrupt_loads(self):
        n = 64
        faulty = FaultyProcess(
            n, adversary="shuffle", schedule=FaultSchedule.every(20), seed=4
        )
        result = faulty.run(200)
        # shuffling bin labels never creates a heavy bin
        assert result.max_load_seen <= 6 * np.log(n)
        assert result.all_recovered

    def test_faults_keep_the_process_clock(self):
        # faults at rounds 10 and 20 go in through inject_loads, which
        # leaves the process's round counter running
        faulty = FaultyProcess(16, schedule=FaultSchedule.every(10), seed=0)
        result = faulty.run(25)
        assert result.fault_rounds == [10, 20]
        assert faulty.process.round_index == 25

    def test_observer_sees_wrapper_round_numbers(self):
        rounds_seen = []
        FaultyProcess(16, schedule=FaultSchedule.never(), seed=5).run(
            10, observers=lambda t, loads: rounds_seen.append(t)
        )
        assert rounds_seen == list(range(1, 11))
