"""SHA-256 pins of the single-replica simulators' streams.

Each pin hashes one run's final loads, every field of its result, what
its observers saw and the state of the ``Generator`` handed in as
``seed`` afterwards, so any rewrite of the simulators (or of the batched
classes behind them) that changes a draw, a load or a window value shows
here.  Observed loads are hashed flat, whatever their shape, and every
integer as little-endian int64.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.adversary.faulty_process import FaultSchedule, FaultyProcess
from repro.baselines.birth_death import IndependentThrowsProcess
from repro.baselines.d_choices import DChoicesProcess
from repro.core.config import LoadConfiguration
from repro.core.process import RepeatedBallsIntoBins
from repro.core.tetris import ProbabilisticTetris, TetrisProcess
from repro.graphs import ConstrainedParallelWalks, resolve_topology
from repro.metrics import BatchedTraceRecorder

SEED = 2024


def _digest(rng, *values) -> str:
    """SHA-256 of ``values`` (ints, ``None``, arrays) and ``rng``'s state."""
    digest = hashlib.sha256()
    for value in values:
        if value is None:
            value = -1
        flat = np.asarray(value).reshape(-1)
        digest.update(np.ascontiguousarray(flat, dtype="<i8").tobytes())
    digest.update(json.dumps(rng.bit_generator.state, sort_keys=True).encode())
    return digest.hexdigest()


def _trace(recorder):
    """A trace recorder's rounds and snapshots as hashable values."""
    snapshots = (np.asarray(s).reshape(-1) for s in recorder.snapshots)
    return [recorder.snapshot_rounds, *snapshots]


# ----------------------------------------------------------------------
# RepeatedBallsIntoBins
# ----------------------------------------------------------------------
def _rbb_start(n, start):
    if start == "balanced":
        return LoadConfiguration.balanced(n)
    if start == "all_in_one":
        return LoadConfiguration.all_in_one(n)
    loads = np.arange(n) % 4  # uneven, with m != n balls
    loads[0] += 3
    return LoadConfiguration(loads)


def _rbb_result(result):
    return [
        result.rounds,
        result.final_configuration.loads,
        result.max_load_seen,
        result.min_empty_bins_seen,
        result.first_legitimate_round,
    ]


def _rbb_digest(n, start, op):
    rng = np.random.default_rng(SEED)
    initial = _rbb_start(n, start)
    process = RepeatedBallsIntoBins(n, initial=initial, seed=rng)
    values = []
    if op == "run200":
        values += _rbb_result(process.run(200))
    elif op == "stop":
        values += _rbb_result(process.run(50 * n, stop_when_legitimate=True))
    elif op == "steps50":
        for _ in range(50):
            values.append(np.array(process.step()))
    elif op == "until":
        values.append(process.run_until_legitimate(50 * n))
    elif op == "inject_run":
        values += _rbb_result(process.run(20))
        process.inject_loads(LoadConfiguration.all_in_one(n, initial.n_balls))
        values += _rbb_result(process.run(100))
    elif op == "reset_run":
        values += _rbb_result(process.run(20))
        process.reset()
        values += _rbb_result(process.run(100))
    values += [process.loads, process.round_index, process.n_balls]
    return _digest(rng, *values)


#: SHA-256 of each (n, start, op) run, see ``_rbb_digest``.  ``stop`` runs
#: only from all-in-one starts that are not legitimate already.
RBB_PINS = {
    (1, "all_in_one", "inject_run"): "6a4c54ca5a82b500c735e3b1abeae93cade1da6acdc8fe235f22418df2e7cb76",
    (1, "all_in_one", "reset_run"): "f3cffb856e2a6f9392d8cd5033d89a1cdebbf64333144f0d104db90da4619783",
    (1, "all_in_one", "run200"): "13a3f9d2a76e0726ca8531b13cc825acba6bb9dc625fbb20e6610cc2045e03eb",
    (1, "all_in_one", "steps50"): "830155758f5e0fd685a8f720d2ad6924f63aa66f6f3486f940d66de1817274bd",
    (1, "all_in_one", "until"): "56acf1d62588d435b7bb77f4d7e7b2052d88634645497479b80dd90559c44087",
    (1, "balanced", "inject_run"): "6a4c54ca5a82b500c735e3b1abeae93cade1da6acdc8fe235f22418df2e7cb76",
    (1, "balanced", "reset_run"): "f3cffb856e2a6f9392d8cd5033d89a1cdebbf64333144f0d104db90da4619783",
    (1, "balanced", "run200"): "13a3f9d2a76e0726ca8531b13cc825acba6bb9dc625fbb20e6610cc2045e03eb",
    (1, "balanced", "steps50"): "830155758f5e0fd685a8f720d2ad6924f63aa66f6f3486f940d66de1817274bd",
    (1, "balanced", "until"): "56acf1d62588d435b7bb77f4d7e7b2052d88634645497479b80dd90559c44087",
    (1, "uneven", "inject_run"): "5c8c5bc76864c89ae45139a0f3121dc5a9ad4a3c26084fb2e946ee953f3148b0",
    (1, "uneven", "reset_run"): "60ece3dcb77a3f95e11997fd7745771ce2865e39d793a4cd9fe036126ab60375",
    (1, "uneven", "run200"): "058025295149e96e3515edfc7e380dadbc0697452754a7a4a1c4f2aed2d06f06",
    (1, "uneven", "steps50"): "87baa2eecc7728344ecbf3195018c9267e3e065de2e02b3d65fe8f5eedcb3975",
    (1, "uneven", "until"): "edbf19d2c6100bf6f4841b124c615cc4ae459f82c825ff8ff530a4d8adf1f8ce",
    (16, "all_in_one", "inject_run"): "08dc9854cd4bf357ac43a4076cf58e5181021be3d0286be87eb9c7e5d1eb51be",
    (16, "all_in_one", "reset_run"): "20bb59b9a063b5c17691d860cbbfe9ce2ba82896c4d6c13c49987596d00d818c",
    (16, "all_in_one", "run200"): "e9ec6e0bc108c186390e71c63992e1ad024d7fa7e2313432b2ed25498ecfbe50",
    (16, "all_in_one", "steps50"): "ad655516ff261a43b808c4db5eed038204719f561cbed3543e8ba8c72b64cd87",
    (16, "all_in_one", "stop"): "8b0c9025b7e9f78cad3e00562e86a96bcc948c20d7aa676f04777ac87cac3c44",
    (16, "all_in_one", "until"): "0016ac634a91ec72cf2b56a650ba3cdd5863cf4658553cdc6357df2356aab6be",
    (16, "balanced", "inject_run"): "a2c1b407d6b065fcc5b78b22b0072e0cc84fb979b7d69c9093d628868d945884",
    (16, "balanced", "reset_run"): "e52d111123c09ad183a7557609d5cb69b7aeb3544e126ea9f4e523ddfb0ce031",
    (16, "balanced", "run200"): "cbcfda0598c0972ea5d06b4a11b4beac9eb5fad681290aff0f9be51558b5b800",
    (16, "balanced", "steps50"): "d836d47492c59736557e588768b1d67614ca0951e78e7998575d35f64954bb6c",
    (16, "balanced", "until"): "327786f1129059438f5cf2add41806a20c892bf653a23e94ca87b42d92ee8296",
    (16, "uneven", "inject_run"): "8ee3ca81ce4e898b3de3a21d5fa122f36e3f2b3accae93474e1c6842322bca97",
    (16, "uneven", "reset_run"): "f683395b7869e40c80a8ba457d3e0a75a5d188980c543b3a94258555dcbf92e8",
    (16, "uneven", "run200"): "eea269fbdefde93c5c21da1da14ee09e2cd440da8a883315c1b3dbf55a73c41d",
    (16, "uneven", "steps50"): "0b1dc969183ad2fdaa743bfcce284604abbff76b6bdcc07d132d014b9eac4aa1",
    (16, "uneven", "until"): "efdc406d5eecd107711366c3d8b14353f48315affd464b7df007eab9d30d82fe",
    (37, "all_in_one", "inject_run"): "def54f371764451401c7e00fea52fc4233455c43593ad55dc6bf7c5e5633804a",
    (37, "all_in_one", "reset_run"): "7b4f72ab92fa12733f5496b419020cdd3f1b98e6405e78e6ff6f883a5710fd30",
    (37, "all_in_one", "run200"): "d93e08653b1d7d5c8772e8cadb448efe5b0e6676310a46cf1cc104de4dbc7178",
    (37, "all_in_one", "steps50"): "ebc8f8909b8dd45d09934e9f31716d317d5336117be396e15616097d11d22484",
    (37, "all_in_one", "stop"): "05141e3ba0374aed92db62172c97ea3228be52bcdcd5ab0c7e85412f11e7afdd",
    (37, "all_in_one", "until"): "61246871b4df6acaa28e554ef521b53cdc768d55853f8ab19ab06ee32d70624f",
    (37, "balanced", "inject_run"): "6a2dcfe13322d97943f900cf9856e912e31ed0d1c45b9f761b7b8006ba63d9d7",
    (37, "balanced", "reset_run"): "6e08c175e778706506e28f73e6d38c5ae526682467d2b32338bf24bb388f7668",
    (37, "balanced", "run200"): "8834748c13d2856854e44c541229df3d905b8cbac4a8fc0f01fca98d02d56f9f",
    (37, "balanced", "steps50"): "ebf0d2bda3bcec17eee7fe7f1b3ef1b1084ae9c4080a169b2c6e63a1895327c8",
    (37, "balanced", "until"): "c1bb3282662bae9044c0bfcdfe6f1deaa63e35fd1c55ad3e1324b8cfd98ecbf3",
    (37, "uneven", "inject_run"): "91d07dd7719c1e896d030b01fb548ed987218498acacca795d306b75e9082ddd",
    (37, "uneven", "reset_run"): "fb047bfc188f8023566722afd04a2ab7333d48dffd0b122ddffc4cad064681ed",
    (37, "uneven", "run200"): "bd962f0c13c95dfbb2029e9928256eeadb53b29e5d58bac874d487fd6625849c",
    (37, "uneven", "steps50"): "836ff4509720a7bec2c2ce17c1fec6ac5e9b190a4d5e1d7303037c4e764a8d49",
    (37, "uneven", "until"): "fa443a65b9e11062e4a71b5dd3510c53c67fd975d40744b9f82d85792226f810",
}


# ----------------------------------------------------------------------
# DChoicesProcess
# ----------------------------------------------------------------------
def _d_choices_digest(n, d):
    rng = np.random.default_rng(SEED)
    process = DChoicesProcess(
        n, d=d, initial=LoadConfiguration.all_in_one(n), seed=rng
    )
    result = process.run(50)
    return _digest(
        rng,
        result.rounds,
        result.final_configuration.loads,
        result.max_load_seen,
        result.min_empty_bins_seen,
        process.loads,
        process.round_index,
    )


#: SHA-256 of each (n, d) run, see ``_d_choices_digest``.
D_CHOICES_PINS = {
    (16, 1): "7ec621450151acbc616b16665468bb35a2401d92840414f76b2d40590477a702",
    (16, 2): "460364e1ab97db9351d77d12b43618508108906b5bc5c7a5568a1c28fb83b207",
    (16, 3): "243f3bc92b5ec3c4130327bdd0b14fdb375c2125752186066050c827b8e0f169",
    (64, 1): "e2f7bfda5fab2f53fcf7c21c4b5b93625e39134b81bcc1b21aae27ed389148f7",
    (64, 2): "129b4d0f4acfea55335f84c3e098bd49654d037d4bc1b971eef4956c3a3fbf85",
    (64, 3): "d730cd60d473afa0edd6cd56956346ed5f6e32365157b54ad61fa79c96a0830f",
}


# ----------------------------------------------------------------------
# ConstrainedParallelWalks
# ----------------------------------------------------------------------
def _walks_digest(spec, constrained):
    rng = np.random.default_rng(SEED)
    n = resolve_topology(spec).num_nodes
    walks = ConstrainedParallelWalks(
        resolve_topology(spec),
        initial=LoadConfiguration.all_in_one(n),
        constrained=constrained,
        seed=rng,
    )
    trace = BatchedTraceRecorder()
    result = walks.run(100, observers=trace, observe_every=7)
    return _digest(
        rng,
        result.rounds,
        result.max_load_seen,
        result.final_configuration.loads,
        result.min_empty_nodes_seen,
        walks.loads,
        walks.round_index,
        *_trace(trace),
    )


#: SHA-256 of each (topology, constrained) run, see ``_walks_digest``.
WALKS_PINS = {
    ("cycle:16", False): "75d6827b9b7fb4e608eed4e03de4c5808e1b677a6bbfced1adfc69cc44ec7a4e",
    ("cycle:16", True): "249f432ffd4204096f4007e3f31b86dda92e66d0badd618e37fd681e1f0ed1bd",
    ("star:16", False): "cb246930598c39e01ef4991944aabaf0a49d4ad9ceb33a3f93b0afa1c4954fe2",
    ("star:16", True): "31e417b030d49329d3c01c7c77ae8b06734d4b08e1eadff4be9cea4424ca7c83",
    ("torus:8x8", False): "e9f6f40c99c5b6943985ad1da9520a9d9c3e355ee8bcd51867fab661a430c62d",
    ("torus:8x8", True): "52073876dd0f8c783b54837fbb0cb56c39ebb2b39b7fdce8bc3785e34fc47df5",
}


# ----------------------------------------------------------------------
# FaultyProcess
# ----------------------------------------------------------------------
def _faulty_digest(adversary):
    rng = np.random.default_rng(SEED)
    faulty = FaultyProcess(
        16, adversary=adversary, schedule=FaultSchedule.every(20), seed=rng
    )
    trace = BatchedTraceRecorder()
    result = faulty.run(120, observers=trace)
    return _digest(
        rng,
        result.rounds,
        result.fault_rounds,
        result.max_load_seen,
        result.recovery_times,
        result.final_configuration.loads,
        faulty.process.loads,
        *_trace(trace),
    )


#: SHA-256 of each adversary's run, see ``_faulty_digest``.
FAULTY_PINS = {
    "concentrate": "ca5086341f97e03f07547e498461c623dab0803123e25044ff55ab4a9b043fb0",
    "pyramid": "47eb85a75c8e784b1474189bc3bc72a6170a141557c8fb98c5f276587ab50c6f",
    "shuffle": "b00bc8ef5734a3026249d2ea070ed168d226a09d89efada629a68d5a5ddbdc37",
    "target_heaviest": "8db501d58a2e8009ace91c05896fd23f8da85b366183e26128e56ae1074fe556",
}


# ----------------------------------------------------------------------
# The Tetris family: TetrisProcess, ProbabilisticTetris,
# IndependentThrowsProcess
# ----------------------------------------------------------------------
def _tetris_result(result):
    """Every field of a ``TetrisResult`` or ``IndependentThrowsResult``."""
    return [
        result.rounds,
        result.final_configuration.loads,
        result.max_load_seen,
        getattr(result, "all_bins_emptied_by", None),
    ]


def _tetris_digest(cls, n, start, op, **kwargs):
    """Digest of one op on ``cls(n, ...)``: ``run200``, ``steps50`` or
    ``reset_run`` (run, reset to one ball per bin, run, reset to the
    start, run), with a stride-1 trace on every run."""
    rng = np.random.default_rng(SEED)
    initial = getattr(LoadConfiguration, start)(n)
    process = cls(n, initial=initial, seed=rng, **kwargs)
    trace = BatchedTraceRecorder()
    values = []
    if op == "run200":
        values += _tetris_result(process.run(200, observers=trace))
    elif op == "steps50":
        for _ in range(50):
            values.append(np.array(process.step()))
    elif op == "reset_run":
        values += _tetris_result(process.run(20, observers=trace))
        process.reset()
        values += _tetris_result(process.run(100, observers=trace))
        process.reset(initial)
        values += _tetris_result(process.run(50, observers=trace))
    values += [process.loads, process.round_index, *_trace(trace)]
    return _digest(rng, *values)


def _tetris_arrivals(n, arrivals):
    return {"default": None, "zero": 0, "n": n}[arrivals]


#: SHA-256 of each (n, arrivals, start, op) TetrisProcess run, see
#: ``_tetris_digest``; ``arrivals`` is the default floor(3n/4), 0 or n.
TETRIS_PINS = {
    (1, "default", "all_in_one", "reset_run"): "bf38a919650d994aa868343e106f0c093cf446a93d0e9638ce04b31fb4b26cf3",
    (1, "default", "all_in_one", "run200"): "79da34a6a6b132b60a3794e8e0f236212e716c5ee9bcca504a05e1959b8c1623",
    (1, "default", "all_in_one", "steps50"): "bfe1cea6d5060be8113c7b4e4f04f050340efc2eccd8ddec03cddac54f9afc78",
    (1, "default", "balanced", "reset_run"): "bf38a919650d994aa868343e106f0c093cf446a93d0e9638ce04b31fb4b26cf3",
    (1, "default", "balanced", "run200"): "79da34a6a6b132b60a3794e8e0f236212e716c5ee9bcca504a05e1959b8c1623",
    (1, "default", "balanced", "steps50"): "bfe1cea6d5060be8113c7b4e4f04f050340efc2eccd8ddec03cddac54f9afc78",
    (1, "default", "pyramid", "reset_run"): "bf38a919650d994aa868343e106f0c093cf446a93d0e9638ce04b31fb4b26cf3",
    (1, "default", "pyramid", "run200"): "79da34a6a6b132b60a3794e8e0f236212e716c5ee9bcca504a05e1959b8c1623",
    (1, "default", "pyramid", "steps50"): "bfe1cea6d5060be8113c7b4e4f04f050340efc2eccd8ddec03cddac54f9afc78",
    (1, "n", "all_in_one", "reset_run"): "ddf117b6686939ae00ba8f088c37633ab74e4a111cc85552d23765713efca28b",
    (1, "n", "all_in_one", "run200"): "9f61a27aed11108c8426ed6a836957d02a5d5f037d7a3be8b83c4ff9dceae167",
    (1, "n", "all_in_one", "steps50"): "cf90917dd57f418fc18b09d31ee5e398d54aa3bf3e67d045fe9ad2640ed0a99a",
    (1, "n", "balanced", "reset_run"): "ddf117b6686939ae00ba8f088c37633ab74e4a111cc85552d23765713efca28b",
    (1, "n", "balanced", "run200"): "9f61a27aed11108c8426ed6a836957d02a5d5f037d7a3be8b83c4ff9dceae167",
    (1, "n", "balanced", "steps50"): "cf90917dd57f418fc18b09d31ee5e398d54aa3bf3e67d045fe9ad2640ed0a99a",
    (1, "n", "pyramid", "reset_run"): "ddf117b6686939ae00ba8f088c37633ab74e4a111cc85552d23765713efca28b",
    (1, "n", "pyramid", "run200"): "9f61a27aed11108c8426ed6a836957d02a5d5f037d7a3be8b83c4ff9dceae167",
    (1, "n", "pyramid", "steps50"): "cf90917dd57f418fc18b09d31ee5e398d54aa3bf3e67d045fe9ad2640ed0a99a",
    (1, "zero", "all_in_one", "reset_run"): "bf38a919650d994aa868343e106f0c093cf446a93d0e9638ce04b31fb4b26cf3",
    (1, "zero", "all_in_one", "run200"): "79da34a6a6b132b60a3794e8e0f236212e716c5ee9bcca504a05e1959b8c1623",
    (1, "zero", "all_in_one", "steps50"): "bfe1cea6d5060be8113c7b4e4f04f050340efc2eccd8ddec03cddac54f9afc78",
    (1, "zero", "balanced", "reset_run"): "bf38a919650d994aa868343e106f0c093cf446a93d0e9638ce04b31fb4b26cf3",
    (1, "zero", "balanced", "run200"): "79da34a6a6b132b60a3794e8e0f236212e716c5ee9bcca504a05e1959b8c1623",
    (1, "zero", "balanced", "steps50"): "bfe1cea6d5060be8113c7b4e4f04f050340efc2eccd8ddec03cddac54f9afc78",
    (1, "zero", "pyramid", "reset_run"): "bf38a919650d994aa868343e106f0c093cf446a93d0e9638ce04b31fb4b26cf3",
    (1, "zero", "pyramid", "run200"): "79da34a6a6b132b60a3794e8e0f236212e716c5ee9bcca504a05e1959b8c1623",
    (1, "zero", "pyramid", "steps50"): "bfe1cea6d5060be8113c7b4e4f04f050340efc2eccd8ddec03cddac54f9afc78",
    (16, "default", "all_in_one", "reset_run"): "737d25486b0e65f8bfffdfdb4e4a484692b2e31f901f91c562b9492f8d118cf8",
    (16, "default", "all_in_one", "run200"): "94bd4f63aa60671af3260aaa77038782b7a72f2ef7f9aea861dc6edbf7813f7f",
    (16, "default", "all_in_one", "steps50"): "0e5be3ce1f6b483db35f88753551b4538b87a37ffd163725961262e053d7986c",
    (16, "default", "balanced", "reset_run"): "b4f0d910421511e40a65fb8d3bb213aaaba21723a899f799aca335ba6edef380",
    (16, "default", "balanced", "run200"): "ecf37504cdb3fa868053057b92b6fcbc626a18cb6320bcd39058f739dc1434a2",
    (16, "default", "balanced", "steps50"): "4e6dc392869bc650a70dd0913eb7a2c5604bd82b5c1030a976d80e7e93f43c13",
    (16, "default", "pyramid", "reset_run"): "a865665a690832d205074c7e0d90396590b890b99fd923c73d48cf5eeec7762b",
    (16, "default", "pyramid", "run200"): "960f22419ac4fd5297609f304f0f941d8e9561de3a4ca314d18de8bd60960294",
    (16, "default", "pyramid", "steps50"): "4882f18b5d42be2c795bac76f7fa9a5de6420b51feaab8f36d723e846cf10161",
    (16, "n", "all_in_one", "reset_run"): "d250076970b3824f4ccc930c0dff550f042882a56f772d76305f113024554370",
    (16, "n", "all_in_one", "run200"): "66962e44611fcf696d36a18a7644d2423497acfbf1386ed788477f53a443bbbd",
    (16, "n", "all_in_one", "steps50"): "4fbfc9cda2b61670d28d28f9b3fde9a6963d6f2005e5a6b7c7989beeffc85924",
    (16, "n", "balanced", "reset_run"): "a56e6cd4c0164f4e972dd3901871bf54356db9c58b871258934022de555b3ae1",
    (16, "n", "balanced", "run200"): "1c375475b0bb9234a99e053eaf790b967264b87c19ae06266810722d295c13d5",
    (16, "n", "balanced", "steps50"): "5ecbe7d98324bb66e6814fefb291136be3fcb76c920c3e990d33f550d33907e1",
    (16, "n", "pyramid", "reset_run"): "7e42c5a065008a61de34c7afd6751ea56cffce73c6c26ce83df217971f38bbc4",
    (16, "n", "pyramid", "run200"): "911f5140f00d24ca4a3436cb3dc695f2f54b8670f4f26b0c3c4ff2d0392b342c",
    (16, "n", "pyramid", "steps50"): "536cf644710f63f1ed22452580a4889dc597a4f06228d0490fb96d7b3984cd95",
    (16, "zero", "all_in_one", "reset_run"): "8a2afd12a6ffc882b8ed4098f63c39617b814d09a4984d916093ce0afd4454b7",
    (16, "zero", "all_in_one", "run200"): "a6a31d9886615594efca080498cd88eb664a44a584489eea8f632fb811765b74",
    (16, "zero", "all_in_one", "steps50"): "d3d654c1b283975c5a6a787ce4b1fa6af693b5ed1c4076f2f349b12770d7f4fc",
    (16, "zero", "balanced", "reset_run"): "4cb92755201e24dabeeba08ef5bbbb3f490a669104e74ecf1aabbccd99634e02",
    (16, "zero", "balanced", "run200"): "99ac3a9a486f88914370ce5150412ee6b6fe1e07c4ad5f4b5870979cd83130fc",
    (16, "zero", "balanced", "steps50"): "efa3a1f2bf537b8d673fabe3f82e9be85d6d0d75e25fa48adeb09c23182d88de",
    (16, "zero", "pyramid", "reset_run"): "7cf98305411fbc2fb3aa2d2d6a8263b138b7deb161bcff929b034608df248dd3",
    (16, "zero", "pyramid", "run200"): "02e7ac060a025595b21c178fa19522fe746f7d33b3bd8075b7303d2a65a22cb1",
    (16, "zero", "pyramid", "steps50"): "903c2b30be790427ea939393bcf77806ce0d3131f42b71eb918bc42457d60756",
    (37, "default", "all_in_one", "reset_run"): "3f5a931dcea1da9c1881ae2173f9e82ab9e18349a093dc31b8963de5bc1b8da0",
    (37, "default", "all_in_one", "run200"): "e31c9d67acd2e46e2070aacdcdea2388db918789d965dc0c13b2c4c4dbd7b350",
    (37, "default", "all_in_one", "steps50"): "9bbe186531907fb973c13a4a518fb1900562858ea0c3bfc4e4241baba3e3f077",
    (37, "default", "balanced", "reset_run"): "81c71330c3a0765a57f53e6993feb613796934b6b7e8af3193f778f185f62bd6",
    (37, "default", "balanced", "run200"): "3fc02e40ee390edac009ecf4df3dcecd95a0fc44cfebb0957dd06a589be60660",
    (37, "default", "balanced", "steps50"): "0495a6bbc2c5d7358f4522694966d05381d3a584b2c2118a8b4bc728fb407cc6",
    (37, "default", "pyramid", "reset_run"): "72b124d8b008a4a3250671bacefa1514fd87efa23de8098c1cc9cbd754b48dc9",
    (37, "default", "pyramid", "run200"): "27490122650ed24337ec003e58fd8897e1de84b55d7b84f360340e4085fd9b00",
    (37, "default", "pyramid", "steps50"): "ba6e6f13e10c7490440943da709407bad603554c708a739f3f4c654a79244b58",
    (37, "n", "all_in_one", "reset_run"): "9bf15d883906933848120e40d791c4c1050a89cd3f32bf2219a6f2aa51b755ff",
    (37, "n", "all_in_one", "run200"): "9c7593d93a0f436947c7d41d68fac38201fabbb01d2884f96d7267349f4cf6d2",
    (37, "n", "all_in_one", "steps50"): "c89dc9d988a51fcc0821c771d4925d3f92ee296c4e57141095beb079abcfd8b4",
    (37, "n", "balanced", "reset_run"): "352182966875ba466177fc97ada358694a22e90ea5504de9a878c202337922ae",
    (37, "n", "balanced", "run200"): "57865a9727f298ed841e9032f3c0282cc75a7a16be466ee2af495cee88d07f5c",
    (37, "n", "balanced", "steps50"): "360c5daecdf6316d9d315c945c10a6afc43241115f378fc09496eca5de585a00",
    (37, "n", "pyramid", "reset_run"): "7b8d36ab77965298603f490ee576bff99e5bfcca363e132b0b7ddab4572df874",
    (37, "n", "pyramid", "run200"): "e15e334afba1341c08901261e4b36c8b5f10d8d40c0a09f0335b9c32691c1a60",
    (37, "n", "pyramid", "steps50"): "5fb8d60e15e631b3b5981292592e206fe93a5a343a38de51cc66bb0c66d0c938",
    (37, "zero", "all_in_one", "reset_run"): "208c8c51f4f6e41780b276dd6253b22f3e7c00c00a6187f39d6228fd876f872f",
    (37, "zero", "all_in_one", "run200"): "ba93f34c9cfef0c3870afe00ca7284cfd6c635ea232b0b2c55724e72c8c86d8d",
    (37, "zero", "all_in_one", "steps50"): "1ac019692b196c9ec9679af52916f892e5f49f933dc2861625a5e0cacbeaf93e",
    (37, "zero", "balanced", "reset_run"): "6c517401e349fb2fd1e95a65fe7e37889e80c45b2919e42002532a12a833f892",
    (37, "zero", "balanced", "run200"): "7e895f5985dd4a4d56042ef6463b0047e58b6166556f0c572dfd1292ec0d54fb",
    (37, "zero", "balanced", "steps50"): "2bb232e882523ffe7538ca26ab65374829f8291aaa22499624166bd5f1e87e7f",
    (37, "zero", "pyramid", "reset_run"): "c56b85be2057d5f287c3f321622e22da60a0a869dc1cac7a89c616711a99be88",
    (37, "zero", "pyramid", "run200"): "3ad3aeb88c35be2109151cb53b3d26faff4bfe81e4a27613337ae517d3816880",
    (37, "zero", "pyramid", "steps50"): "2f0b6c57c0758e05011af8e98886d29bfb46b66468b5b27188fdc29e29fa1c03",
}

#: SHA-256 of each (n, lam, op) ProbabilisticTetris run from the pyramid.
LEAKY_PINS = {
    (1, 0.0, "reset_run"): "bf38a919650d994aa868343e106f0c093cf446a93d0e9638ce04b31fb4b26cf3",
    (1, 0.0, "run200"): "79da34a6a6b132b60a3794e8e0f236212e716c5ee9bcca504a05e1959b8c1623",
    (1, 0.0, "steps50"): "bfe1cea6d5060be8113c7b4e4f04f050340efc2eccd8ddec03cddac54f9afc78",
    (1, 0.5, "reset_run"): "cc1817bfb5d97ccf4b3ebb31407fddbc4364252a91adec3fb49ed73f2da6a8fd",
    (1, 0.5, "run200"): "2bf007dd3ed60e24c11bbd5a6a66802dedf3630059195992f2243f54c7fde588",
    (1, 0.5, "steps50"): "24b36e0c0e368267d5c56466fd998edeeb48d1a177a002056adb2382da4c7b77",
    (1, 0.99, "reset_run"): "df0f8e7d0cb074b466e46b34a639b12079e1de8dc4cdb95f94f8376ef58bf640",
    (1, 0.99, "run200"): "a3e298bdea7f137edc1261a7272791be8930f115e9dfbfde3f3073af1926377a",
    (1, 0.99, "steps50"): "d7a8808b69f451a8c11cecdb90bd1a96399d03db7f494266a3131655ad65ebad",
    (16, 0.0, "reset_run"): "7cf98305411fbc2fb3aa2d2d6a8263b138b7deb161bcff929b034608df248dd3",
    (16, 0.0, "run200"): "02e7ac060a025595b21c178fa19522fe746f7d33b3bd8075b7303d2a65a22cb1",
    (16, 0.0, "steps50"): "903c2b30be790427ea939393bcf77806ce0d3131f42b71eb918bc42457d60756",
    (16, 0.5, "reset_run"): "f6b2bb6d5c72b6e13ddcf01913bf3e89efa7c4dfbf3ed59b6f9275b92dcde5a0",
    (16, 0.5, "run200"): "a79c98ef1a2f4b6be76c2a90b661ae7c45851f735a8e9f81e289edcd1a2fed89",
    (16, 0.5, "steps50"): "9ad951602e1a5922a76bfb3a74ed27cbd556dc1126d6dbc95e51087e6fdab2ac",
    (16, 0.99, "reset_run"): "700fbc7fa492f531b773b8d9b78a442b45dbc0d82c7807a974dae979dc0ff946",
    (16, 0.99, "run200"): "30288f60ca28c16257ed724301e9d7ff7e09e83276cf7385edd96573d9cd8c90",
    (16, 0.99, "steps50"): "a133e0cf4ea7c940c993a97f2fb1f2a206f8f7ae41805f6d328d0ec4df2555d2",
    (37, 0.0, "reset_run"): "c56b85be2057d5f287c3f321622e22da60a0a869dc1cac7a89c616711a99be88",
    (37, 0.0, "run200"): "3ad3aeb88c35be2109151cb53b3d26faff4bfe81e4a27613337ae517d3816880",
    (37, 0.0, "steps50"): "2f0b6c57c0758e05011af8e98886d29bfb46b66468b5b27188fdc29e29fa1c03",
    (37, 0.5, "reset_run"): "8eef66749462980f6d25fff9d20d67e231d006fd2eb5d6e40c5a4803fe707082",
    (37, 0.5, "run200"): "215fa2702d00a870cda784d5c15d5d59602d1e70cbbdeb77a8c54e961a38ddde",
    (37, 0.5, "steps50"): "f110a6538324c741b22b04e67141db3a73c5adc96d216640b83c7501e41a0cba",
    (37, 0.99, "reset_run"): "300f93f4f9e5276dea660203de4fc6d974b57875aa9f077814ec816b7313f54e",
    (37, 0.99, "run200"): "31613feffff3e6029347715f9644546edcca9113907b7af10c50696b50162c3a",
    (37, 0.99, "steps50"): "78e8bd28e71ced6fdee12583afe5edae4e6f70ca14b098a9159077a7fb0677f3",
}

#: SHA-256 of each (n, start) IndependentThrowsProcess ``run200``.
INDEPENDENT_PINS = {
    (1, "all_in_one"): "9f61a27aed11108c8426ed6a836957d02a5d5f037d7a3be8b83c4ff9dceae167",
    (1, "balanced"): "9f61a27aed11108c8426ed6a836957d02a5d5f037d7a3be8b83c4ff9dceae167",
    (1, "pyramid"): "9f61a27aed11108c8426ed6a836957d02a5d5f037d7a3be8b83c4ff9dceae167",
    (16, "all_in_one"): "66962e44611fcf696d36a18a7644d2423497acfbf1386ed788477f53a443bbbd",
    (16, "balanced"): "1c375475b0bb9234a99e053eaf790b967264b87c19ae06266810722d295c13d5",
    (16, "pyramid"): "911f5140f00d24ca4a3436cb3dc695f2f54b8670f4f26b0c3c4ff2d0392b342c",
    (37, "all_in_one"): "9c7593d93a0f436947c7d41d68fac38201fabbb01d2884f96d7267349f4cf6d2",
    (37, "balanced"): "57865a9727f298ed841e9032f3c0282cc75a7a16be466ee2af495cee88d07f5c",
    (37, "pyramid"): "e15e334afba1341c08901261e4b36c8b5f10d8d40c0a09f0335b9c32691c1a60",
}


@pytest.mark.parametrize("n, start, op", sorted(RBB_PINS))
def test_rbb_stream_is_pinned(n, start, op):
    assert _rbb_digest(n, start, op) == RBB_PINS[n, start, op]


@pytest.mark.parametrize("n, d", sorted(D_CHOICES_PINS))
def test_d_choices_stream_is_pinned(n, d):
    assert _d_choices_digest(n, d) == D_CHOICES_PINS[n, d]


@pytest.mark.parametrize("spec, constrained", sorted(WALKS_PINS))
def test_walks_stream_is_pinned(spec, constrained):
    assert _walks_digest(spec, constrained) == WALKS_PINS[spec, constrained]


@pytest.mark.parametrize("adversary", sorted(FAULTY_PINS))
def test_faulty_stream_is_pinned(adversary):
    assert _faulty_digest(adversary) == FAULTY_PINS[adversary]


@pytest.mark.parametrize("n, arrivals, start, op", sorted(TETRIS_PINS))
def test_tetris_stream_is_pinned(n, arrivals, start, op):
    arrivals_per_round = _tetris_arrivals(n, arrivals)
    digest = _tetris_digest(
        TetrisProcess, n, start, op, arrivals_per_round=arrivals_per_round
    )
    assert digest == TETRIS_PINS[n, arrivals, start, op]


@pytest.mark.parametrize("n, lam, op", sorted(LEAKY_PINS))
def test_probabilistic_tetris_stream_is_pinned(n, lam, op):
    digest = _tetris_digest(ProbabilisticTetris, n, "pyramid", op, lam=lam)
    assert digest == LEAKY_PINS[n, lam, op]


@pytest.mark.parametrize("n, start", sorted(INDEPENDENT_PINS))
def test_independent_throws_stream_is_pinned(n, start):
    digest = _tetris_digest(IndependentThrowsProcess, n, start, "run200")
    assert digest == INDEPENDENT_PINS[n, start]
