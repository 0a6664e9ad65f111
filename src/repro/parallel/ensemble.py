"""The ensemble engine: Monte-Carlo ensembles of the paper's processes.

This module is the single entry point experiments use to run "R independent
replicas" workloads.  An :class:`EnsembleSpec` describes the ensemble
declaratively (process family, size, start family, budget, early stop);
:func:`run_ensemble` executes it as one batched process (see
:mod:`repro.core.batched`) that advances every replica per round with flat
numpy kernels — or, where one exists, a compiled native kernel.  Every
ensemble runs in this process; its parallelism is the native kernel's
threads (``n_threads``), which never change a result.

The single-replica simulators (:class:`~repro.core.process.RepeatedBallsIntoBins`,
:class:`~repro.baselines.d_choices.DChoicesProcess`, ...) are ``R == 1``
views of the same batched processes on the numpy kernel, so with
``kernel="numpy"`` and ``n_replicas=1`` the engine reproduces them stream
for stream.

Four process families are supported through the ``process`` selector:

``"rbb"`` (default)
    The plain 1-choice repeated balls-into-bins process.
``"d_choices"``
    The repeated Greedy[d] allocator of
    :mod:`repro.baselines.d_choices` (``spec.d`` candidate bins per
    re-thrown ball).
``"faulty"``
    The Section 4.1 fault model: the plain process with a per-replica
    adversarial reassignment (``spec.adversary``) every
    ``spec.fault_period`` rounds.  Following the
    :class:`~repro.adversary.faulty_process.FaultyProcess` convention, its
    ``max_load_seen`` window includes the initial and post-fault
    configurations (the adversarial spikes are the quantity of interest),
    whereas the other families track post-step configurations only.
``"graph_walks"``
    The Section 5 generalization: topology-constrained parallel random
    walks on the graph named by ``spec.topology`` (a JSON-scalar spec
    string like ``"torus:32x32"`` resolved through
    :func:`repro.graphs.generators.resolve_topology`; the shared CSR
    topology is built once per process and cached).  ``spec.constrained``
    selects the paper's one-token-per-node mode (default) or the
    every-token-moves comparison process.  Execution runs
    :class:`~repro.graphs.batched.BatchedConstrainedWalks`, whose ``R == 1``
    view is :class:`~repro.graphs.walks.ConstrainedParallelWalks`.

Every run returns the same :class:`~repro.core.batched.EnsembleResult`
schema.  A result is a pure function of ``(spec, seed, kernel)``: the
thread count, ``n_workers`` and the host's core count do not enter it.

Time-varying workloads ride on the same surface: ``spec.scenario`` names a
:mod:`repro.scenarios` schedule (a catalog name like
``"burst_recovery:count=32,at=4"``, an inline JSON object, a dict, or a
:class:`~repro.scenarios.spec.ScenarioSpec`).  The scenario compiler turns
the window into engine segments with state edits (bursts, drains, bin
churn, staged adversaries, topology rewiring, observation-stride changes)
applied between them; a scenario with no events is bit-identical to the
plain static run, and the JSON-scalar spelling means sweeps over scenario
parameters come free.

Observation goes through :mod:`repro.metrics`: ``spec.metrics`` names
trackers (e.g. ``"max_load,legitimacy"``) that the engine passes to the
vectorized run loop (segmenting the native kernel every
``spec.observe_every`` rounds, or fusing observation into it), and the
per-replica series/summaries come back on ``EnsembleResult.metrics``.

Example
-------
>>> spec = EnsembleSpec(n_bins=8, n_replicas=3, rounds=5)
>>> result = run_ensemble(spec, seed=0, kernel="numpy")
>>> result.n_replicas
3
>>> result.final_loads.sum(axis=1).tolist()
[8, 8, 8]
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple, Type, Union

import numpy as np

from .seeding import trial_seed
from ..adversary.adversaries import get_adversary
from ..adversary.batched import BatchedFaultyProcess
from ..adversary.faulty_process import FaultSchedule
from ..baselines.d_choices import BatchedDChoices
from ..core.batched import (
    BatchedLoadProcess,
    BatchedRepeatedBallsIntoBins,
    EnsembleResult,
    INITIAL_KINDS,
    check_state_fits,
    make_ensemble_initial,
)
from ..core.config import DEFAULT_BETA, LoadConfiguration
from ..errors import ConfigurationError
from ..graphs.batched import BatchedConstrainedWalks
from ..graphs.generators import parse_topology_spec, resolve_topology
from ..metrics.registry import build_trackers, normalize_metric_names
from ..rng import as_seed_sequence
from ..scenarios.catalog import resolve_scenario
from ..scenarios.engine import compile_scenario, run_scenario_batched
from ..scenarios.spec import ScenarioSpec
from ..types import SeedLike

__all__ = ["EnsembleSpec", "run_ensemble", "check_engine", "ENGINES", "PROCESSES"]

#: Engine names accepted by :func:`run_ensemble` (``"auto"`` = batched).
ENGINES = ("auto", "batched")

#: Process family -> the batched class that simulates it (``"faulty"``
#: runs the plain process inside a :class:`BatchedFaultyProcess`).  A
#: class's ``native_kernel`` names the compiled kernel the family uses.
BATCHED_CLASSES: Mapping[str, Type[BatchedLoadProcess]] = {
    "rbb": BatchedRepeatedBallsIntoBins,
    "d_choices": BatchedDChoices,
    "faulty": BatchedRepeatedBallsIntoBins,
    "graph_walks": BatchedConstrainedWalks,
}

#: Process families accepted by :class:`EnsembleSpec`.
PROCESSES = tuple(BATCHED_CLASSES)

StartLike = Union[str, LoadConfiguration, np.ndarray]


@dataclass(frozen=True, eq=False)  # eq=False: `start` may be an ndarray
class EnsembleSpec:
    """Declarative description of one Monte-Carlo ensemble.

    Attributes
    ----------
    n_bins, n_replicas, rounds:
        System size, ensemble size, and round budget per replica.
    n_balls:
        Balls per replica (``None`` means ``n_bins``, the paper's setting).
        Refused when negative, and when it or ``n_bins`` is too large for
        the int32 state (see :func:`~repro.core.batched.check_state_fits`).
    start:
        A named start family (one of :data:`~repro.core.batched.INITIAL_KINDS`),
        a single configuration applied to every replica, or a 2-D
        ``(R, n)`` matrix of per-replica starts.
    beta:
        Legitimacy constant for metrics and early stopping.
    stop_when_legitimate:
        Freeze each replica once it reaches a legitimate configuration
        (convergence-time experiments).  Not supported for the ``faulty``
        process (faults would unfreeze replicas).
    warmup_rounds:
        Rounds simulated *before* metric tracking starts (e.g. Lemma 2 only
        claims the empty-bins bound after the first round).  Not supported
        for the ``faulty`` process, whose fault schedule counts from the
        first simulated round.
    process:
        Process family: ``"rbb"`` (plain repeated balls-into-bins),
        ``"d_choices"`` (repeated Greedy[d]), ``"faulty"`` (plain
        process under the Section 4.1 adversary), or ``"graph_walks"``
        (topology-constrained parallel walks on ``topology``).
    d:
        Candidate bins per placement for ``process="d_choices"`` (ignored
        otherwise).
    adversary:
        Adversary name for ``process="faulty"`` (ignored otherwise).
    fault_period, fault_offset:
        Periodic fault schedule for ``process="faulty"``: one fault every
        ``fault_period`` rounds starting at ``fault_offset`` (defaults to
        the period).  ``fault_period=None`` means no faults.
    topology:
        Topology spec string for ``process="graph_walks"`` — a JSON
        scalar like ``"cycle:256"``, ``"torus:32x32"``,
        ``"hypercube:10"``, ``"random_regular:1024:8"``, or
        ``"star:256"`` (see
        :func:`repro.graphs.generators.parse_topology_spec`).  Validated
        at construction time, including that its node count equals
        ``n_bins``; must be ``None`` for the other process families.
    constrained:
        Walk mode for ``process="graph_walks"``: ``True`` (default)
        forwards one token per non-empty node per round (the paper's
        model), ``False`` moves every token independently (the
        no-queueing comparison process).  Ignored otherwise.
    metrics:
        Observed metrics collected during the run, as validated names from
        :data:`repro.metrics.METRIC_NAMES` — a sequence, or a
        comma-separated string (the JSON-scalar spelling sweep specs use,
        e.g. ``"max_load,legitimacy"``).  The engine attaches the
        corresponding batched trackers and the resulting per-replica
        series/summaries ride on ``EnsembleResult.metrics`` through
        aggregation, the store, and the CLI.  Empty by default (no
        observation overhead).
    observe_every:
        Observation stride for the attached trackers; the native kernel
        executes in segments of this length between observation points.
    scenario:
        Optional time-varying workload: any spelling
        :func:`repro.scenarios.resolve_scenario` accepts — a catalog name
        (``"burst_recovery"``, optionally parameterized as
        ``"burst_recovery:count=32,at=4"``), an inline JSON object string
        (the sweep-friendly spelling), a dict, or a
        :class:`~repro.scenarios.spec.ScenarioSpec`.  Validated at
        construction (events must fit the window and the process family).
        Not combinable with ``process="faulty"`` (spell staged
        adversaries as scenario events instead), ``stop_when_legitimate``,
        or ``warmup_rounds``.  A scenario with no events is bit-identical
        to the plain static run.
    """

    n_bins: int
    n_replicas: int
    rounds: int
    n_balls: Optional[int] = None
    start: StartLike = "balanced"
    beta: float = DEFAULT_BETA
    stop_when_legitimate: bool = False
    warmup_rounds: int = 0
    process: str = "rbb"
    d: int = 2
    adversary: str = "concentrate"
    fault_period: Optional[int] = None
    fault_offset: Optional[int] = None
    topology: Optional[str] = None
    constrained: bool = True
    metrics: Union[str, Sequence[str], Tuple[str, ...]] = ()
    observe_every: int = 1
    scenario: Union[str, Mapping, ScenarioSpec, None] = None

    def __post_init__(self) -> None:
        # normalize + validate the metric selection up front (typos fail
        # before anything runs, and sweeps hash the canonical tuple)
        object.__setattr__(self, "metrics", normalize_metric_names(self.metrics))
        if self.observe_every < 1:
            raise ConfigurationError(
                f"observe_every must be >= 1, got {self.observe_every}"
            )
        if self.n_bins < 1:
            raise ConfigurationError(f"n_bins must be >= 1, got {self.n_bins}")
        if self.n_replicas < 1:
            raise ConfigurationError(
                f"n_replicas must be >= 1, got {self.n_replicas}"
            )
        if self.rounds < 0:
            raise ConfigurationError(f"rounds must be >= 0, got {self.rounds}")
        if self.n_balls is not None and self.n_balls < 0:
            raise ConfigurationError(f"n_balls must be >= 0, got {self.n_balls}")
        # the processes refuse a state their int32 loads cannot hold; refuse
        # it here too, so a sweep fails at planning, not at its bad point
        check_state_fits(
            self.n_bins, self.n_bins if self.n_balls is None else self.n_balls
        )
        if self.warmup_rounds < 0:
            raise ConfigurationError(
                f"warmup_rounds must be >= 0, got {self.warmup_rounds}"
            )
        if isinstance(self.start, str) and self.start not in INITIAL_KINDS:
            raise ConfigurationError(
                f"unknown start {self.start!r}; expected one of {INITIAL_KINDS} "
                "or an explicit configuration"
            )
        if self.process not in PROCESSES:
            raise ConfigurationError(
                f"unknown process {self.process!r}; expected one of {PROCESSES}"
            )
        if self.d < 1:
            raise ConfigurationError(f"d must be >= 1, got {self.d}")
        if self.process == "faulty":
            get_adversary(self.adversary)  # validate the name early
            if self.stop_when_legitimate:
                raise ConfigurationError(
                    "stop_when_legitimate is not supported for the faulty "
                    "process (faults would unfreeze replicas)"
                )
            if self.warmup_rounds:
                raise ConfigurationError(
                    "warmup_rounds is not supported for the faulty process "
                    "(the fault schedule counts from the first round)"
                )
            if self.fault_period is not None:
                # a schedule whose first fault lies past the window would
                # silently never fire — reject it at construction
                first_fault = (
                    self.fault_offset
                    if self.fault_offset is not None
                    else self.fault_period
                )
                if first_fault > self.rounds:
                    raise ConfigurationError(
                        f"the fault schedule's first fault (round "
                        f"{first_fault}) is past the window "
                        f"(rounds={self.rounds}); the faults would silently "
                        "never fire"
                    )
        if self.process == "graph_walks":
            if self.topology is None:
                raise ConfigurationError(
                    "process='graph_walks' requires a topology spec, e.g. "
                    "topology='torus:32x32' (see repro.graphs.generators)"
                )
            parsed = parse_topology_spec(self.topology)
            if parsed.num_nodes != self.n_bins:
                raise ConfigurationError(
                    f"topology {self.topology!r} has {parsed.num_nodes} "
                    f"nodes but the spec says n_bins={self.n_bins}; they "
                    "must agree (n_bins keys aggregation and the store)"
                )
        elif self.topology is not None:
            raise ConfigurationError(
                f"topology={self.topology!r} is only meaningful for "
                "process='graph_walks'"
            )
        if self.scenario is not None:
            if self.process == "faulty":
                raise ConfigurationError(
                    "scenario= is not supported for process='faulty'; spell "
                    "staged adversaries as scenario 'adversary' events on "
                    "the plain process instead"
                )
            if self.stop_when_legitimate:
                raise ConfigurationError(
                    "scenario= cannot be combined with stop_when_legitimate "
                    "(the scenario clock requires every replica to advance)"
                )
            if self.warmup_rounds:
                raise ConfigurationError(
                    "scenario= cannot be combined with warmup_rounds (the "
                    "event clock counts from the first simulated round)"
                )
            # resolve + expand now so malformed scenarios fail at
            # construction, exactly like every other spec field
            self.resolved_scenario().validate_for(self)

    def resolved_scenario(self) -> Optional[ScenarioSpec]:
        """The :class:`~repro.scenarios.spec.ScenarioSpec` this spec names."""
        return resolve_scenario(self.scenario)

    def fault_schedule(self) -> FaultSchedule:
        """The :class:`FaultSchedule` described by the fault fields."""
        if self.fault_period is None:
            return FaultSchedule.never()
        return FaultSchedule(period=self.fault_period, offset=self.fault_offset)


def _initial(
    spec: EnsembleSpec, seed: np.random.SeedSequence
) -> Union[LoadConfiguration, np.ndarray, None]:
    """The ensemble's starting block (``None``: the constructor's default)."""
    start = spec.start
    if not isinstance(start, str):
        return start
    if start == "balanced" and spec.n_balls is None:
        return None
    return make_ensemble_initial(
        start, spec.n_bins, spec.n_replicas, n_balls=spec.n_balls, seed=seed
    )


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
def _spec_trackers(spec: EnsembleSpec) -> List[tuple]:
    """The ``(name, tracker)`` pairs this spec's metric selection requests.

    Trackers are bound to their ``(R, n)`` dimensions eagerly so payloads
    carry well-shaped per-replica vectors even when a run executes zero
    rounds (e.g. every replica passes the early-stop pre-check).
    """
    trackers = build_trackers(spec.metrics, beta=spec.beta)
    for _, tracker in trackers:
        tracker.bind(spec.n_replicas, spec.n_bins)
    return trackers


def _make_batched_process(
    spec: EnsembleSpec, initial, seed, kernel: str, n_threads: Optional[int]
) -> BatchedLoadProcess:
    """Build the batched process that simulates the ensemble."""
    n_balls = spec.n_balls if initial is None else None
    cls = BATCHED_CLASSES[spec.process]
    if cls is BatchedDChoices:
        return BatchedDChoices(
            spec.n_bins,
            spec.n_replicas,
            d=spec.d,
            n_balls=n_balls,
            initial=initial,
            seed=seed,
            kernel=kernel,
            n_threads=n_threads,
        )
    if cls is BatchedConstrainedWalks:
        return BatchedConstrainedWalks(
            resolve_topology(spec.topology),
            spec.n_replicas,
            n_tokens=n_balls,
            initial=initial,
            constrained=spec.constrained,
            seed=seed,
            kernel=kernel,
            n_threads=n_threads,
        )
    return BatchedRepeatedBallsIntoBins(
        spec.n_bins,
        spec.n_replicas,
        n_balls=n_balls,
        initial=initial,
        seed=seed,
        kernel=kernel,
        n_threads=n_threads,
    )


def _run_batched(
    spec: EnsembleSpec, seed, kernel: str, n_threads: Optional[int]
) -> EnsembleResult:
    """Run the whole ensemble from one seed: its child 0 draws the start,
    child 1 the simulation."""
    init_seq, sim_seq = trial_seed(seed, 0), trial_seed(seed, 1)
    initial = _initial(spec, init_seq)
    trackers = _spec_trackers(spec)
    observers = [tracker for _, tracker in trackers] or None
    if spec.process == "faulty":
        faulty = BatchedFaultyProcess(
            spec.n_bins,
            spec.n_replicas,
            adversary=spec.adversary,
            schedule=spec.fault_schedule(),
            n_balls=spec.n_balls if initial is None else None,
            initial=initial,
            seed=sim_seq,
            kernel=kernel,
            n_threads=n_threads,
        )
        result = faulty.run(
            spec.rounds,
            beta=spec.beta,
            observers=observers,
            observe_every=spec.observe_every,
        ).to_ensemble_result()
    else:
        batch = _make_batched_process(spec, initial, sim_seq, kernel, n_threads)
        if spec.scenario is not None:
            program = compile_scenario(
                spec.resolved_scenario(), spec.rounds, spec.observe_every
            )
            result = run_scenario_batched(
                batch,
                program,
                beta=spec.beta,
                observers=observers,
                rewire=_batched_rewire_hook(spec, kernel, n_threads),
            )
        else:
            if spec.warmup_rounds:
                # metric tracking (and therefore observation) starts after
                # the warm-up window
                batch.advance_window(spec.warmup_rounds, beta=spec.beta)
            result = batch.run(
                spec.rounds,
                beta=spec.beta,
                stop_when_legitimate=spec.stop_when_legitimate,
                observers=observers,
                observe_every=spec.observe_every,
            )
    result.metrics = {name: tracker.payload() for name, tracker in trackers}
    return result


def _batched_rewire_hook(
    spec: EnsembleSpec, kernel: str, n_threads: Optional[int]
):
    """The scenario interpreter's topology-rewire callback.

    The replacement process carries the current loads, continues the same
    generator, and has its round clock shifted back onto the run's global
    clock so observation rounds and first-legitimate translation stay
    trivial.  Scenario runs never deactivate replicas, so every replica
    sits at the same global round at a rewire boundary.
    """

    def rewire(process, event):
        replacement = BatchedConstrainedWalks(
            resolve_topology(event.topology),
            process.n_replicas,
            initial=process.loads,
            constrained=spec.constrained,
            seed=process.rng,
            kernel=kernel,
            n_threads=n_threads,
        )
        replacement.advance_clock(int(process.rounds_completed[0]))
        return replacement

    return rewire


def check_engine(engine: str) -> None:
    """Validate an ``engine=`` coordinate, naming the replacement of removed ones."""
    if engine == "sequential":
        raise ConfigurationError(
            "engine='sequential' has been removed; use the default engine "
            "(engine='auto' or 'batched'): with kernel='numpy' and "
            "n_replicas=1 it reproduces the single-replica simulators "
            "stream for stream"
        )
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )


def run_ensemble(
    spec: EnsembleSpec,
    seed: SeedLike = None,
    engine: str = "auto",
    n_workers: int = 0,
    kernel: str = "auto",
    n_threads: Optional[int] = None,
) -> EnsembleResult:
    """Run one ensemble through the batched engine, in this process.

    Parameters
    ----------
    spec:
        The declarative ensemble description (including the process family).
    seed:
        Root seed.  The ensemble's streams come from
        ``trial_seed(seed, 0)`` without advancing ``seed``, so the result
        is the same also when the same seed object is passed again.
    engine:
        ``"auto"`` or ``"batched"`` (the same engine; the keyword stays
        because stored sweep headers pin it).
    n_workers:
        Accepted for callers that still pass it; it never changes the
        result.  ``0`` and ``1`` run in process; a value above 1 also runs
        in process, with a ``RuntimeWarning`` that points at
        ``n_threads``.  A negative value is refused.
    kernel:
        Kernel selection forwarded to the batched process
        (``"auto"``/``"numpy"``/``"native"``); every process family has
        a native kernel.
    n_threads:
        Native-kernel threads, the one way to run an ensemble in
        parallel (an execution knob: results are bit-identical for
        every value).  ``None`` defers to ``REPRO_NATIVE_THREADS`` and
        then to the visible CPU count.
    """
    check_engine(engine)
    workers = n_workers or 0
    if workers < 0:
        raise ConfigurationError(f"n_workers must be >= 0, got {n_workers}")
    if workers > 1:
        warnings.warn(
            f"run_ensemble: n_workers={n_workers} runs in process; an "
            "ensemble runs in parallel on the native kernel's threads, so "
            "pass n_threads instead (neither changes the result)",
            RuntimeWarning,
            stacklevel=2,
        )
    # child 0 of the root, so stored sweeps and pinned digests keep
    # their streams
    return _run_batched(
        spec, trial_seed(as_seed_sequence(seed), 0), kernel, n_threads
    )
