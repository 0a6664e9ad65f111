"""Scenario compiler + segment interpreter for the ensemble engine.

:func:`compile_scenario` turns a :class:`~repro.scenarios.spec.ScenarioSpec`
plus a window (``rounds``, ``observe_every``) into a flat
:class:`ScenarioProgram`: an alternating sequence of :class:`Run` segments
(handed to the engine as whole calls — one FFI call each with the native
kernels) and :class:`Apply` state edits.  The compiler's one non-obvious
job is keeping the *observation clock* identical to the static run's: the
engines observe every ``observe_every`` executed rounds of a single
``run()`` call **and** at the end of every observed call, so a segment
boundary landing between stride points would fire a spurious observation.
The compiler therefore decomposes every inter-event stretch into

* a *head* run ending exactly at the next stride point (observed once, at
  its end),
* a *middle* run covering the remaining whole strides (observed every
  ``observe_every`` rounds), and
* an unobserved *tail* for leftover rounds before a non-final event
  boundary (the window statistics still accumulate; only observers skip).

A scenario with **no events compiles to the single static engine call** —
bit-equality with the plain run is by construction, not by special-casing
(the ``repro verify`` scenario gate enforces it).

``observe_every`` events re-anchor the stride clock: after a stride change
at round ``c`` the grid continues at ``c - 1 + k * value``.

>>> from repro.scenarios.spec import ScenarioSpec, ScenarioEvent
>>> compile_scenario(ScenarioSpec(), rounds=10, observe_every=4).actions
(Run(rounds=10, observe_every=4, observed=True),)
>>> burst = ScenarioSpec(events=(ScenarioEvent(kind="burst", round=7, count=3),))
>>> program = compile_scenario(burst, rounds=10, observe_every=4)
>>> [type(a).__name__ for a in program.actions]
['Run', 'Run', 'Apply', 'Run', 'Run']
>>> program.observation_rounds   # the static 4, 8, 10 grid, unshifted
(4, 8, 10)
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from .events import apply_event
from .spec import CONSERVING_KINDS, ScenarioEvent, ScenarioSpec
from ..core.batched import EnsembleResult
from ..core.config import DEFAULT_BETA
from ..errors import ScenarioError
from ..metrics.base import BatchedObserverList

__all__ = [
    "Run",
    "Apply",
    "ScenarioProgram",
    "compile_scenario",
    "run_scenario_batched",
]


@dataclass(frozen=True)
class Run:
    """One engine segment: ``rounds`` rounds as a single ``run()`` call."""

    rounds: int
    observe_every: int
    observed: bool


@dataclass(frozen=True)
class Apply:
    """One state edit, firing before global round ``round`` executes."""

    event: ScenarioEvent
    round: int


@dataclass(frozen=True)
class ScenarioProgram:
    """A compiled scenario: the action list one window interprets."""

    rounds: int
    actions: Tuple[Union[Run, Apply], ...]
    #: Global rounds at which attached observers fire — identical to the
    #: equivalent static run's schedule (plus the effect of any
    #: ``observe_every`` events).
    observation_rounds: Tuple[int, ...]

    @property
    def n_segments(self) -> int:
        return sum(1 for a in self.actions if isinstance(a, Run))

    @property
    def n_events(self) -> int:
        return sum(1 for a in self.actions if isinstance(a, Apply))


def compile_scenario(
    scenario: ScenarioSpec, rounds: int, observe_every: int = 1
) -> ScenarioProgram:
    """Compile a scenario into the segment/edit program for one window."""
    if rounds < 0:
        raise ScenarioError(f"rounds must be >= 0, got {rounds}")
    if observe_every < 1:
        raise ScenarioError(
            f"observe_every must be >= 1, got {observe_every}"
        )
    if rounds == 0:
        # the static engines accept a zero-round run (reporting the
        # current configuration); mirror it as one empty observed segment
        return ScenarioProgram(
            rounds=0,
            actions=(Run(rounds=0, observe_every=observe_every, observed=True),),
            observation_rounds=(),
        )

    actions: List[Union[Run, Apply]] = []
    observation_rounds: List[int] = []
    stride = observe_every
    origin = 0  # the stride grid is {origin + k * stride}
    cur = 0  # global rounds executed so far

    def emit_stretch(hi: int, final: bool) -> None:
        """Emit Run actions covering global rounds ``cur + 1 .. hi``."""
        nonlocal cur
        if hi <= cur:
            return
        if (cur - origin) % stride != 0:
            # head: land back on the stride grid (or finish the stretch)
            first_grid = cur + stride - (cur - origin) % stride
            if first_grid <= hi:
                length = first_grid - cur
                actions.append(Run(length, length, True))
                observation_rounds.append(first_grid)
                cur = first_grid
            elif final:
                length = hi - cur
                actions.append(Run(length, length, True))
                observation_rounds.append(hi)
                cur = hi
            else:
                actions.append(Run(hi - cur, stride, False))
                cur = hi
            if cur >= hi:
                return
        # cur now sits on the stride grid
        if final:
            length = hi - cur
            actions.append(Run(length, stride, True))
            whole = length // stride
            observation_rounds.extend(
                cur + (k + 1) * stride for k in range(whole)
            )
            if length % stride:
                observation_rounds.append(hi)  # end-of-window observation
            cur = hi
            return
        whole = (hi - cur) // stride
        if whole:
            actions.append(Run(whole * stride, stride, True))
            observation_rounds.extend(
                cur + (k + 1) * stride for k in range(whole)
            )
            cur += whole * stride
        if hi > cur:
            # leftover rounds before the event boundary: simulate them
            # without observers so the stride clock does not shift
            actions.append(Run(hi - cur, stride, False))
            cur = hi

    expanded = scenario.expand_events(rounds)
    for when, group in groupby(expanded, key=lambda pair: pair[0]):
        emit_stretch(when - 1, final=False)
        for _, event in group:
            if event.kind == "observe_every":
                stride = event.value
                origin = cur  # == when - 1: the new grid starts here
            else:
                actions.append(Apply(event=event, round=when))
    emit_stretch(rounds, final=True)
    return ScenarioProgram(
        rounds=rounds,
        actions=tuple(actions),
        observation_rounds=tuple(observation_rounds),
    )


# ----------------------------------------------------------------------
# Batched interpreter
# ----------------------------------------------------------------------
def run_scenario_batched(
    process,
    program: ScenarioProgram,
    beta: float = DEFAULT_BETA,
    observers=None,
    rewire: Optional[Callable] = None,
) -> EnsembleResult:
    """Interpret a compiled program on a batched ``(R, n)`` process.

    Each :class:`Run` is one engine call through the process'
    ``advance_window``, on the path its plan picks (see
    :meth:`~repro.core.batched.BatchedLoadProcess.plan_window`), which
    returns only the window vectors and that plan; the loads are copied
    into the result once, at the end.  Each :class:`Apply`
    edits the ``(R, n)`` state between calls, drawing from the process'
    own stream.
    Ball-conserving edits go through ``inject_loads`` (conservation
    enforced), ``burst``/``drain`` through ``replace_loads``.  ``rewire``
    events call the ``rewire(process, event)`` hook, which must return the
    replacement process carrying the same loads, stream, and global clock.

    Post-edit configurations fold into ``max_load_seen`` only (the
    injected spike is the quantity of interest), mirroring
    :class:`~repro.adversary.batched.BatchedFaultyProcess`.  The
    per-replica round clock stays global across segments, so
    ``first_legitimate_round`` needs no translation.
    """
    obs = BatchedObserverList.coerce(observers)
    R = process.n_replicas
    first_legit = np.full(R, -1, dtype=np.int64)
    max_seen = np.zeros(R, dtype=np.int64)
    min_empty = np.full(R, process.n_bins, dtype=np.int64)
    executed = np.zeros(R, dtype=np.int64)
    kernels = set()
    for action in program.actions:
        if isinstance(action, Run):
            window = process.advance_window(
                action.rounds,
                beta=beta,
                observers=obs if action.observed else None,
                observe_every=action.observe_every,
            )
            kernels.add(window.plan.kernel)
            executed += window.rounds
            np.maximum(max_seen, window.max_load_seen, out=max_seen)
            np.minimum(min_empty, window.min_empty_bins_seen, out=min_empty)
            hit = window.first_legitimate_round >= 0
            np.copyto(
                first_legit,
                window.first_legitimate_round,
                where=hit & (first_legit < 0),
            )
        else:
            event = action.event
            if event.kind == "rewire":
                if rewire is None:
                    raise ScenarioError(
                        "rewire event but no rewire hook was provided"
                    )
                process = rewire(process, event)
                continue
            edited = apply_event(event, process.loads, process.rng)
            if event.kind in CONSERVING_KINDS:
                process.inject_loads(edited)
            else:
                process.replace_loads(edited)
            np.maximum(max_seen, edited.max(axis=1), out=max_seen)
    # a program always holds a Run; only a rewire can change the kernel
    kernel = kernels.pop() if len(kernels) == 1 else "mixed"
    return EnsembleResult(
        n_bins=process.n_bins,
        rounds=executed,
        final_loads=process.loads.astype(np.int64),
        max_load_seen=max_seen,
        min_empty_bins_seen=min_empty,
        first_legitimate_round=first_legit,
        beta=beta,
        kernel=kernel,
    )
