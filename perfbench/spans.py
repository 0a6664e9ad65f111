"""Layer spans for the traced run, recorded from the benchmark's own files.

:meth:`Tracer.install` wraps each layer's public entry points where its callers
look them up, and :meth:`Tracer.uninstall` restores the originals, so an
untraced op runs exactly the program's code.  A span is
``(name, start, end, parent, op)``; spans stay in memory until
:meth:`Tracer.dump` writes them out at exit.  A span's self time is its
duration minus its children's.

A target that a later version of the program no longer has is skipped
and listed in :attr:`Tracer.missing`, so the traced run keeps working
and says what it could not see.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional

import repro.adversary.adversaries as adversaries
import repro.adversary.batched as adversary_batched
import repro.baselines.d_choices as d_choices
import repro.core.batched as batched
import repro.metrics.base as metrics_base
import repro.metrics.registry as registry
import repro.parallel.ensemble as ensemble
import repro.store.store as store
import repro.sweeps.scheduler as scheduler

KERNEL = "core.native.kernel"


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []  # (name, start, end, parent, op)
        self.op: Optional[object] = None  # id of the op being traced
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._patched: List[tuple] = []
        self._kernels: Dict[int, object] = {}

    def wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)

        return traced

    def _resolve(self, owner, attr: str):
        """``(owner, attr, original, inherited)``, or ``None`` if missing."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return None
        inherited = isinstance(owner, type) and attr not in owner.__dict__
        return owner, attr, original, inherited

    def _traced_get_kernel(self, get_kernel):
        """``get_kernel`` whose entry points record a kernel span per call."""

        @functools.wraps(get_kernel)
        def traced_get_kernel(*args, **kwargs):
            fn = get_kernel(*args, **kwargs)
            if fn is None:
                return None
            if id(fn) not in self._kernels:
                self._kernels[id(fn)] = self.wrap(fn, KERNEL)
            return self._kernels[id(fn)]

        return traced_get_kernel

    def install(self) -> None:
        """Wrap every layer entry point the workloads reach."""
        wrap = self.wrap
        self.missing = []
        targets = [
            (ensemble, "run_ensemble", "parallel.ensemble"),
            (scheduler, "run_ensemble", "parallel.ensemble"),
            (scheduler, "run_sweep", "sweeps.scheduler"),
            (scheduler, "expand_sweep", "sweeps.plan"),
            (ensemble, "make_ensemble_initial", "core.batched.build"),
            (d_choices.BatchedDChoices, "run", "baselines.d_choices.run"),
            (d_choices.BatchedDChoices, "__init__", "core.batched.build"),
            (batched.BatchedRepeatedBallsIntoBins, "__init__", "core.batched.build"),
            (adversary_batched.BatchedFaultyProcess, "__init__", "core.batched.build"),
            (batched.BatchedLoadProcess, "run", "core.batched.run"),
            (batched.BatchedLoadProcess, "inject_loads", "core.batched.inject"),
            (adversary_batched.BatchedFaultyProcess, "run", "adversary.run"),
            (adversaries.Adversary, "apply_batch", "adversary.apply"),
            (metrics_base.BatchedObserverList, "observe", "metrics.observe"),
            (store.ResultStore, "append_point", "store.append"),
        ]
        trackers = {type(registry.make_tracker(n)) for n in registry.METRIC_NAMES}
        for attr, name in (("ingest_fused", "metrics.fused_ingest"),
                           ("payload", "metrics.payload")):
            owners = {
                next(c for c in cls.__mro__ if attr in c.__dict__)
                for cls in trackers if hasattr(cls, attr)
            }
            targets += [(owner, attr, name) for owner in owners]
        # read every original before patching any, so a subclass's inherited
        # method is wrapped once, not on top of its patched base
        resolved = [
            (self._resolve(owner, attr), name) for owner, attr, name in targets
        ]
        for found, name in resolved:
            if found is not None:
                owner, attr, original, inherited = found
                setattr(owner, attr, wrap(original, name))
                self._patched.append(found)
        found = self._resolve(batched, "get_kernel")
        if found is not None:
            batched.get_kernel = self._traced_get_kernel(found[2])
            self._patched.append(found)

    def uninstall(self) -> None:
        """Restore every original entry point."""
        while self._patched:
            owner, attr, original, inherited = self._patched.pop()
            if inherited:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def op_layers(self, op) -> Dict[str, Dict[str, float]]:
        """Per span name: count, inclusive and self seconds within one op.

        Inclusive time counts only the outermost span of each name, so a
        builder nested in another builder is not counted twice.
        """
        spans = self.spans
        child_time: Dict[int, float] = defaultdict(float)
        for name, start, end, parent, span_op in spans:
            if span_op == op and parent >= 0:
                child_time[parent] += end - start
        layers: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for index, (name, start, end, parent, span_op) in enumerate(spans):
            if span_op != op:
                continue
            layer = layers[name]
            layer["count"] += 1
            layer["self_s"] += end - start - child_time[index]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                layer["total_s"] += end - start
        return layers

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "op")
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")
