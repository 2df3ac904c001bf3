"""Layer spans recorded from outside the program.

The benchmark never edits ``src/``: it wraps each layer's public entry
points (see ``LAYER_ENTRY_POINTS``) while a :class:`Tracer` is installed,
and the wrappers record one span per call -- name, start, end, parent
span and op id -- into memory.  The spans are written out when the run
ends.  While the tracer is inactive the wrappers only test one flag.

A span belongs to the op of the thread that records it.  A thread with
no op of its own -- a pool dispatcher, say -- records into the op most
recently opened in the process, so work that escapes the op's thread is
still counted against that op (and shows up in its attribution gap)
instead of being dropped.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

from benchstats import Span

#: (module, attribute path, span name, counter hook name or None).  Every
#: module that imported a function by name is listed, so each call site
#: goes through the wrapper.
LAYER_ENTRY_POINTS: Tuple[Tuple[str, str, str, Optional[str]], ...] = (
    ("repro.core.emulator", "EmulationSession.run", "emulate", "emulate"),
    ("repro.core.collator", "TraceCollator.collate", "collate", "collate"),
    ("repro.core.columnar", "columnar_worker_trace", "lower", None),
    ("repro.core.simulator.engine", "columnar_worker_trace", "lower", None),
    ("repro.core.simulator.providers", "columnar_worker_trace", "lower",
     None),
    ("repro.core.columnar", "engine_program", "lower", None),
    ("repro.core.simulator.engine", "engine_program", "lower", None),
    ("repro.core.simulator.providers",
     "EstimatedDurationProvider.kernel_duration", "estimate", None),
    ("repro.core.simulator.providers",
     "EstimatedDurationProvider.collective_duration", "estimate", None),
    ("repro.core.simulator.providers",
     "EstimatedDurationProvider.annotate_trace", "annotate", None),
    ("repro.core.simulator.engine", "ClusterSimulator.simulate", "replay",
     "replay"),
    ("repro.core.pipeline", "MayaPipeline.predict", "pipeline", None),
    ("repro.service.predictor", "PredictionService.predict", "cache", None),
    ("repro.service.predictor", "PredictionService.predict_many", "cache",
     None),
    ("repro.service.store", "ArtifactStore.get", "store.get", None),
    ("repro.service.store", "ArtifactStore.put", "store.put", None),
    ("repro.service.backends", "EvaluationBackend.evaluate",
     "backend.evaluate", None),
    ("repro.search.runner", "MayaSearch.run", "search.run", None),
    ("repro.search.runner", "MayaTrialEvaluator.evaluate_many",
     "search.evaluate_many", None),
)

#: Spans that are glue around the named compute layers; their self time
#: is the trial's unattributed time.
GLUE_SPANS = ("op", "cache", "pipeline")


def _count_emulate(counters: Dict[str, float], args, result) -> None:
    counters["emulate.trace_events"] += result.job_trace.total_events()


def _count_collate(counters: Dict[str, float], args, result) -> None:
    counters["collate.traces_in"] += len(args[1].workers)
    counters["collate.traces_out"] += result.unique_trace_count()


def _count_replay(counters: Dict[str, float], args, result) -> None:
    metadata = result.metadata
    counters["replay.events"] += int(metadata.get("processed_events", 0))
    folding = metadata.get("iteration_folding") or {}
    counters["replay.iterations"] += max(int(result.iterations), 1)
    counters["replay.folded_iterations"] += int(
        folding.get("folded_iterations", 0))


_COUNTER_HOOKS: Dict[str, Callable] = {
    "emulate": _count_emulate,
    "collate": _count_collate,
    "replay": _count_replay,
}


class Tracer:
    """In-memory span recorder with per-thread parent stacks."""

    def __init__(self) -> None:
        self.active = False
        self.spans: List[Span] = []
        #: Per-op counters from the layer hooks: op -> name -> value.
        self.counters: Dict[object, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        #: Spans recorded by a thread outside its own op while another
        #: thread had one open; each is counted against that op.
        self.strays = 0
        self._ids = itertools.count()
        self._local = threading.local()
        #: Ops open in this process, most recent last.
        self._open_ops: List[object] = []
        self._undo: List[Callable[[], None]] = []
        self._owner = os.getpid()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, hook: Optional[Callable], fn: Callable,
             args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        op = getattr(self._local, "op", None)
        if op is None and self._open_ops:
            op = self._open_ops[-1]
            self.strays += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, op))
        if hook is not None:
            hook(self.counters[op], args, result)
        return result

    @contextmanager
    def op(self, op_id):
        """Root span of one op; every span below it carries ``op_id``."""
        if not self.active:
            yield
            return
        self._local.op = op_id
        self._open_ops.append(op_id)
        stack = self._stack()
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, "op", start, end, None, op_id))
            self._open_ops.remove(op_id)
            self._local.op = None

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer entry point (idempotent per tracer)."""
        if self._undo:
            return
        originals: Dict[Tuple[str, str], Callable] = {}
        for module_name, path, name, hook_name in LAYER_ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner_path, _, attribute = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            original = getattr(owner, attribute)
            key = (getattr(original, "__module__", module_name),
                   getattr(original, "__qualname__", path))
            original = originals.setdefault(key, original)
            wrapper = self._wrap(name, _COUNTER_HOOKS.get(hook_name),
                                 original)
            had_own = attribute in vars(owner)
            setattr(owner, attribute, wrapper)
            self._undo.append(self._restorer(owner, attribute, original,
                                             had_own))
        # Pool workers forked while tracing inherit the wrappers; their
        # spans could never reach this process, so they record nothing.
        os.register_at_fork(after_in_child=self._after_fork)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()
        self.active = False

    def _after_fork(self) -> None:
        if os.getpid() != self._owner:
            self.active = False

    def _wrap(self, name: str, hook: Optional[Callable],
              fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            return tracer.call(name, hook, fn, args, kwargs)

        return wrapper

    @staticmethod
    def _restorer(owner, attribute: str, original: Callable,
                  had_own: bool) -> Callable[[], None]:
        def restore() -> None:
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        return restore

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def write(self, path: str) -> None:
        """Write the spans as JSON lines, one
        ``[id, name, start, end, parent, op]`` array per span."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")
