"""Span recorders for the traced benchmark run, installed from outside src/.

:meth:`Tracer.install` replaces the public functions of each ``repro``
layer (the :data:`LAYERS` table) with wrappers that record one span per
call; :meth:`Tracer.uninstall` puts the originals back.  A wrapper
patches the attribute its caller looks up: a function imported by name
into another module (``run_campaign_parallel`` in ``fuzz/driver.py``) is
patched in that module, not where it is defined.

Hot spans (one per event or decision) are aggregated in memory as count,
busy time and self time per span name.  Request and trial spans are also
kept one by one, with the id of the span that caused them, and written
out by :meth:`Tracer.write_spans` when the run ends.  A span's self time
is its duration minus the time its child spans cover; spans nest on one
stack because every traced call runs on the benchmark's main thread.

Work that ``src/`` inlines into its caller has no function of its own to
wrap, so it is attributed to that caller.  The executor's step loop and
op handlers, the inlined race-detector shortcut and the inlined
visibility updates all count as ``runtime.run`` (or ``tso.run``) self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from typing import Dict, List, Tuple

#: ``(module, class or None, attribute, span name)``.  ``None`` patches a
#: module global: the name a caller in that module looks up.
LAYERS: Tuple[Tuple[str, object, str, str], ...] = (
    ("repro.harness.campaign", "TrialRunner", "run", "harness.trial"),
    ("repro.harness.campaign", "TrialRunner", "_record_failure",
     "replay.record"),
    ("repro.harness.campaign", None, "run_campaign", "harness.campaign"),
    ("repro.harness.parallel", None, "run_campaign", "harness.campaign"),
    ("repro.runtime.executor", "Executor", "run", "runtime.run"),
    ("repro.runtime.executor", "ExecutionState", "reset",
     "runtime.state_reset"),
    ("repro.tso.backend", "TsoExecutionState", "reset",
     "runtime.state_reset"),
    ("repro.runtime.scheduler", "ReadContext", "candidates",
     "runtime.read_context"),
    ("repro.runtime.scheduler", "ReadContext", "latest",
     "runtime.read_context"),
    ("repro.runtime.scheduler", "ReadContext", "floor_index",
     "runtime.read_context"),
    ("repro.runtime.scheduler", "ReadContext", "floor_event",
     "runtime.read_context"),
    ("repro.runtime.scheduler", "ReadContext", "bounded",
     "runtime.read_context"),
    ("repro.runtime.thread", "ThreadState", "advance",
     "workloads.thread_advance"),
    *(("repro.memory.execution", "ExecutionGraph", method, "memory.graph")
      for method in ("add_init_write", "add_write", "issue_write",
                     "commit_write", "add_read", "add_rmw", "add_fence")),
    ("repro.memory.races", "RaceDetector", "on_access", "memory.races"),
    ("repro.memory.axioms", "IncrementalCoherenceChecker", "on_event",
     "memory.sanitizer"),
    ("repro.runtime.executor", None, "check_consistency",
     "memory.sanitizer"),
    ("repro.tso.backend", "TsoExecutor", "run", "tso.run"),
    ("repro.tso.backend", "TsoExecutionState", "enabled_tids",
     "tso.enabled"),
    ("repro.fuzz.driver", None, "minimize_trace", "replay.minimize"),
    ("repro.replay.minimize", None, "greedy_ddmin", "replay.minimize"),
    ("repro.fuzz.shrink", None, "greedy_ddmin", "replay.minimize"),
    ("repro.fuzz.driver", None, "plan_program", "fuzz.generate"),
    ("repro.fuzz.driver", None, "build_plan_program", "fuzz.generate"),
    ("repro.fuzz.driver", None, "generate_spec", "fuzz.generate"),
    ("repro.fuzz.driver", None, "estimate_parameters", "fuzz.estimate"),
    ("repro.fuzz.driver", None, "_probe_batch", "fuzz.probe"),
    ("repro.fuzz.driver", None, "run_campaign_parallel", "fuzz.campaign"),
    ("repro.fuzz.driver", None, "shrink_plan", "fuzz.shrink"),
    ("repro.fuzz.driver", None, "save_entry", "fuzz.corpus"),
    ("repro.fuzz.driver", None, "replay_entry", "fuzz.corpus"),
)

#: Scheduler hooks, patched on every registry scheduler class (and its
#: bases) that defines them.
SCHEDULER_HOOKS: Dict[str, str] = {
    "choose_thread": "core.choose_thread",
    "choose_read_from": "core.choose_read_from",
    "on_event_executed": "core.on_event_executed",
    "on_run_start": "core.run_start",
    "reseed": "core.run_start",
}

#: Spans kept one by one (besides the benchmark's own request spans).
KEPT = frozenset({"harness.trial"})


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        #: One ``[child_ns]`` cell per open span, innermost last.
        self._stack: List[list] = []
        #: Ids of the open kept spans, innermost last.
        self._open: List[int] = []
        self._next_id = 1
        #: ``name -> [count, busy_ns, self_ns]``.
        self.totals: Dict[str, list] = {}
        #: ``(id, parent id, name, start_ns, end_ns, self_ns)`` per kept span.
        self.kept: List[tuple] = []
        #: Bytes of the bug artifacts written while installed.
        self.artifact_bytes = 0
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _slot(self, name: str) -> list:
        return self.totals.setdefault(name, [0, 0, 0])

    def _wrap(self, name: str, fn):
        slot = self._slot(name)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def hot(*args, **kwargs):
            cell = [0]
            stack.append(cell)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                slot[0] += 1
                slot[1] += duration
                slot[2] += duration - cell[0]

        if name not in KEPT:
            return hot

        @functools.wraps(fn)
        def kept(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return kept

    def span(self, name: str) -> "_Span":
        """A kept span around a block (requests, trials)."""
        return _Span(self, name)

    # -- patching -------------------------------------------------------------

    def _patch(self, owner, attr: str, name: str) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if isinstance(original, property):
            replacement = property(self._wrap(name, original.fget))
        else:
            replacement = self._wrap(name, original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every layer in :data:`LAYERS` and every scheduler hook."""
        from repro.core.factory import SCHEDULER_REGISTRY

        for module_name, owner_name, attr, name in LAYERS:
            owner = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(owner, owner_name)
            self._patch(owner, attr, name)
        seen = set()
        for cls in SCHEDULER_REGISTRY.values():
            for base in cls.__mro__:
                if base in seen or base is object:
                    continue
                seen.add(base)
                for hook, name in SCHEDULER_HOOKS.items():
                    if hook in base.__dict__:
                        self._patch(base, hook, name)
        self._count_artifact_bytes()

    def _count_artifact_bytes(self) -> None:
        """Count ``BugArtifact.save`` calls as ``harness.artifact``, and
        the bytes they write.  The time is left to the caller."""
        from repro.harness.artifact import BugArtifact

        save = BugArtifact.save
        slot = self._slot("harness.artifact")

        def sized_save(artifact, path):
            written = save(artifact, path)
            slot[0] += 1
            self.artifact_bytes += os.path.getsize(written)
            return written

        self._patches.append((BugArtifact, "save", save))
        BugArtifact.save = sized_save

    def uninstall(self) -> None:
        """Restore every patched attribute, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading --------------------------------------------------------------

    def count(self, name: str) -> int:
        return self.totals.get(name, (0, 0, 0))[0]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0, 0))[2] / 1e9

    def self_times_s(self) -> Dict[str, float]:
        return {name: slot[2] / 1e9 for name, slot in self.totals.items()}

    def write_spans(self, path: str) -> None:
        """Write the kept spans (one JSON object per line) and the totals."""
        with open(path, "w") as fh:
            for span_id, parent, name, start, end, self_ns in self.kept:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start_ns": start, "end_ns": end, "self_ns": self_ns,
                }) + "\n")
            for name, (count, busy, self_ns) in sorted(self.totals.items()):
                fh.write(json.dumps({
                    "total": name, "count": count, "busy_ns": busy,
                    "self_ns": self_ns,
                }) + "\n")


class _Span:
    """Context manager for one kept span; see :meth:`Tracer.span`."""

    __slots__ = ("tracer", "slot", "name", "cell", "span_id", "parent",
                 "start")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.slot = tracer._slot(name)
        self.name = name

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        self.cell = [0]
        tracer._stack.append(self.cell)
        self.span_id = tracer._next_id
        tracer._next_id += 1
        self.parent = tracer._open[-1] if tracer._open else 0
        tracer._open.append(self.span_id)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter_ns()
        tracer = self.tracer
        duration = end - self.start
        tracer._stack.pop()
        tracer._open.pop()
        if tracer._stack:
            tracer._stack[-1][0] += duration
        self_ns = duration - self.cell[0]
        self.slot[0] += 1
        self.slot[1] += duration
        self.slot[2] += self_ns
        tracer.kept.append((self.span_id, self.parent, self.name,
                            self.start, end, self_ns))
