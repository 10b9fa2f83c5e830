"""The pluggable memory-model interface.

Section 5 of the paper argues PCTWM is memory-model agnostic: the
algorithm needs a scheduler-facing execution pipeline that exposes the
model's nondeterminism as schedulable choices, plus a notion of
communication events.  This module makes that claim operational — a
:class:`MemoryModel` names everything the harness layers (campaigns,
artifacts, replay, sanitizer, CLI) need to run any scheduler against
any model:

* an executor class whose ``run`` produces a
  :class:`repro.runtime.executor.RunResult` (same shape for every
  model, so campaign folding, bug artifacts, and replay are
  model-independent);
* a pooled-state factory (campaign workers reset one state per trial);
* which registry schedulers the model supports (e.g. TSO excludes the
  C11Tester baseline, whose reads-from nondeterminism TSO lacks).

A backend supplies the model-*specific* parts of the pipeline by
subclassing the generic executor and its state; every event still
commits through the executor's one shared path (clock tick, graph
append, visibility floors, race check, scheduler hook):

* **enabled-action enumeration** — ``ExecutionState.enabled_tids``;
  store-buffer models add pseudo-threads for their commit actions (the
  TSO backend's flush agents);
* **communication-event identification** — the ``_comm`` flag on the
  ops the model schedules (TSO's ``FlushOp._comm = True`` makes flushes
  the communication sinks PCTWM delays);
* **thread-local view construction** — what a read may observe, the
  executor's ``_read_source`` hook (C11: the scheduler's
  ``choose_read_from`` pick among the coherence-visible writes; TSO:
  forward from the own store buffer, else the mo-max);
* **commit-time mo insertion** — when a write reaches the modification
  order (C11: at execution, ``add_write``; TSO: ``_exec_store`` issues
  into the buffer with ``issue_write`` and ``_exec_flush``/``_drain_own``
  land it with ``commit_write``).

Registry usage::

    model = resolve_model("tso")
    result = model.run_once(program, scheduler, max_steps=2000)
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

__all__ = ["MemoryModel", "C11Model", "TsoModel", "MODELS",
           "available_models", "resolve_model"]


class MemoryModel:
    """One memory model's bindings into the generic execution pipeline."""

    #: Registry key (`--model` value).
    name = "abstract"
    #: Scheduler-registry names this model supports; None means all.
    scheduler_allowlist: Optional[Tuple[str, ...]] = None
    #: Whether runtime thread creation (SpawnOp) is supported.
    supports_spawn = True

    def executor_class(self):
        raise NotImplementedError

    def state_class(self):
        raise NotImplementedError

    def make_executor(self, program, scheduler, **kwargs):
        """Build an executor; kwargs as for :class:`runtime.Executor`."""
        return self.executor_class()(program, scheduler, **kwargs)

    def make_state(self, program, spin_threshold: int = 8,
                   fast: bool = True):
        """Build a poolable execution state for campaign workers."""
        return self.state_class()(program, spin_threshold, fast=fast)

    def run_once(self, program, scheduler, state=None, **kwargs):
        """One test run; ``state`` may be a pooled, reset state."""
        return self.make_executor(program, scheduler, **kwargs).run(state)

    def supports_scheduler(self, scheduler_name: str) -> bool:
        allow = self.scheduler_allowlist
        return allow is None or scheduler_name in allow

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MemoryModel {self.name}>"


class C11Model(MemoryModel):
    """The default backend: the C11 axiomatic path of Section 4."""

    name = "c11"

    def executor_class(self):
        from ..runtime.executor import Executor

        return Executor

    def state_class(self):
        from ..runtime.executor import ExecutionState

        return ExecutionState


class TsoModel(MemoryModel):
    """x86-TSO via store buffers and flush agents (repro.tso.backend).

    Only the schedulers whose decision structure survives the model
    change are allowed: naive/PCT/PCTWM/POS schedule threads (and under
    TSO, flush agents).  The C11Tester baseline and the reads-from
    ablations manipulate rf nondeterminism, which TSO does not have —
    reads are deterministic given flush timing.
    """

    name = "tso"
    scheduler_allowlist = ("naive", "pct", "pctwm", "pos")
    #: Flush agents are allocated per thread at run start.
    supports_spawn = False

    def executor_class(self):
        from ..tso.backend import TsoExecutor

        return TsoExecutor

    def state_class(self):
        from ..tso.backend import TsoExecutionState

        return TsoExecutionState


MODELS: Dict[str, MemoryModel] = {m.name: m for m in (C11Model(),
                                                      TsoModel())}


def available_models() -> Tuple[str, ...]:
    return tuple(sorted(MODELS))


def resolve_model(name: str) -> MemoryModel:
    """Look up a model by registry key, with a helpful error."""
    try:
        return MODELS[name]
    except KeyError:
        options = ", ".join(available_models())
        raise ValueError(
            f"unknown memory model {name!r}; available: {options}"
        ) from None
