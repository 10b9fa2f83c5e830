"""The x86-TSO backend for the generic scheduler stack.

This module plugs TSO into the *generic* execution pipeline
(:class:`repro.runtime.executor.Executor`), so the probabilistic
schedulers — naive, PCT, PCTWM, POS — test TSO programs unchanged; run
it through ``resolve_model("tso").run_once(program, scheduler)``.  The
trick is to make the model's extra nondeterminism look like thread
nondeterminism:

* every thread ``i`` gets a *flush agent* — a pseudo-thread with tid
  ``n + i`` whose pending op is always a :class:`FlushOp` for the oldest
  entry of thread ``i``'s store buffer, enabled iff the buffer is
  non-empty;
* a store *issue* buffers the write (created via
  ``ExecutionGraph.issue_write`` with its declared order, so labels and
  release chains are right) and does **not** fire scheduler hooks — the
  event is not yet globally visible, and an uncommitted event
  (``mo_index == -1``) must never reach a ``FastView``;
* a flush *commit* is the communication event (``FlushOp._comm`` is
  True): it lands the write at the mo-tail via
  ``ExecutionGraph.commit_write`` and fires ``on_event_executed``, so
  PCTWM's priority-change and communication-sink logic delay *flushes*
  — exactly the W→R reordering TSO permits and nothing else;
* reads are deterministic under TSO (forward from the newest
  same-location own-buffer entry, else the committed mo-max), so
  ``choose_read_from`` is never consulted and recorded traces stay
  THREAD-choice-only — replay and bug artifacts work unchanged.

Fences and RMWs drain the issuing thread's buffer first (x86 ``MFENCE``
/ ``LOCK`` semantics); seq_cst stores drain right after issue (the
MOV+MFENCE mapping).  A join additionally waits for the target's buffer
to drain, so joined results are globally visible.

:class:`TsoExecutor` overrides exactly what x86-TSO does differently and
commits everything else through the generic executor's shared path:

* ``_read_source`` — forward-or-mo-max (the load itself is the generic
  ``Executor._exec_load``, which skips sw resolution and the read floor
  for a forwarded source);
* ``_exec_store`` — issue into the buffer instead of appending to mo;
* ``_exec_flush`` and ``_drain_own`` — commit buffer heads through one
  ``_commit_head``;
* ``_exec_fence``/``_exec_rmw``/``_exec_cas`` — drain, then the generic
  handler;
* ``_exec_spawn`` — rejected (agents are allocated at run start);
* ``run``/``_run_final_checks``/``_finish`` — no incremental checker,
  real threads only, and a silent drain of truncated runs.

Sanitization relies on the end-of-run :func:`repro.memory.axioms
.check_consistency` audit: the *incremental* checker assumes writes
reach mo at creation and would misread buffer-forwarded rf sources
(``mo_index`` still ``-1`` at read time), so it is not attached.  That
audit checks the C11 axioms, which are weaker than x86-TSO's: a
TSO-forbidden but C11-consistent execution passes it.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from ..memory.events import Event
from ..runtime.errors import (
    AssertionViolation,
    ProgramDefinitionError,
    ReproError,
)
from ..runtime.executor import ExecutionState, Executor, RunResult
from ..runtime.ops import (
    CasOp,
    FenceOp,
    JoinOp,
    LoadOp,
    Op,
    RmwOp,
    SpawnOp,
    StoreOp,
    YieldOp,
    _op_uids,
)
from ..runtime.program import Program

__all__ = ["FlushAgent", "FlushOp", "TsoExecutionState", "TsoExecutor"]


class FlushOp(Op):
    """Commit the oldest store-buffer entry of one thread.

    One FlushOp is created per issued store (a fresh ``uid``, so
    op-keyed scheduler state — PCTWM's ``counted``/``_reordered`` sets,
    POS's per-op priorities — treats every flush as a distinct
    schedulable event).  ``_comm = True``: a flush is the point a store
    becomes visible to other threads, i.e. the model's communication
    event; PCTWM may place a communication sink on it and delay it.
    """

    __slots__ = ("event",)

    _comm = True

    def __init__(self, event: Event):
        self.uid = next(_op_uids)
        self.event = event

    @property
    def loc(self) -> str:
        return self.event.loc

    def _fields(self):
        return (("loc", self.event.loc), ("tid", self.event.tid))


class FlushAgent:
    """Pseudo-thread that owns the flush actions of one real thread.

    Duck-types the slice of :class:`repro.runtime.thread.ThreadState`
    that schedulers and diagnostics touch (``tid``/``name``/``pending``/
    ``site_key``/``finished``/``events_executed``).  Never ``finished``:
    its enabledness is "owner's buffer non-empty", checked by
    :meth:`TsoExecutionState.enabled_tids`, and run termination counts
    non-empty buffers, not agent completion.
    """

    __slots__ = ("tid", "name", "pending", "pending_is_join",
                 "pending_site", "site_key", "finished", "result",
                 "pending_sync_sources", "events_executed")

    def __init__(self, tid: int, owner_name: str):
        self.tid = tid
        self.name = f"flush({owner_name})"
        self.pending: Optional[FlushOp] = None
        self.pending_is_join = False
        self.pending_site = -1
        self.site_key = (tid, -1)
        self.finished = False
        self.result = None
        self.pending_sync_sources: List[Event] = []
        self.events_executed = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FlushAgent {self.tid}:{self.name} pending={self.pending!r}>"


class TsoExecutionState(ExecutionState):
    """Execution state with per-thread store buffers and flush agents.

    ``threads`` holds the ``n`` real threads followed by ``n`` flush
    agents (tids ``n..2n-1``; agent ``n + i`` drains thread ``i``'s
    buffer), so priority-based schedulers assign priorities to flush
    agents exactly as to threads.  ``_unfinished`` counts live real
    threads *plus* non-empty buffers: zero means every thread returned
    and every store committed, the generic loop's termination test.
    """

    def __init__(self, program: Program, spin_threshold: int = 8,
                 fast: bool = True):
        self._owners: Tuple[str, ...] = ()
        super().__init__(program, spin_threshold, fast=fast)
        self._install_agents()

    def _zero_clocks(self) -> None:
        # Called before the agents join ``threads``: one clock per real
        # thread and one per agent.
        n2 = 2 * len(self.threads)
        self.clocks = [(0,) * n2] * n2

    def _install_agents(self) -> None:
        """Append the flush agents, reusing last run's while the real
        threads keep their names (a reset agent is a fresh one)."""
        threads = self.threads
        n = len(threads)
        self.n_real = n
        owners = tuple(t.name for t in threads)
        if owners != self._owners:
            self._owners = owners
            #: Per-thread FIFO of pending FlushOps (flushes pop the head).
            self.buffers: List[Deque[FlushOp]] = [deque() for _ in range(n)]
            self.agents = [FlushAgent(n + i, name)
                           for i, name in enumerate(owners)]
        else:
            # An errored run may leave stores buffered.
            for buffer in self.buffers:
                buffer.clear()
            for agent in self.agents:
                agent.pending = None
                agent.result = None
                agent.pending_sync_sources.clear()
                agent.events_executed = 0
        threads.extend(self.agents)
        # Flush agents are deliberately absent from _by_name: joins may
        # only target real threads.

    def reset(self, program: Optional[Program] = None) -> None:
        super().reset(program)
        self._install_agents()

    def enabled_tids(self) -> List[int]:
        """Real threads that may step, plus agents with buffered stores.

        A join is additionally gated on the target's buffer being empty
        (the target's effects must be globally visible before the joiner
        proceeds — x86 thread exit implies a drained buffer).
        """
        if self.fast and self._enabled_cache is not None:
            return self._enabled_cache
        out: List[int] = []
        n = self.n_real
        buffers = self.buffers
        for t in self.threads[:n]:
            if t.finished:
                continue
            if t.pending_is_join:
                target = self._by_name.get(t.pending.thread_name)
                if target is None:
                    raise ProgramDefinitionError(
                        f"join target {t.pending.thread_name!r} does not exist"
                    )
                if not target.finished or buffers[target.tid]:
                    continue
            out.append(t.tid)
        for i, buffer in enumerate(buffers):
            if buffer:
                out.append(n + i)
        self._enabled_cache = out
        return out

    def all_finished(self) -> bool:
        if self.fast:
            return self._unfinished == 0
        return all(t.finished for t in self.threads[:self.n_real]) \
            and not any(self.buffers)


class TsoExecutor(Executor):
    """Generic-scheduler executor for x86-TSO programs."""

    def run(self, state: Optional[ExecutionState] = None) -> RunResult:
        if state is None:
            state = TsoExecutionState(self.program, self.spin_threshold,
                                      fast=self.fast)
        result = RunResult(self.program.name, self.scheduler.name,
                           engine=self.engine)
        # No incremental checker (module docstring); _finish still runs
        # the full check_consistency audit in sanitize mode.
        state.sanitizer = None
        self.scheduler.on_run_start(state)
        try:
            self._loop(state, result)
        except AssertionViolation as violation:
            result.bug_found = True
            result.bug_kind = "assertion"
            result.bug_message = str(violation)
        self._finish(state, result)
        return result

    def _run_final_checks(self, state: TsoExecutionState,
                          result: RunResult) -> None:
        results = {t.name: t.result
                   for t in state.threads[:state.n_real]}
        result.thread_results = results
        for check in self.program.final_checks:
            check(results)

    def _finish(self, state: TsoExecutionState, result: RunResult) -> None:
        if any(state.buffers):
            # Drain-or-mark: only truncated runs (step/wall budget) reach
            # here with buffered stores.  Commit them silently — graph
            # bookkeeping only, no scheduler hooks — so the recorded
            # graph has no rf source dangling outside writes_by_loc and
            # post-hoc analysis (fr, coherence audits) cannot crash.
            for buffer in state.buffers:
                while buffer:
                    state.graph.commit_write(buffer.popleft().event)
        super()._finish(state, result)

    # -- what x86-TSO does differently ---------------------------------------

    def _read_source(self, state: TsoExecutionState, thread, op: LoadOp,
                     spinning: bool):
        """Forward from the newest same-location entry of the reader's
        own store buffer, else read the committed mo-max.

        ``choose_read_from`` is never consulted (the model has no rf
        freedom, only flush timing), so traces stay THREAD-choice-only.
        """
        loc = op.loc
        for flush_op in reversed(state.buffers[thread.tid]):
            if flush_op.event.loc == loc:
                return flush_op.event, True
        return state.graph.writes_by_loc[loc][-1], False

    def _exec_store(self, state: TsoExecutionState, thread, op: StoreOp,
                    ) -> None:
        """Issue: buffer the store; its flush agent becomes enabled."""
        state.k += 1
        tid = thread.tid
        loc = op.loc
        if loc not in self._locs:
            self._require_loc(loc)
        clock = self._tick(state, tid, None)
        event = state.graph.issue_write(tid, loc, op.value, op.order)
        event.clock = clock
        state.races.on_access(event)
        buffer = state.buffers[tid]
        if not buffer:
            state._unfinished += 1
        buffer.append(FlushOp(event))
        state.threads[state.n_real + tid].pending = buffer[0]
        # No on_event_executed: the event is uncommitted (mo_index -1)
        # and must not reach scheduler views; its flush fires the hook.
        state.advance_thread(thread, None)
        if thread.finished:
            self.scheduler.on_thread_finished(state, tid)
        if op.order.is_seq_cst:
            # MOV + MFENCE: a seq_cst store publishes before the thread
            # proceeds.
            self._drain_own(state, tid)

    def _exec_flush(self, state: TsoExecutionState, agent: FlushAgent,
                    op: FlushOp) -> None:
        """Commit: the store reaches mo — the communication event."""
        buffer = state.buffers[op.event.tid]
        if not buffer or buffer[0] is not op:
            raise ReproError(f"flush out of buffer order: {op!r}")
        self._commit_head(state, op.event.tid)

    def _drain_own(self, state: TsoExecutionState, tid: int) -> None:
        """Commit every buffered store of ``tid`` (fence/RMW/sc-store).

        The drain is part of the instruction's own step: commits fire
        scheduler hooks (the stores become visible) but cost no
        scheduling steps.
        """
        buffer = state.buffers[tid]
        while buffer:
            self._commit_head(state, tid)

    def _commit_head(self, state: TsoExecutionState, tid: int) -> None:
        """Land the oldest buffered store of ``tid`` at the mo-tail."""
        buffer = state.buffers[tid]
        flush_op = buffer.popleft()
        agent = state.threads[state.n_real + tid]
        if buffer:
            agent.pending = buffer[0]
        else:
            agent.pending = None
            state._unfinished -= 1
        state._enabled_cache = None
        event = state.graph.commit_write(flush_op.event)
        state.k_com += 1
        agent.events_executed += 1
        self.scheduler.on_event_executed(state, event,
                                         {"op": flush_op, "flush": True})

    def _exec_fence(self, state: TsoExecutionState, thread, op: FenceOp,
                    ) -> None:
        self._drain_own(state, thread.tid)
        Executor._exec_fence(self, state, thread, op)

    def _exec_rmw(self, state: TsoExecutionState, thread, op: RmwOp,
                  ) -> None:
        # LOCK-prefixed: drains, then reads the committed mo-max — the
        # base handler's source choice is exactly right post-drain.
        self._drain_own(state, thread.tid)
        Executor._exec_rmw(self, state, thread, op)

    def _exec_cas(self, state: TsoExecutionState, thread, op: CasOp,
                  ) -> None:
        self._drain_own(state, thread.tid)
        Executor._exec_cas(self, state, thread, op)

    def _exec_spawn(self, state: TsoExecutionState, thread, op: SpawnOp,
                    ) -> None:
        raise ProgramDefinitionError(
            "SpawnOp is not supported under the TSO backend: flush "
            "agents are allocated per thread at run start"
        )

    _DISPATCH = {
        YieldOp: Executor._exec_yield,
        JoinOp: Executor._exec_join,
        SpawnOp: _exec_spawn,
        LoadOp: Executor._exec_load,
        StoreOp: _exec_store,
        RmwOp: _exec_rmw,
        CasOp: _exec_cas,
        FenceOp: _exec_fence,
        FlushOp: _exec_flush,
    }
