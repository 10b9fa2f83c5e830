"""The execution engine.

Drives a :class:`repro.runtime.program.Program` step by step under a
:class:`repro.runtime.scheduler.Scheduler`, building a C11 execution graph
(:mod:`repro.memory`) as it goes:

* at each step the scheduler picks an enabled thread (possibly peeking
  pending ops, as PCTWM's Algorithm 1 does);
* the thread's pending operation becomes an event: writes append at the
  mo-tail, reads pick an rf source among the coherence-visible writes via
  the scheduler, fences and synchronizing reads join vector clocks;
* assertion violations, data races and deadlocks are recorded as bugs.

Every generated execution satisfies the consistency axioms of Section 4 by
construction (tests audit this with :mod:`repro.memory.axioms`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..memory.axioms import IncrementalCoherenceChecker, check_consistency
from ..memory.events import Event, MemoryOrder, clock_join
from ..memory.execution import ExecutionGraph
from ..memory.races import DataRace, RaceDetector
from ..memory.visibility import VisibilityTracker
from .errors import (
    AssertionViolation,
    ProgramDefinitionError,
    ReproError,
    collect_failure_diagnostics,
)
from .livelock import SpinTracker
from .ops import (
    CasOp,
    FenceOp,
    JoinOp,
    LoadOp,
    Op,
    RmwOp,
    SpawnOp,
    StoreOp,
    YieldOp,
    is_communication_op,
)
from .program import Program
from .scheduler import READ, THREAD, ReadContext, Scheduler
from .thread import ThreadState


@dataclass
class RunResult:
    """Outcome of a single test execution."""

    program: str
    scheduler: str
    bug_found: bool = False
    bug_kind: Optional[str] = None  # "assertion" | "race" | "deadlock"
    bug_message: Optional[str] = None
    #: True when the run hit the step budget (inconclusive, not a bug).
    limit_exceeded: bool = False
    #: True when the run hit its wall-clock budget (inconclusive, not a bug).
    timed_out: bool = False
    steps: int = 0
    #: Number of program events executed (the paper's k), excluding init.
    k: int = 0
    #: Number of communication events executed (the paper's k_com).
    k_com: int = 0
    races: List[DataRace] = field(default_factory=list)
    thread_results: Dict[str, Any] = field(default_factory=dict)
    graph: Optional[ExecutionGraph] = None
    #: Consistency-axiom violations found by the sanitizer (empty unless
    #: the run executed with ``sanitize=True`` and the graph is broken).
    violations: List[str] = field(default_factory=list)
    #: Structured failure dump (deadlock / step budget / wall-clock budget
    #: / sanitizer violation); None for clean runs.
    diagnostics: Optional[dict] = None
    #: Which execution engine produced the run ("fast" or "reference").
    engine: str = "fast"

    @property
    def inconsistent(self) -> bool:
        """True when the sanitizer found the execution graph inconsistent."""
        return bool(self.violations)

    def __bool__(self) -> bool:
        return self.bug_found


class ExecutionState:
    """Mutable per-run state shared between the executor and scheduler.

    ``fast=True`` (the default engine) turns on the incremental caches:
    release-chain stamps in the graph, memoized visibility floors, the
    race detector's atomic-only shortcut, and the enabled-set cache.
    ``fast=False`` is the reference path the differential suite compares
    against — every query recomputes from first principles.
    """

    def __init__(self, program: Program, spin_threshold: int = 8,
                 fast: bool = True):
        self.program = program
        self.fast = fast
        self.graph = ExecutionGraph(fast=fast)
        self.init_writes: Dict[str, Event] = {}
        for loc, init in program.locations.items():
            self.init_writes[loc] = self.graph.add_init_write(loc, init)
        self.threads: List[ThreadState] = program.instantiate()
        self.visibility = VisibilityTracker(self.graph, memoize=fast)
        self.races = RaceDetector(fast=fast)
        self.spins = SpinTracker(spin_threshold)
        self._zero_clocks()
        self.steps = 0
        self.k = 0
        self.k_com = 0
        self._by_name = {t.name: t for t in self.threads}
        #: Enabled-set cache, invalidated at the start of every step (the
        #: only points where enabledness can change).
        self._enabled_cache: Optional[List[int]] = None
        #: Count of live threads, so ``all_finished`` is O(1) on the fast
        #: path.  Maintained by :meth:`advance_thread` / :meth:`spawn_thread`.
        self._unfinished = sum(1 for t in self.threads if not t.finished)
        #: Online coherence auditor, attached by the executor in sanitize
        #: mode (None otherwise; the hot path stays hook-free).
        self.sanitizer: Optional[IncrementalCoherenceChecker] = None

    def reset(self, program: Optional[Program] = None) -> None:
        """Rebuild per-run state in place for the next trial.

        Equivalent to constructing a fresh ``ExecutionState`` with the
        same ``fast`` flag and spin threshold, but reuses the graph, the
        trackers, and their dict capacity.  Campaign runners keep one
        pooled state per worker and reset it between trials instead of
        reallocating the whole object web; only safe when the previous
        run's graph is no longer referenced (``keep_graph=False``).
        """
        if program is not None:
            self.program = program
        program = self.program
        self.graph.reset()
        self.init_writes.clear()
        for loc, init in program.locations.items():
            self.init_writes[loc] = self.graph.add_init_write(loc, init)
        self.threads = program.instantiate()
        self.visibility.reset()
        self.races.reset()
        self.spins.clear()
        self._zero_clocks()
        self.steps = 0
        self.k = 0
        self.k_com = 0
        self._by_name = {t.name: t for t in self.threads}
        self._enabled_cache = None
        self._unfinished = sum(1 for t in self.threads if not t.finished)
        self.sanitizer = None

    def _zero_clocks(self) -> None:
        """One all-zero clock per thread (clocks are immutable tuples,
        so every thread shares one)."""
        n = len(self.threads)
        self.clocks: List[Tuple[int, ...]] = [(0,) * n] * n

    def spawn_thread(self, body, args, name: Optional[str],
                     parent_tid: int) -> ThreadState:
        """Create a runtime thread (SpawnOp); returns its primed state.

        The child starts with the parent's clock (the spawn edge is hb),
        assigned here so the new thread never exposes a malformed
        zero-length clock between creation and the caller's bookkeeping.
        """
        tid = len(self.threads)
        base = name or getattr(body, "__name__", "thread")
        unique = base
        suffix = 1
        while unique in self._by_name:
            unique = f"{base}#{suffix}"
            suffix += 1
        thread = ThreadState(tid, unique, body(*args))
        thread.prime()
        self.threads.append(thread)
        self.clocks.append(self.clocks[parent_tid])
        self._by_name[unique] = thread
        self._enabled_cache = None
        if not thread.finished:
            self._unfinished += 1
        return thread

    def advance_thread(self, thread: ThreadState, value) -> None:
        """Deliver an op result and fetch the thread's next op.

        The single mutation point for enabledness: invalidates the
        enabled-set cache and keeps the live-thread count for
        :meth:`all_finished`.
        """
        thread.advance(value)
        self._enabled_cache = None
        if thread.finished:
            self._unfinished -= 1

    # -- queries used by schedulers -------------------------------------------

    def enabled_tids(self) -> List[int]:
        """Threads that can take a step right now.

        Fast engine: cached between mutations — the executor invalidates
        the cache whenever a thread advances, finishes, or spawns, the
        only points where enabledness can change.  Callers must not
        mutate the returned list.
        """
        if self.fast and self._enabled_cache is not None:
            return self._enabled_cache
        out = []
        for t in self.threads:
            if t.finished:
                continue
            if t.pending_is_join:
                target = self._by_name.get(t.pending.thread_name)
                if target is None:
                    raise ProgramDefinitionError(
                        f"join target {t.pending.thread_name!r} does not exist"
                    )
                if not target.finished:
                    continue
            out.append(t.tid)
        self._enabled_cache = out
        return out

    def peek(self, tid: int) -> Optional[Op]:
        """The pending (not yet executed) op of a thread."""
        return self.threads[tid].pending

    def all_finished(self) -> bool:
        if self.fast:
            return self._unfinished == 0
        return all(t.finished for t in self.threads)

    def thread_by_name(self, name: str) -> ThreadState:
        return self._by_name[name]


class Executor:
    """Runs a program to completion under a scheduler."""

    #: How many steps pass between wall-clock deadline checks.  The check
    #: also runs before the first step, so a zero budget times out
    #: deterministically without executing anything.
    DEADLINE_CHECK_STRIDE = 32

    def __init__(self, program: Program, scheduler: Scheduler,
                 max_steps: int = 20000, spin_threshold: int = 8,
                 keep_graph: bool = True,
                 wall_timeout_s: Optional[float] = None,
                 sanitize: bool = False, engine: str = "fast"):
        if engine not in ("fast", "reference"):
            raise ValueError(
                f"engine must be 'fast' or 'reference', got {engine!r}"
            )
        self.program = program
        self.scheduler = scheduler
        self.max_steps = max_steps
        self.spin_threshold = spin_threshold
        self.keep_graph = keep_graph
        self.wall_timeout_s = wall_timeout_s
        self.sanitize = sanitize
        self.engine = engine
        self.fast = engine == "fast"
        #: Declared locations, cached for the per-access membership check.
        self._locs = program.locations
        #: Pooled ReadContext for the fast load path: one read context is
        #: live at a time (contexts never outlive their read), so the
        #: executor reuses a single instance instead of allocating one
        #: per load.
        self._ctx = ReadContext(0, "", MemoryOrder.RELAXED, candidates=())
        #: Decision log, or None (the default) to record nothing.  Set it
        #: to a fresh list before :meth:`run` and the run appends every
        #: ``choose_thread`` result as ``(THREAD, tid)`` and every
        #: validated ``choose_read_from`` choice as ``(READ, offset from
        #: the coherence floor)``: the decisions of a
        #: :class:`repro.replay.trace.Trace`.  A run that raises keeps the
        #: decisions it made up to the raise.
        self.decisions: Optional[List[Tuple[str, int]]] = None

    # -- public API ---------------------------------------------------------

    def run(self, state: Optional[ExecutionState] = None) -> RunResult:
        """Execute one randomized test run and report the outcome.

        ``state`` may be a pooled :class:`ExecutionState` that has been
        :meth:`~ExecutionState.reset` for this executor's program; campaign
        runners pass one to reuse the graph and trackers across trials.
        Callers that keep the result's graph alive (``keep_graph=True``)
        must not pool.
        """
        if state is None:
            state = ExecutionState(self.program, self.spin_threshold,
                                   fast=self.fast)
        result = RunResult(self.program.name, self.scheduler.name,
                           engine=self.engine)
        state.sanitizer = IncrementalCoherenceChecker(state.graph) \
            if self.sanitize else None
        self.scheduler.on_run_start(state)
        try:
            self._loop(state, result)
        except AssertionViolation as violation:
            result.bug_found = True
            result.bug_kind = "assertion"
            result.bug_message = str(violation)
        self._finish(state, result)
        return result

    # -- main loop -----------------------------------------------------------

    def _loop(self, state: ExecutionState, result: RunResult) -> None:
        deadline = None
        if self.wall_timeout_s is not None:
            deadline = time.perf_counter() + self.wall_timeout_s
        # The hottest loop in the library: per-step attribute lookups are
        # hoisted (one step's op dispatch lives at the bottom of the loop).
        scheduler = self.scheduler
        choose_thread = scheduler.choose_thread
        dispatch = self._DISPATCH
        threads = state.threads
        max_steps = self.max_steps
        fast = state.fast
        log = self.decisions
        while True:
            if (state._unfinished == 0) if fast else state.all_finished():
                self._run_final_checks(state, result)
                return
            enabled = state._enabled_cache if fast else None
            if enabled is None:
                enabled = state.enabled_tids()
            if not enabled:
                result.bug_found = True
                result.bug_kind = "deadlock"
                result.bug_message = "no enabled thread but program not done"
                result.diagnostics = collect_failure_diagnostics(state)
                return
            if state.steps >= max_steps:
                result.limit_exceeded = True
                result.diagnostics = collect_failure_diagnostics(state)
                return
            if deadline is not None \
                    and state.steps % self.DEADLINE_CHECK_STRIDE == 0 \
                    and time.perf_counter() >= deadline:
                result.timed_out = True
                result.diagnostics = collect_failure_diagnostics(state)
                return
            tid = choose_thread(state)
            if log is not None:
                log.append((THREAD, tid))
            if tid not in enabled:
                raise ReproError(
                    f"{scheduler.name} chose disabled thread {tid}"
                )
            thread = threads[tid]
            op = thread.pending
            state.steps += 1
            handler = dispatch.get(op.__class__)
            if handler is None:
                handler = self._dispatch_slow(op)
            handler(self, state, thread, op)

    def _run_final_checks(self, state: ExecutionState,
                          result: RunResult) -> None:
        results = {t.name: t.result for t in state.threads}
        result.thread_results = results
        for check in self.program.final_checks:
            check(results)

    def _finish(self, state: ExecutionState, result: RunResult) -> None:
        result.steps = state.steps
        result.k = state.k
        result.k_com = state.k_com
        result.races = list(state.races.races)
        if not result.thread_results:
            result.thread_results = {
                t.name: t.result for t in state.threads if t.finished
            }
        if state.races.racy and self.program.races_are_bugs \
                and not result.bug_found:
            result.bug_found = True
            result.bug_kind = "race"
            result.bug_message = str(state.races.races[0])
        if self.sanitize:
            violations = list(state.sanitizer.violations) \
                if state.sanitizer else []
            violations.extend(check_consistency(state.graph))
            seen = set()
            for violation in violations:
                text = str(violation)
                if text not in seen:
                    seen.add(text)
                    result.violations.append(text)
            if result.violations and result.diagnostics is None:
                result.diagnostics = collect_failure_diagnostics(state)
        if self.keep_graph:
            result.graph = state.graph

    # -- single step ---------------------------------------------------------

    def _exec_yield(self, state: ExecutionState, thread: ThreadState,
                    op: YieldOp) -> None:
        state.advance_thread(thread, None)

    @classmethod
    def _dispatch_slow(cls, op: Op):
        for base, handler in cls._DISPATCH.items():
            if isinstance(op, base):
                return handler
        raise ReproError(f"unknown op {op!r}")

    # -- shared commit path -------------------------------------------------------

    @staticmethod
    def _tick(state: ExecutionState, tid: int,
              join: Optional[Event]) -> Tuple[int, ...]:
        """Bump ``tid``'s clock, first absorbing ``join``'s (if any).

        Takes a single optional join source — the common case — so the
        per-event list allocation the old ``joins`` parameter forced is
        gone; :meth:`_exec_fence` (multiple sources) joins its sources
        into the thread clock before calling.
        """
        clock = state.clocks[tid]
        if join is not None and not join.is_init:
            clock = clock_join(clock, join.clock)
        bumped = list(clock)
        if len(bumped) <= tid:
            # Spawned threads carry their parent's (shorter) clock; pad to
            # reach this thread's own slot.
            bumped.extend([0] * (tid + 1 - len(bumped)))
        bumped[tid] += 1
        clock = tuple(bumped)
        state.clocks[tid] = clock
        return clock

    def _commit(self, state: ExecutionState, thread: ThreadState,
                event: Event, op: Op, result: Any, info: dict) -> None:
        """Last step of every program event: race check, sanitizer,
        scheduler hook, then deliver ``result`` to the thread."""
        state.races.on_access(event)
        if state.sanitizer is not None:
            state.sanitizer.on_event(event)
        info["op"] = op
        self.scheduler.on_event_executed(state, event, info)
        # The enabled set only changes when a thread finishes or its new
        # pending op is a join (memory ops never block), so the cache
        # survives the common op-to-op advance.
        thread.advance(result)
        if thread.finished:
            state._enabled_cache = None
            state._unfinished -= 1
            self.scheduler.on_thread_finished(state, thread.tid)
        elif thread.pending_is_join:
            state._enabled_cache = None

    def _sync_sources(self, state: ExecutionState, thread: ThreadState,
                      source: Event, order: MemoryOrder,
                      ) -> Tuple[Optional[Event], Optional[Event]]:
        """Resolve the sw consequences of reading from ``source``.

        Returns ``(sync_source, release_chain_source)``: the first is the
        event whose clock the reader joins *now* (acquire read of a release
        chain); the second is the chain source recorded for a later acquire
        fence (relaxed read of a release chain, the ``(po; [F])`` suffix of
        the sw definition).
        """
        if source.is_init:
            return None, None
        chain = state.graph.release_source(source)
        if chain is None:
            return None, None
        if order.is_acquire:
            return chain, chain
        thread.pending_sync_sources.append(chain)
        return None, chain

    def _begin_access(self, state: ExecutionState, loc: str) -> None:
        """Count one communication event and check its location."""
        state.k_com += 1
        state.k += 1
        if loc not in self._locs:
            self._require_loc(loc)

    # -- op execution -------------------------------------------------------------

    def _exec_join(self, state: ExecutionState, thread: ThreadState,
                   op: JoinOp) -> None:
        target = state.thread_by_name(op.thread_name)
        state.clocks[thread.tid] = clock_join(
            state.clocks[thread.tid], state.clocks[target.tid]
        )
        state.advance_thread(thread, target.result)
        if thread.finished:
            self.scheduler.on_thread_finished(state, thread.tid)

    def _exec_spawn(self, state: ExecutionState, thread: ThreadState,
                    op: SpawnOp) -> None:
        child = state.spawn_thread(op.body, op.args, op.name, thread.tid)
        self.scheduler.on_thread_created(state, child.tid, thread.tid)
        state.advance_thread(thread, child.name)
        if thread.finished:
            self.scheduler.on_thread_finished(state, thread.tid)

    def _exec_fence(self, state: ExecutionState, thread: ThreadState,
                    op: FenceOp) -> None:
        if is_communication_op(op):
            state.k_com += 1
        state.k += 1
        tid = thread.tid
        fence_sources: List[Event] = []
        if op.order.is_acquire:
            fence_sources = list(thread.pending_sync_sources)
            thread.pending_sync_sources.clear()
        clock = state.clocks[tid]
        for src in fence_sources:
            if not src.is_init:
                clock = clock_join(clock, src.clock)
        state.clocks[tid] = clock
        clock = self._tick(state, tid, None)
        event = state.graph.add_fence(tid, op.order)
        event.clock = clock
        self._commit(state, thread, event, op, None,
                     {"fence_sync_sources": fence_sources})

    def _exec_store(self, state: ExecutionState, thread: ThreadState,
                    op: StoreOp) -> None:
        order = op.order
        if order.is_seq_cst:
            state.k_com += 1
        state.k += 1
        tid = thread.tid
        loc = op.loc
        if loc not in self._locs:
            self._require_loc(loc)
        clock = self._tick(state, tid, None)
        event = state.graph.add_write(tid, loc, op.value, order)
        event.clock = clock
        state.visibility.note_write(event)
        self._commit(state, thread, event, op, None, {})

    def _exec_load(self, state: ExecutionState, thread: ThreadState,
                   op: LoadOp) -> None:
        loc = op.loc
        self._begin_access(state, loc)
        tid = thread.tid
        order = op.order
        spins = state.spins
        site_key = thread.site_key
        spinning = spins.is_spinning(site_key) if spins._hot else False
        source, forwarded = self._read_source(state, thread, op, spinning)
        if forwarded:
            # Same-thread (po-ordered) source: no sw edge, and the read
            # floor tracks only sources already in mo.
            sync_source = chain_source = None
        else:
            sync_source, chain_source = self._sync_sources(
                state, thread, source, order)
            state.visibility.note_read(tid, source)
        clock = self._tick(state, tid, sync_source)
        event = state.graph.add_read(tid, loc, source, order)
        event.clock = clock
        result = source.wval
        spins.note(site_key, result)
        self._commit(state, thread, event, op, result, {
            "sync_source": sync_source,
            "release_chain_source": chain_source,
            "spinning": spinning,
        })

    def _read_source(self, state: ExecutionState, thread: ThreadState,
                     op: LoadOp, spinning: bool) -> Tuple[Event, bool]:
        """The load's rf source, and whether it was forwarded from the
        reading thread's own uncommitted stores (never, under C11).

        The scheduler picks among the coherence-visible writes and the
        choice is validated (and logged as a READ decision) here.  The
        fast engine reuses one pooled ReadContext instead of allocating
        one per read: contexts never outlive the read (schedulers may
        keep the candidate *list* but not the context object).
        """
        tid = thread.tid
        loc = op.loc
        order = op.order
        scheduler = self.scheduler
        if self.fast:
            # Lazy candidates: schedulers that need only a fragment of the
            # visible set (the floor, the tail, the h-bounded suffix)
            # never materialize the full list.
            ctx = self._ctx
            ctx.tid = tid
            ctx.loc = loc
            ctx.order = order
            ctx.op = op
            ctx.spinning = spinning
            ctx.is_rmw = False
            ctx._candidates = None
            ctx._state = state
            ctx._floor = -1
            source = scheduler.choose_read_from(state, ctx)
            writes = state.graph.writes_by_loc[loc]
            index = source.mo_index
            # O(1) identity validation against the mo array: membership in
            # the visible suffix ⟺ the event sits at its mo slot and is at
            # or above the coherence floor.  The mo-maximal write is always
            # visible, so the floor is only computed (memoized on the
            # context) for non-maximal sources.
            nwrites = len(writes)
            valid = 0 <= index < nwrites and writes[index] is source \
                and (index == nwrites - 1 or index >= ctx.floor_index())
        else:
            candidates = state.visibility.visible_writes(
                tid, loc, state.clocks[tid], seq_cst=order.is_seq_cst
            )
            ctx = ReadContext(tid=tid, loc=loc, order=order,
                              candidates=candidates, op=op,
                              spinning=spinning)
            source = scheduler.choose_read_from(state, ctx)
            valid = source in candidates
        if not valid:
            raise ReproError(
                f"{scheduler.name} chose rf source outside the visible "
                f"set: {source!r}"
            )
        if self.decisions is not None:
            self.decisions.append((READ, source.mo_index - ctx.floor_index()))
        return source, False

    def _exec_rmw(self, state: ExecutionState, thread: ThreadState,
                  op: RmwOp) -> None:
        loc = op.loc
        self._begin_access(state, loc)
        source = state.graph.writes_by_loc[loc][-1]
        old = source.wval
        self._commit_update(state, thread, op, source, op.order, True,
                            op.update(old), old)

    def _exec_cas(self, state: ExecutionState, thread: ThreadState,
                  op: CasOp) -> None:
        loc = op.loc
        self._begin_access(state, loc)
        source = state.graph.writes_by_loc[loc][-1]
        old = source.wval
        success = old == op.expected
        order = op.success_order if success else op.failure_order
        self._commit_update(state, thread, op, source, order, success,
                            op.desired, (success, old))

    def _commit_update(self, state: ExecutionState, thread: ThreadState,
                       op: Op, source: Event, order: MemoryOrder,
                       writes: bool, new: Any, result: Any) -> None:
        """Shared tail of RMW and CAS: read the mo-maximal ``source``
        (atomicity) and, when ``writes``, place ``new`` right after it in
        mo; a failed CAS is a plain read."""
        tid = thread.tid
        sync_source, chain_source = self._sync_sources(
            state, thread, source, order)
        clock = self._tick(state, tid, sync_source)
        if writes:
            event = state.graph.add_rmw(tid, source.loc, source, new, order)
        else:
            event = state.graph.add_read(tid, source.loc, source, order)
        event.clock = clock
        visibility = state.visibility
        visibility.note_write(event)
        visibility.note_read(tid, source)
        state.spins.note(thread.site_key, source.wval)
        self._commit(state, thread, event, op, result, {
            "sync_source": sync_source,
            "release_chain_source": chain_source,
            "rmw": True,
        })

    def _require_loc(self, loc: str) -> None:
        if loc not in self.program.locations:
            raise ProgramDefinitionError(
                f"location {loc!r} is not declared in program "
                f"{self.program.name!r}"
            )

    #: Exact-type op dispatch (plain functions: ``_loop`` passes ``self``
    #: explicitly).  Subclassed ops fall back to ``_dispatch_slow``.
    _DISPATCH = {
        YieldOp: _exec_yield,
        JoinOp: _exec_join,
        SpawnOp: _exec_spawn,
        LoadOp: _exec_load,
        StoreOp: _exec_store,
        RmwOp: _exec_rmw,
        CasOp: _exec_cas,
        FenceOp: _exec_fence,
    }


def run_once(program: Program, scheduler: Scheduler,
             max_steps: int = 20000, spin_threshold: int = 8,
             keep_graph: bool = True,
             wall_timeout_s: Optional[float] = None,
             sanitize: bool = False, engine: str = "fast") -> RunResult:
    """Convenience wrapper: build an executor and run a single test.

    ``wall_timeout_s`` bounds the run's wall-clock time: when the budget
    is exhausted the run stops at the next deadline check and is reported
    with ``timed_out=True`` (inconclusive, like ``limit_exceeded``).

    ``sanitize=True`` audits the generated execution against the
    Section-4 consistency axioms: an O(1)-per-event coherence check
    during the run plus the one-pass :func:`repro.memory.axioms
    .check_consistency` audit of every axiom at run end.  Violations land in
    ``result.violations`` (``result.inconsistent``) with a structured
    failure dump in ``result.diagnostics`` — they indicate a bug in the
    *engine*, not the program under test.

    ``engine`` selects the execution engine: ``"fast"`` (default) uses
    the incremental caches (release-chain stamps, memoized visibility
    floors, lazy read candidates, array-backed PCTWM views);
    ``"reference"`` recomputes every query from first principles.  Both
    engines make identical scheduling and reads-from choices for any
    seed — the differential suite (``tests/test_fastpath_differential``)
    enforces trace-for-trace equality.
    """
    executor = Executor(program, scheduler, max_steps=max_steps,
                        spin_threshold=spin_threshold, keep_graph=keep_graph,
                        wall_timeout_s=wall_timeout_s, sanitize=sanitize,
                        engine=engine)
    return executor.run()
