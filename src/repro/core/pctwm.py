"""PCTWM: Probabilistic Concurrency Testing for Weak Memory (Section 5).

PCTWM samples a test execution with ``d`` history-bounded communication
relations:

* Threads run by strict random priority (as in PCT), but the priority-change
  points are placed at ``d`` randomly chosen *communication events* out of
  the estimated ``k_com`` (Algorithm 1).  A selected event's thread is
  delayed below every initial priority — slot ``d-k`` for the ``k``-th tuple
  entry — so the selected sinks execute as late as possible and in tuple
  order.
* Every thread maintains a local *view* (Definition 1); events snapshot the
  view into their *bag* when they execute (Algorithm 2 line 26).
* A read that was selected as a communication sink (the ``reordered`` set)
  reads globally from a visible write within history depth ``h``; every
  other read reads from its thread-local view (``readLocal``), so the
  amount of inter-thread communication is exactly what the ``d`` sampled
  relations allow.
* View propagation follows Algorithm 2: a synchronizing read joins the
  whole bag of the communication source; a relaxed external read joins only
  the read location's entry; acquire fences join the bags of all their sw
  sources; SC events join the bag of their SC-predecessor; release fences
  propagate nothing.

Deviations forced by the substrate (documented in DESIGN.md):

* RMW/CAS reads always observe the mo-maximal write, because modification
  order is append-only and the atomicity axiom requires ``fr; mo = ∅``.
  When that write is external, the view update still follows Algorithm 2's
  external-read rules.
* The livelock heuristic (Section 6.2): when a read site spins, the
  scheduler switches to a random other thread *and* lets the spinning read
  read globally; otherwise a wait loop could never observe the value it
  waits for.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..memory.events import Event
from ..runtime.scheduler import ReadContext
from .priorities import PriorityScheduler
from .views import FastView, View


class PCTWMScheduler(PriorityScheduler):
    """Algorithm 1 (scheduling) + Algorithm 2 (view maintenance).

    Parameters mirror the artifact's CLI: ``depth`` is ``-d``, ``k_com`` is
    ``-k`` (estimated number of communication events), ``history`` is ``-y``
    and ``seed`` is ``-s``.
    """

    name = "pctwm"

    def __init__(self, depth: int, k_com: int, history: int = 1,
                 seed: Optional[int] = None):
        super().__init__(depth, seed)
        if k_com < 1:
            raise ValueError("k_com must be >= 1")
        if history < 1:
            raise ValueError("history depth must be >= 1")
        self.k_com = k_com
        self.history = history
        # Per-run state, reset by on_run_start.
        self._counted: Set[int] = set()
        self._reordered: Set[int] = set()
        self._slot_by_count: Dict[int, int] = {}
        self._views: Dict[int, View] = {}
        self._bags: Dict[int, View] = {}
        self._last_sc: Optional[Event] = None
        #: Memoized communication-sink candidate sets (readGlobal's
        #: h-bounded visible writes) per (tid, loc); an entry is valid
        #: while no write lands at the location and the reader's clock is
        #: unchanged, so it is invalidated only by writes to the sampled
        #: location or by the reader synchronizing.
        self._sink_candidates: Dict = {}
        #: Per-tid (view, version, snapshot): consecutive events that left
        #: the thread's view untouched share one immutable bag snapshot
        #: instead of copying the view per event (bags are never mutated
        #: after the snapshot, so sharing is safe).
        self._bag_cache: Dict = {}
        self._fast = True

    # -- lifecycle ------------------------------------------------------------

    def _draw_points(self) -> list:
        # sample() only indexes its population: the range draws exactly
        # what its list would.
        universe = range(1, max(self.k_com, self.depth) + 1)
        points = self.rng.sample(universe, self.depth)
        # Tuple entry d_k (1-based k) maps to priority slot d-k: the first
        # tuple entry gets the highest of the low slots, so the selected
        # sinks execute in tuple order (Algorithm 1, lines 10-11).
        keys = [(point, self.depth - (k + 1))
                for k, point in enumerate(points)]
        keys.sort()
        return keys

    def on_run_start(self, state) -> None:
        keys = self._start_plan(state)
        self._counted.clear()
        self._reordered.clear()
        self._last_sc = None
        slot_by_count = self._slot_by_count
        slot_by_count.clear()
        slot_by_count.update(keys)
        # The fast engine uses array-backed views over the graph's dense
        # location ids; the reference engine keeps Definition 1's dict
        # views.  Both implement the same join semilattice, so the
        # scheduler's choices are identical either way (the differential
        # suite enforces this).
        self._fast = getattr(state, "fast", True) and hasattr(state, "graph")
        if self._fast:
            # Reuse last run's FastViews when the campaign runner pooled
            # the execution state (same graph object, freshly reset):
            # reset() rewinds each view to all-init in place instead of
            # reallocating the index vectors every trial.
            prior = self._views
            views = {}
            for t in state.threads:
                view = prior.get(t.tid)
                if type(view) is FastView and view._graph is state.graph:
                    view.reset()
                else:
                    view = FastView(state.graph)
                views[t.tid] = view
            self._views = views
        else:
            self._views = {
                t.tid: View(state.init_writes) for t in state.threads
            }
        self._bags.clear()
        self._sink_candidates.clear()
        self._bag_cache.clear()

    def on_thread_created(self, state, tid: int, parent_tid: int) -> None:
        super().on_thread_created(state, tid, parent_tid)
        # The child inherits the parent's view: the spawn edge is hb, so
        # everything the parent observed is available to the child.
        self._views[tid] = self._views[parent_tid].copy()

    # -- Algorithm 1: thread selection ---------------------------------------

    def choose_thread(self, state) -> int:
        # Runs once per step — the highest-priority scan, the spin check,
        # and the isCommunicationEvent predicate are inlined (each was a
        # call per step; semantics identical to the helpers they mirror).
        priorities = self._priorities
        counted = self._counted
        threads = state.threads
        spins = state.spins
        fast = self._fast
        while True:
            enabled = state._enabled_cache if fast else None
            if enabled is None:
                enabled = state.enabled_tids()
            tid = -1
            best_p = None
            for t in enabled:
                p = priorities[t]
                if best_p is None or p > best_p:
                    tid, best_p = t, p
            if not fast or spins._hot:
                # Fast engine: SpinTracker's hot counter is 0 until some
                # site crosses the spin threshold, so the divert call can
                # be skipped entirely (is_spinning would be False for
                # every site).  Duck-typed states fall back to the
                # unconditional call.
                diverted = self.divert_if_spinning(state, tid)
                if diverted is not None:
                    return diverted
            op = threads[tid].pending
            if op is not None and op.uid not in counted:
                comm = op._comm
                if comm is True:
                    is_comm = True
                elif comm is False:
                    is_comm = False
                elif comm == "store":
                    is_comm = op.order.is_seq_cst
                else:  # "fence"
                    order = op.order
                    is_comm = order.is_acquire or order.is_seq_cst
                if is_comm:
                    counted.add(op.uid)
                    self._i += 1
                    slot = self._slot_by_count.get(self._i)
                    if slot is not None:
                        self._observe((self._i, slot))
                        self.lower_priority(tid, slot)
                        self._reordered.add(op.uid)
                        continue
            return tid

    # -- Algorithm 2: read behaviour -------------------------------------------

    def choose_read_from(self, state, ctx: ReadContext) -> Event:
        view = self._views[ctx.tid]
        if ctx.order.is_seq_cst and self._last_sc is not None:
            # getSC: an SC event first absorbs its SC-predecessor's bag
            # (lines 6-8), so readLocal below observes the SC history.
            view.join(self._bags.get(self._last_sc.uid))
        if ctx.op.uid in self._reordered or ctx.spinning:
            return self._read_global(ctx)
        return self._read_local(view, ctx)

    def _read_global(self, ctx: ReadContext) -> Event:
        """readGlobal: uniform choice within history depth h (line 12).

        The h-bounded candidate set is memoized per (tid, loc): mo is
        append-only and the reader's clock only changes when it
        synchronizes, so the set computed for one sink read stays valid
        until a write lands at the location (or the clock moves).
        """
        state = ctx._state
        if not self._fast or state is None:
            return self.rng.choice(ctx.candidates[-self.history:])
        key = (ctx.tid, ctx.loc)
        # Validity stamp: every input the h-bounded set depends on.  The
        # write count covers mo growth and the SC write floor, the clock
        # covers the hb floor, and the read floor covers the thread's own
        # earlier reads (which move the floor without touching the clock).
        stamp = (
            len(state.graph.writes_by_loc[ctx.loc]),
            state.clocks[ctx.tid],
            state.visibility.read_floor(ctx.tid, ctx.loc),
            ctx.order.is_seq_cst,
        )
        memo = self._sink_candidates.get(key)
        if memo is not None and memo[0] == stamp:
            bounded = memo[1]
        else:
            bounded = ctx.bounded(self.history)
            self._sink_candidates[key] = (stamp, bounded)
        return self.rng.choice(bounded)

    def _read_local(self, view: View, ctx: ReadContext) -> Event:
        """readLocal: the thread's own view entry (line 19).

        The view entry is always coherence-visible (view joins accompany
        every clock join), but we clamp defensively to the coherence floor
        in case a program mixes paradigms the view does not model (e.g.
        values learned through thread join).
        """
        state = ctx._state
        if self._fast and state is not None:
            # Inlined FastView.get over the dense lid (one loc_ids lookup
            # for both the entry and the mo-tail check).
            graph = state.graph
            lid = graph.loc_ids[ctx.loc]
            writes = graph.writes_by_lid[lid]
            entry = writes[view._mo[lid]]
            if entry.mo_index == len(writes) - 1:
                # The mo-maximal write is always at or above the floor.
                return entry
        else:
            entry = view.get(ctx.loc)
        floor = ctx.floor_event()
        if entry.mo_index < floor.mo_index:
            return floor
        return entry

    # -- Algorithm 2: view updates ------------------------------------------------

    def on_event_executed(self, state, event: Event, info: dict) -> None:
        tid = event.tid
        view = self._views[tid]
        bags = self._bags
        op = info.get("op")
        if event.is_sc and (event.is_write or event.is_fence):
            # SC reads joined their predecessor's bag in choose_read_from.
            if self._last_sc is not None:
                view.join(bags.get(self._last_sc.uid))
        if event.is_read:
            self._apply_read_update(state, view, event, op, info)
        if event.is_write:
            # Lines 4-5: the thread now holds its own write for this loc.
            view.set(event.loc, event)
        if event.is_acquire_fence:
            # Lines 20-23: join the bags of every sw source.
            for source in info.get("fence_sync_sources", ()):
                view.join(bags.get(source.uid))
        # Release fences (line 25): no update.
        # Line 26: snapshot the view as this event's bag.  On the fast
        # path consecutive events that left the view untouched share one
        # snapshot (FastView.version detects effective mutations).
        if self._fast:
            cached = self._bag_cache.get(tid)
            version = view.version
            if cached is not None and cached[0] is view \
                    and cached[1] == version:
                bag = cached[2]
            else:
                bag = view.copy()
                self._bag_cache[tid] = (view, version, bag)
            bags[event.uid] = bag
        else:
            bags[event.uid] = view.copy()
        if event.is_sc:
            self._last_sc = event
        if op is not None:
            self._reordered.discard(op.uid)

    def _apply_read_update(self, state, view: View, event: Event,
                           op, info: dict) -> None:
        """Algorithm 2 lines 13-18: a read's view update."""
        source = event.reads_from
        if source is None:
            return
        external = (
            (op is not None and op.uid in self._reordered)
            or info.get("spinning", False)
            or info.get("rmw", False)
        )
        if not external and view.get(event.loc) is source:
            # readLocal: the thread already held this write; no update.
            return
        self._join_read(view, event, source, info)

    def _join_read(self, view: View, event: Event, source: Event,
                   info: dict) -> None:
        """Lines 14-17: what an external read joins into its view."""
        sync = info.get("sync_source")
        if sync is not None:
            # Line 14: sw formed — join the source's whole bag.
            view.join(self._bags.get(sync.uid))
            view.join_loc(event.loc, source)
        else:
            # Line 16: relaxed external read — join only this location.
            bag = self._bags.get(source.uid)
            if bag is not None:
                view.join_loc(event.loc, bag.get(event.loc))
            view.join_loc(event.loc, source)
