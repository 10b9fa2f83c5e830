"""C11 consistency axioms (Section 4 of the paper).

An execution is *consistent* when:

* (write-coherence)  ``mo; rf?; hb?`` is irreflexive
* (read-coherence)   ``fr; rf?; hb``  is irreflexive
* (Atomicity)        ``fr; mo = ∅``
* (irrMOSC)          ``mo; SC`` is irreflexive
* (SC)               ``hb ∪ rf ∪ SC`` is acyclic  (C11Tester's formulation)

The executor generates executions that satisfy these by construction; this
module is the independent auditor used by the runtime sanitizer, by tests
and by :mod:`repro.analysis` to verify that claim on every generated graph.

Two auditors state the same axioms.  :func:`check_consistency` is the
one-pass auditor the sanitizer runs: with rf and mo fixed in the graph,
every axiom above is a polynomial-time check (*How Hard is Weak-Memory
Testing?*, PAPERS.md), and here a linear walk over hb's generators.
:func:`check_consistency_reference` spells the axioms out in the relation
algebra of :mod:`repro.memory.relations` (O(n²) relations, transitive
closures) and is the oracle the tests compare the one-pass auditor
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .events import Event, INIT_TID
from .execution import ExecutionGraph
from .relations import Relation


@dataclass(frozen=True)
class AxiomViolation:
    """A named consistency-axiom failure, for reporting."""

    axiom: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - reporting aid
        return f"{self.axiom}: {self.detail}"


def _reflexive_pairs(rel: Relation) -> List[str]:
    return [repr(a) for a, b in rel.edges() if a is b or a == b]


def check_write_coherence(graph: ExecutionGraph) -> List[AxiomViolation]:
    """``mo; rf?; hb?`` irreflexive."""
    events = set(graph.events)
    mo = graph.mo()
    rf_opt = graph.rf().reflexive(events)
    hb_opt = graph.hb().reflexive(events)
    bad = _reflexive_pairs(mo.compose(rf_opt).compose(hb_opt))
    return [AxiomViolation("write-coherence", e) for e in bad]


def check_read_coherence(graph: ExecutionGraph) -> List[AxiomViolation]:
    """``fr; rf?; hb`` irreflexive."""
    events = set(graph.events)
    fr = graph.fr()
    rf_opt = graph.rf().reflexive(events)
    hb = graph.hb()
    bad = _reflexive_pairs(fr.compose(rf_opt).compose(hb))
    return [AxiomViolation("read-coherence", e) for e in bad]


def check_atomicity(graph: ExecutionGraph) -> List[AxiomViolation]:
    """RMWs read their immediate mo-predecessor.

    The paper states this as ``(fr; mo) = ∅``, which — with ``fr`` defined
    over the full event set — is the standard RC11 requirement that
    ``fr; mo`` is *irreflexive*: no write may sit mo-between an RMW and the
    write it reads from (otherwise ``fr(u, w'); mo(w', u)`` closes a cycle
    at ``u``).
    """
    out: List[AxiomViolation] = []
    for u in graph.events:
        if not u.is_rmw or u.reads_from is None:
            continue
        source = u.reads_from
        between = [
            w for w in graph.writes_by_loc[u.loc]
            if source.mo_index < w.mo_index < u.mo_index
        ]
        if between:
            out.append(AxiomViolation(
                "atomicity",
                f"{u!r} is not mo-adjacent to its source {source!r}: "
                f"{between[0]!r} sits in between",
            ))
    return out


def check_irr_mo_sc(graph: ExecutionGraph) -> List[AxiomViolation]:
    """``mo; SC`` irreflexive: mo and SC agree on same-location accesses."""
    bad = _reflexive_pairs(graph.mo().compose(graph.sc()))
    return [AxiomViolation("irrMOSC", e) for e in bad]


def check_sc_acyclic(graph: ExecutionGraph) -> List[AxiomViolation]:
    """``hb ∪ rf ∪ SC`` acyclic (C11Tester's (SC) axiom).

    Acyclicity of this union also forbids out-of-thin-air reads since
    ``po ⊆ hb``.
    """
    union = graph.hb() | graph.rf() | graph.sc()
    if union.is_acyclic():
        return []
    return [AxiomViolation("SC", "hb ∪ rf ∪ SC has a cycle")]


def check_rf_wellformed(graph: ExecutionGraph) -> List[AxiomViolation]:
    """Every read reads-from exactly one same-location write."""
    out: List[AxiomViolation] = []
    for e in graph.events:
        if e.is_read and not e.is_init:
            w = e.reads_from
            if w is None:
                out.append(AxiomViolation("rf", f"{e!r} has no rf source"))
            elif not w.is_write or w.loc != e.loc:
                out.append(AxiomViolation("rf", f"{e!r} reads from {w!r}"))
            elif w.wval != e.rval:
                out.append(
                    AxiomViolation("rf", f"{e!r} value differs from {w!r}")
                )
    return out


ALL_CHECKS = (
    check_rf_wellformed,
    check_write_coherence,
    check_read_coherence,
    check_atomicity,
    check_irr_mo_sc,
    check_sc_acyclic,
)


def check_consistency_reference(graph: ExecutionGraph
                                ) -> List[AxiomViolation]:
    """Run every axiom in the relation algebra (the test oracle).

    Takes any graph, including hand-built or mutated ones whose
    ``po ∪ sw`` is cyclic, which :func:`check_consistency` hands back
    here.
    """
    out: List[AxiomViolation] = []
    for check in ALL_CHECKS:
        out.extend(check(graph))
    return out


def check_consistency(graph: ExecutionGraph) -> List[AxiomViolation]:
    """Run every axiom; an empty list means the execution is consistent.

    The one-pass auditor: it derives hb from the graph's ``po``, ``rf``
    and release chains alone (never from the engine's ``Event.clock`` or
    release-chain stamps) and returns the violations
    :func:`check_consistency_reference` returns, in the same order.
    Graphs outside the engine's shape — ``po ∪ sw`` cyclic, a read that
    happens-before the write it reads from, or bookkeeping that does not
    index ``graph.events`` — go to the reference.
    """
    found = _one_pass(graph)
    if found is None:
        return check_consistency_reference(graph)
    return found


def is_consistent(graph: ExecutionGraph) -> bool:
    return not check_consistency(graph)


# -- the one-pass auditor -----------------------------------------------------

_UNSET = object()
_VISITING = object()


def _one_pass(graph: ExecutionGraph) -> Optional[List[AxiomViolation]]:
    """The axioms of :func:`check_consistency_reference` without relations.

    hb is ``(po ∪ sw)⁺`` plus init→every-event, so a walk over the events
    in a topological order of ``po_imm ∪ sw`` sees every hb-predecessor
    of an event before the event.  Each thread carries a *floor*: per
    location, the highest mo position that an event of the thread or any
    of its hb-predecessors wrote or read from (its rf source); an sw edge
    joins the source's floor into the sink's thread.  Then at event
    ``e``, with ``G`` the floor of e's hb-predecessors and ``F`` that
    floor plus e's own write and rf source:

    * read-coherence ``fr; rf?; hb`` fires iff ``G`` at the location of
      e's source ``w`` is above ``w``'s mo position (some write fr-after
      e is hb-before e or read by an hb-predecessor);
    * write-coherence ``mo; rf?; hb?`` fires iff ``F`` at e's location
      is above e's own mo position;
    * irrMOSC fires at a write that some SC-earlier write of its location
      follows in mo, found in one scan of the SC order;
    * (SC) is Kahn acyclicity of ``po_imm ∪ sw ∪ rf ∪ SC_imm``, whose
      closure union is ``hb ∪ rf ∪ SC`` less the init edges, and init
      events have no incoming edge so sit on no cycle.

    Returns None when the graph is outside the shape this relies on (see
    :func:`check_consistency`).
    """
    events = graph.events
    n = len(events)

    # mo: dense location ids; mo_index must be the list position.
    mo_lid = [-1] * n
    lid_of: Dict[str, int] = {}
    for lid, (loc, writes) in enumerate(graph.writes_by_loc.items()):
        lid_of[loc] = lid
        for pos, w in enumerate(writes):
            uid = w.uid
            if (w.mo_index != pos or w.loc != loc or not 0 <= uid < n
                    or events[uid] is not w):
                return None
            mo_lid[uid] = lid

    # po: every event sits in its thread's list at its po_index and in
    # graph.events at its uid, so uids index the per-event arrays.  Also
    # collects the po-nearest release fence before and acquire fence
    # after each event, the readers, and whether uid order is already
    # topological for po and rf.
    fence_before: List[Optional[Event]] = [None] * n
    acq_fence_after: List[Optional[Event]] = [None] * n
    threads: List[List[Event]] = []
    readers: List[Event] = []
    forward = rf_forward = True
    listed = 0
    for tid, evs in graph.events_by_tid.items():
        listed += len(evs)
        init = tid == INIT_TID
        fence = None
        acquires = False
        prev = -1
        for j, e in enumerate(evs):
            uid = e.uid
            if (e.po_index != j or e.tid != tid or e.is_init != init
                    or not 0 <= uid < n or events[uid] is not e):
                return None
            w = e.reads_from
            if w is not None:
                # rf sources are graph events, committed to mo or not
                # at all.
                wuid = w.uid
                if (init or not 0 <= wuid < n or events[wuid] is not w
                        or w.mo_index != -1 and mo_lid[wuid] < 0):
                    return None
                if wuid >= uid:
                    rf_forward = False
                readers.append(e)
            if init:
                continue
            if uid < prev:
                forward = False
            prev = uid
            fence_before[uid] = fence
            if e.is_release_fence:
                fence = e
            acquires = acquires or e.is_acquire_fence
        if not init:
            threads.append(evs)
        if acquires:
            fence = None
            for e in reversed(evs):
                acq_fence_after[e.uid] = fence
                if e.is_acquire_fence:
                    fence = e
    if listed != n:
        return None

    sc_order = graph.sc_order
    sc_seen = [False] * n
    sc_forward = True
    prev = -1
    for e in sc_order:
        uid = e.uid
        if (not 0 <= uid < n or events[uid] is not e or sc_seen[uid]
                or e.is_init):
            return None
        sc_seen[uid] = True
        if uid < prev:
            sc_forward = False
        prev = uid

    # sw, exactly the edges ExecutionGraph.sw() derives with
    # release_source_reference, except that a relaxed read's edge goes to
    # the first po-later acquire fence only: the later ones are po-after
    # it, so hb is the same.
    memo: List[object] = [_UNSET] * n
    sw_pairs: List[Tuple[int, int]] = []
    sw_into: List[Optional[List[int]]] = [None] * n
    is_source = [False] * n
    for e in readers:
        source = _release_source(e.reads_from, memo, fence_before)
        if source is None or source.is_init:
            continue
        sink = e if e.order.is_acquire else acq_fence_after[e.uid]
        if sink is None:
            continue
        src, dst = source.uid, sink.uid
        sw_pairs.append((src, dst))
        if sw_into[dst] is None:
            sw_into[dst] = [src]
        else:
            sw_into[dst].append(src)
        is_source[src] = True
        if src >= dst:
            forward = False

    if forward:
        order: Iterable[Event] = events
    else:
        uids = _topological(n, _chain(threads, sw_pairs))
        if uids is None:
            return None
        order = [events[uid] for uid in uids]

    base = [-1] * len(lid_of)
    for e in graph.events_by_tid.get(INIT_TID, ()):
        lid = mo_lid[e.uid]
        if lid >= 0 and e.mo_index > base[lid]:
            base[lid] = e.mo_index
    floors: Dict[int, List[int]] = {}
    snapshots: Dict[int, List[int]] = {}
    bad_writes: List[Event] = []
    bad_reads: List[Event] = []
    for e in order:
        if e.is_init:
            continue
        uid = e.uid
        floor = floors.get(e.tid)
        if floor is None:
            floor = floors[e.tid] = base[:]
        sources = sw_into[uid]
        if sources is not None:
            for src in sources:
                floor[:] = map(max, floor, snapshots[src])
        lid = mo_lid[uid]
        w = e.reads_from
        if w is not None:
            rlid = lid_of.get(w.loc)
            if rlid is not None and floor[rlid] > w.mo_index:
                if rlid == lid and floor[rlid] == e.mo_index:
                    # e itself is the highest write its hb-predecessors
                    # read from, and fr excludes e: the floor cannot say
                    # whether another write is above w.
                    return None
                bad_reads.append(e)
            wlid = mo_lid[w.uid]
            if wlid >= 0 and w.mo_index > floor[wlid]:
                floor[wlid] = w.mo_index
        if lid >= 0:
            if floor[lid] > e.mo_index:
                bad_writes.append(e)
            else:
                floor[lid] = e.mo_index
        if is_source[uid]:
            snapshots[uid] = floor[:]

    # irrMOSC: scanning SC order, a write below the highest mo position
    # already seen at its location has an SC-earlier mo-successor.
    bad_sc: List[Event] = []
    top: Dict[int, int] = {}
    for e in sc_order:
        lid = mo_lid[e.uid]
        if lid < 0:
            continue
        if top.get(lid, -1) > e.mo_index:
            bad_sc.append(e)
        else:
            top[lid] = e.mo_index

    out = check_rf_wellformed(graph)
    by_mo = lambda e: (mo_lid[e.uid], e.mo_index)  # noqa: E731
    out.extend(AxiomViolation("write-coherence", repr(e))
               for e in sorted(bad_writes, key=by_mo))
    out.extend(AxiomViolation("read-coherence", repr(e))
               for e in sorted(bad_reads, key=lambda e: e.uid))
    out.extend(check_atomicity(graph))
    out.extend(AxiomViolation("irrMOSC", repr(e))
               for e in sorted(bad_sc, key=by_mo))
    if not (forward and rf_forward and sc_forward):
        generators = _chain(
            threads, sw_pairs,
            ((e.reads_from.uid, e.uid) for e in readers),
            ((a.uid, b.uid) for a, b in zip(sc_order, sc_order[1:])))
        if _topological(n, generators) is None:
            out.append(AxiomViolation("SC", "hb ∪ rf ∪ SC has a cycle"))
    return out


def _release_source(write: Event, memo: List[object],
                    fence_before: List[Optional[Event]]) -> Optional[Event]:
    """:meth:`ExecutionGraph.release_source_reference`, memoized by uid.

    Every event on the walked ``rf`` chain shares the walk's answer, so
    the chains cost O(n) over the whole graph; a chain that closes a
    cycle has no source, as in the reference.
    """
    path = []
    current: Optional[Event] = write
    found: Optional[Event] = None
    while current is not None:
        uid = current.uid
        known = memo[uid]
        if known is not _UNSET:
            found = None if known is _VISITING else known
            break
        memo[uid] = _VISITING
        path.append(uid)
        if current.order.is_release:
            found = current
            break
        found = fence_before[uid]
        if found is not None:
            break
        current = current.reads_from if current.is_rmw else None
    for uid in path:
        memo[uid] = found
    return found


def _chain(threads: List[List[Event]], *pairs: Iterable[Tuple[int, int]]
           ) -> Iterable[Tuple[int, int]]:
    """``po_imm`` as uid pairs, followed by the given edge sets."""
    for evs in threads:
        for a, b in zip(evs, evs[1:]):
            yield a.uid, b.uid
    for edges in pairs:
        yield from edges


def _topological(n: int, edges: Iterable[Tuple[int, int]]
                 ) -> Optional[List[int]]:
    """Kahn's algorithm over uids ``0..n-1``; None if there is a cycle."""
    succ: List[List[int]] = [[] for _ in range(n)]
    indegree = [0] * n
    for a, b in edges:
        succ[a].append(b)
        indegree[b] += 1
    ready = [uid for uid in range(n) if not indegree[uid]]
    order = []
    while ready:
        uid = ready.pop()
        order.append(uid)
        for nxt in succ[uid]:
            indegree[nxt] -= 1
            if not indegree[nxt]:
                ready.append(nxt)
    return order if len(order) == n else None


class IncrementalCoherenceChecker:
    """Cheap online coherence audit, fed one event at a time.

    The runtime sanitizer runs the full axiom check
    (:func:`check_consistency`) once at run end; *during* the run this
    checker audits each committed event in O(1) against the per-location
    coherence discipline the executor is supposed to uphold by
    construction:

    * writes append at the mo-tail of their location;
    * a read never observes a write mo-older than one the same thread
      already observed at that location (read coherence), nor mo-older
      than the thread's own latest write there (write coherence);
    * an RMW reads from its immediate mo-predecessor (atomicity).

    The checker keeps its own floors — deliberately independent of
    :class:`repro.memory.visibility.VisibilityTracker`, whose bugs it
    exists to catch.  Violations are capped at ``max_violations`` so a
    badly broken run cannot exhaust memory.
    """

    def __init__(self, graph: ExecutionGraph, max_violations: int = 16):
        self.violations: List[AxiomViolation] = []
        self.max_violations = max_violations
        self._read_floor: Dict[Tuple[int, str], int] = {}
        self._own_write: Dict[Tuple[int, str], int] = {}
        self._mo_tail: Dict[str, int] = {
            loc: len(writes) for loc, writes in graph.writes_by_loc.items()
        }

    def _flag(self, axiom: str, detail: str) -> None:
        if len(self.violations) < self.max_violations:
            self.violations.append(AxiomViolation(axiom, f"online: {detail}"))

    def on_event(self, event: Event) -> None:
        """Audit one committed event (read, write, RMW; fences are free)."""
        if event.is_fence:
            return
        if event.reads_from is not None:
            self._on_read(event)
        if event.is_write:
            self._on_write(event)

    def _on_read(self, event: Event) -> None:
        tid, loc = event.tid, event.loc
        source = event.reads_from
        floor = self._read_floor.get((tid, loc), 0)
        if source.mo_index < floor:
            self._flag(
                "read-coherence",
                f"{event!r} observes {source!r} at mo index "
                f"{source.mo_index}, below the thread's read floor {floor}",
            )
        own = self._own_write.get((tid, loc), -1)
        if source.mo_index < own:
            self._flag(
                "write-coherence",
                f"{event!r} observes {source!r} at mo index "
                f"{source.mo_index}, older than the thread's own write "
                f"at {own}",
            )
        if event.is_rmw and event.mo_index != source.mo_index + 1:
            self._flag(
                "atomicity",
                f"{event!r} is not mo-adjacent to its source {source!r} "
                f"({source.mo_index} -> {event.mo_index})",
            )
        if source.mo_index > floor:
            self._read_floor[(tid, loc)] = source.mo_index

    def _on_write(self, event: Event) -> None:
        loc = event.loc
        expected = self._mo_tail.get(loc, 0)
        if event.mo_index != expected:
            self._flag(
                "mo-tail",
                f"{event!r} placed at mo index {event.mo_index}, "
                f"expected the tail {expected}",
            )
        self._mo_tail[loc] = event.mo_index + 1
        self._own_write[(event.tid, loc)] = event.mo_index
