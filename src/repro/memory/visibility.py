"""Coherence-respecting visible-write computation.

A read may not read from an arbitrary write: C11's coherence axioms enforce
sc-per-location (Section 4).  Operationally, a write ``w`` at location ``x``
is *visible* to a read ``r`` by thread ``t`` iff

* no mo-later write at ``x`` happens-before ``r``
  (otherwise ``mo; rf; hb`` would be reflexive — write-coherence), and
* ``w`` is not mo-before a write that a po-earlier read of ``t`` already
  observed (otherwise ``fr; rf`` would close a cycle — read-coherence), and
* for seq_cst reads, ``w`` is not mo-before the last seq_cst write at ``x``
  in SC order (the C11Tester-style (SC) axiom).

This is the same visible-write set C11Tester's runtime offers its random
scheduler; every scheduler in :mod:`repro.core` picks its rf source from it.

Fast path
    The hb part of the floor — "the mo-latest write at ``x`` that
    happens-before the reading thread's current point" — is memoized per
    ``(tid, loc)`` and maintained incrementally: per-thread vector clocks
    only grow, and mo is append-only, so a revalidation only rescans the
    writes appended (or newly synchronized) since the last query instead
    of the whole mo suffix.  ``memoize=False`` keeps the original
    scan-per-query reference behaviour for the differential suite.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

from .events import Event, clock_leq
from .execution import ExecutionGraph


def _hb_point(write: Event, clock: Tuple[int, ...]) -> bool:
    """Does ``write`` happen-before the point with vector clock ``clock``?"""
    if write.is_init:
        return True
    tid = write.tid
    if tid >= len(clock):
        return False
    return write.clock[tid] <= clock[tid]


class VisibilityTracker:
    """Per-thread coherence floors plus the visible-set query.

    The tracker records, for every ``(tid, loc)``, the highest mo index the
    thread has observed through its *reads* (its own writes and synchronized
    writes are covered by the vector-clock happens-before scan).  It also
    records the mo index of the mo-maximal seq_cst write per location, which
    floors seq_cst reads.
    """

    def __init__(self, graph: ExecutionGraph, memoize: bool = True) -> None:
        self._graph = graph
        self.memoize = memoize
        self._read_floor: Dict[Tuple[int, str], int] = defaultdict(int)
        self._sc_write_floor: Dict[str, int] = defaultdict(int)
        #: Per (tid, loc): [writes seen, clock seen, hb-max mo index].
        self._hb_memo: Dict[Tuple[int, str], list] = {}

    def reset(self) -> None:
        """Drop all floors and memos for reuse by the next run."""
        self._read_floor.clear()
        self._sc_write_floor.clear()
        self._hb_memo.clear()

    # -- bookkeeping ---------------------------------------------------------

    def note_read(self, tid: int, source: Event) -> None:
        """Raise the thread's read-coherence floor after a read."""
        key = (tid, source.loc)
        if source.mo_index > self._read_floor[key]:
            self._read_floor[key] = source.mo_index

    def note_write(self, event: Event) -> None:
        """Track seq_cst writes for the (SC) read floor."""
        if event.is_write and event.is_sc:
            loc = event.loc
            if event.mo_index > self._sc_write_floor[loc]:
                self._sc_write_floor[loc] = event.mo_index

    # -- queries ---------------------------------------------------------------

    def read_floor(self, tid: int, loc: str) -> int:
        """The highest mo index ``tid`` has read from at ``loc``."""
        return self._read_floor.get((tid, loc), 0)

    def snapshot(self) -> dict:
        """JSON-safe dump of the per-thread view state, for diagnostics.

        Keys are ``"t<tid>:<loc>"`` (read floors) and location names
        (seq_cst write floors); values are mo indices.
        """
        return {
            "read_floors": {
                f"t{tid}:{loc}": index
                for (tid, loc), index in sorted(self._read_floor.items())
            },
            "sc_write_floors": dict(sorted(self._sc_write_floor.items())),
        }

    def _hb_floor(self, tid: int, loc: str, clock: Tuple[int, ...],
                  writes: List[Event]) -> int:
        """mo index of the mo-latest write at ``loc`` hb-before ``clock``.

        Always defined: the initialization write (mo index 0) happens-before
        every point.  Memoized incrementally: per-thread clocks are
        pointwise monotone and mo is append-only, so a previously
        established floor never invalidates — only writes above it need a
        rescan, newest first, stopping at the first hb hit.
        """
        memo = self._hb_memo.get((tid, loc))
        if memo is not None:
            known_n, known_clock, known_floor = memo
            if known_n == len(writes) and known_clock == clock:
                return known_floor
            if not clock_leq(known_clock, clock):
                # Non-monotone query (direct API use with a rewound
                # clock): the cached floor may overshoot — start over.
                known_floor = 0
        else:
            known_floor = 0
            memo = self._hb_memo[(tid, loc)] = [0, clock, 0]
        floor = known_floor
        for w in reversed(writes):
            if w.mo_index <= known_floor:
                break
            if _hb_point(w, clock):
                floor = w.mo_index
                break
        memo[0] = len(writes)
        memo[1] = clock
        memo[2] = floor
        return floor

    def floor(self, tid: int, loc: str, clock: Tuple[int, ...],
              seq_cst: bool = False) -> int:
        """The minimal mo index a read by ``tid`` at ``loc`` may observe."""
        writes = self._graph.writes_by_loc[loc]
        floor = self._read_floor[(tid, loc)]
        if seq_cst:
            sc_floor = self._sc_write_floor[loc]
            if sc_floor > floor:
                floor = sc_floor
        if self.memoize:
            hb_floor = self._hb_floor(tid, loc, clock, writes)
            return hb_floor if hb_floor > floor else floor
        for w in reversed(writes):
            if w.mo_index <= floor:
                break
            if _hb_point(w, clock):
                floor = w.mo_index
                break
        return floor

    def visible_writes(self, tid: int, loc: str, clock: Tuple[int, ...],
                       seq_cst: bool = False) -> List[Event]:
        """All writes a read may legally read from, in mo order."""
        writes = self._graph.writes_by_loc[loc]
        if not writes:
            raise KeyError(f"location {loc!r} was never initialized")
        floor = self.floor(tid, loc, clock, seq_cst)
        return writes[floor:]

    def bounded_visible_writes(self, tid: int, loc: str,
                               clock: Tuple[int, ...], history: int,
                               seq_cst: bool = False) -> List[Event]:
        """Visible writes restricted to history depth ``h`` (Definition 5).

        A write qualifies iff it has fewer than ``h`` ``imm(mo)`` successors,
        i.e. it is one of the ``h`` mo-latest writes at the location.  The
        intersection with the coherence-visible set is returned in mo order;
        it is never empty because the mo-maximal write is always visible.
        Answered O(h) from the mo tail array without materializing the
        full visible suffix.
        """
        if history < 1:
            raise ValueError("history depth must be >= 1")
        writes = self._graph.writes_by_loc[loc]
        if not writes:
            raise KeyError(f"location {loc!r} was never initialized")
        floor = self.floor(tid, loc, clock, seq_cst)
        start = len(writes) - history
        if floor > start:
            start = floor
        return writes[start:]
