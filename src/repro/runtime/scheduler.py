"""The scheduler interface every testing algorithm implements.

Generating a weak-memory test execution requires two families of choices
(Section 5.2): *which thread runs next*, and *which write a read observes*.
The executor delegates both to a :class:`Scheduler`:

* :meth:`Scheduler.choose_thread` picks the next thread among the enabled
  ones (and may peek pending ops through the state to implement
  priority-change logic, as PCTWM's Algorithm 1 does);
* :meth:`Scheduler.choose_read_from` picks the rf source among the
  coherence-visible candidate writes.

Schedulers also receive lifecycle hooks so that stateful algorithms (thread
views, priority lists) can maintain their bookkeeping.
"""

from __future__ import annotations

import random
from typing import List, Optional, TYPE_CHECKING

from ..memory.events import Event, MemoryOrder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .executor import ExecutionState
    from .ops import Op

#: Decision kinds, one per choice family: a decision log is a list of
#: ``(THREAD, tid)`` and ``(READ, offset from the coherence floor)``
#: pairs (the :class:`repro.replay.trace.Trace` format).
THREAD = "t"
READ = "r"


class ReadContext:
    """Everything a scheduler may consult when choosing an rf source.

    The candidate set is computed lazily: most schedulers only need a
    fragment of it (the mo-maximal write, the coherence floor, or the
    ``h`` mo-latest writes), and materializing the full visible suffix per
    read is O(writes-at-loc) work the fast path avoids.  Accessing
    ``candidates`` materializes (and caches) the full list, so schedulers
    that want the whole set behave exactly as before.
    """

    __slots__ = ("tid", "loc", "order", "op", "spinning", "is_rmw",
                 "_candidates", "_state", "_floor")

    def __init__(self, tid: int, loc: str, order: MemoryOrder,
                 candidates: Optional[List[Event]] = None,
                 op: "Op" = None, spinning: bool = False,
                 is_rmw: bool = False,
                 state: "ExecutionState" = None):
        self.tid = tid
        self.loc = loc
        self.order = order
        #: The op being executed (identity lets PCTWM recognize reordered
        #: ops).
        self.op = op
        #: True when the spin heuristic flagged this program point.
        self.spinning = spinning
        #: True for the read side of an RMW or CAS.
        self.is_rmw = is_rmw
        self._candidates = candidates
        self._state = state
        self._floor = -1
        if candidates is None and state is None:
            raise ValueError(
                "ReadContext needs either an explicit candidate list or "
                "an execution state to compute one from"
            )

    @property
    def candidates(self) -> List[Event]:
        """Coherence-visible candidate writes, in mo order.  Never empty;
        the mo-maximal write is always present.  For RMW/CAS this is the
        single mo-maximal write (atomicity)."""
        if self._candidates is None:
            state = self._state
            self._candidates = state.visibility.visible_writes(
                self.tid, self.loc, state.clocks[self.tid],
                seq_cst=self.order.is_seq_cst,
            )
        return self._candidates

    # -- O(1)/O(h) fragments of the candidate set ---------------------------

    def latest(self) -> Event:
        """The mo-maximal write (``candidates[-1]``) without the full list."""
        if self._candidates is not None:
            return self._candidates[-1]
        return self._state.graph.writes_by_loc[self.loc][-1]

    def floor_index(self) -> int:
        """The mo index of the coherence floor (``candidates[0]``).

        Memoized for the context's lifetime (one read): the executor's
        rf validation and a scheduler's floor clamp both need it.
        """
        if self._floor >= 0:
            return self._floor
        if self._candidates is not None:
            self._floor = self._candidates[0].mo_index
            return self._floor
        state = self._state
        self._floor = state.visibility.floor(
            self.tid, self.loc, state.clocks[self.tid],
            seq_cst=self.order.is_seq_cst,
        )
        return self._floor

    def floor_event(self) -> Event:
        """The mo-minimal visible write (``candidates[0]``)."""
        if self._candidates is not None:
            return self._candidates[0]
        return self._state.graph.writes_by_loc[self.loc][self.floor_index()]

    def bounded(self, history: int) -> List[Event]:
        """The visible writes within history depth (``candidates[-h:]``)."""
        if self._candidates is not None:
            return self._candidates[-history:]
        state = self._state
        return state.visibility.bounded_visible_writes(
            self.tid, self.loc, state.clocks[self.tid], history,
            seq_cst=self.order.is_seq_cst,
        )


class Scheduler:
    """Base scheduler: uniform-random choices, overridable hooks."""

    name = "base"

    def __init__(self, seed: Optional[int] = None):
        self.rng = random.Random(seed)

    def reseed(self, seed: Optional[int] = None) -> None:
        """Re-arm the RNG for a fresh run, as if newly constructed.

        ``random.Random(n)`` and ``rng.seed(n)`` produce identical streams,
        so a reseeded scheduler is seed-for-seed equivalent to a fresh
        instance provided all other per-run state is rebuilt in
        ``on_run_start`` — true of every scheduler in the registry (see
        ``SchedulerSpec.supports_reuse``).  Campaign runners use this to
        keep one warm scheduler instance per worker instead of
        constructing one per trial.
        """
        self.rng.seed(seed)

    # -- lifecycle ----------------------------------------------------------

    def on_run_start(self, state: "ExecutionState") -> None:
        """Called once per run after threads are primed."""

    def on_event_executed(self, state: "ExecutionState", event: Event,
                          info: dict) -> None:
        """Called after each event commits.

        ``info`` keys: ``op`` (the executed op), ``reordered`` (bool, set by
        the scheduler itself via state), ``sync_source`` (release-chain
        source joined by an acquire read, or None), ``fence_sync_sources``
        (sources consumed by an acquire fence).
        """

    def on_thread_finished(self, state: "ExecutionState", tid: int) -> None:
        """Called when a thread runs to completion."""

    def on_thread_created(self, state: "ExecutionState", tid: int,
                          parent_tid: int) -> None:
        """Called when a SpawnOp creates a thread at runtime."""

    # -- decisions -----------------------------------------------------------

    def choose_thread(self, state: "ExecutionState") -> int:
        """Pick the next thread id among ``state.enabled_tids()``."""
        return self.rng.choice(state.enabled_tids())

    def choose_read_from(self, state: "ExecutionState",
                         ctx: ReadContext) -> Event:
        """Pick the rf source among ``ctx.candidates``."""
        return self.rng.choice(ctx.candidates)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"
