"""The PCT baseline, adapted to weak memory as in the paper's evaluation.

The original PCT algorithm (Burckhardt et al., ASPLOS 2010) assigns random
priorities to threads, runs the highest-priority enabled thread, and lowers
the running thread's priority at ``d-1`` random steps out of the ``k``
program events.  It guarantees detecting a depth-``d`` bug with probability
at least ``1/(t · k^(d-1))``.

The paper's evaluation (Section 6) uses a *weak-memory variant*: scheduling
is exactly PCT, but "the read operations do not necessarily read the last
written value on a variable — they read any of the observable values under
the given memory model, selected uniformly at random".  That is what this
class implements: PCT priorities + uniform choice over the full
coherence-visible write set.
"""

from __future__ import annotations

from typing import Optional

from ..memory.events import Event
from ..runtime.scheduler import ReadContext
from .priorities import PriorityScheduler


class PCTScheduler(PriorityScheduler):
    """PCT priorities; reads sample uniformly over all visible writes.

    Parameters mirror the artifact's CLI: ``depth`` is ``-b`` (bug depth)
    and ``k_events`` is ``-l`` (the estimated number of shared accesses,
    from which the ``d-1`` priority-change points are drawn).
    """

    name = "pct"

    def __init__(self, depth: int, k_events: int,
                 seed: Optional[int] = None):
        super().__init__(depth, seed)
        if k_events < 1:
            raise ValueError("k_events must be >= 1")
        self.k_events = k_events
        #: This run's change points: ``{step: slot}``, and ``(step,
        #: slot)`` sorted by step with the index of the next to pass.
        self._slots: dict = {}
        self._points: list = []
        self._next = 0
        self._executed = 0

    # -- lifecycle -----------------------------------------------------------

    def _draw_points(self) -> list:
        count = max(self.depth - 1, 0)
        universe = range(1, max(self.k_events, count) + 1)
        points = sorted(self.rng.sample(universe, count))
        # The j-th change point (in firing order) moves its thread to slot
        # d-1-j, so later change points produce lower priorities.
        return [(p, self.depth - 1 - j) for j, p in enumerate(points)]

    def on_run_start(self, state) -> None:
        keys = self._start_plan(state)
        self._executed = 0
        self._points = keys
        self._next = 0
        self._slots = dict(keys)

    def on_event_executed(self, state, event: Event, info: dict) -> None:
        self._executed += 1

    # -- decisions ------------------------------------------------------------

    def choose_thread(self, state) -> int:
        while True:
            tid = self.highest_priority_enabled(state)
            diverted = self.divert_if_spinning(state, tid)
            if diverted is not None:
                return diverted
            self._i = step = self._executed + 1
            slot = self._pass_points(step)
            if slot is not None:
                self.lower_priority(tid, slot)
                continue
            return tid

    def _pass_points(self, step: int):
        """Pass the change points up to ``step``; the slot of the one at
        ``step``, if any.  A point whose step went by unchecked (the step
        ran a diverted thread) never fires."""
        points = self._points
        j = self._next
        slot = None
        while j < len(points) and points[j][0] <= step:
            key = points[j]
            self._observe(key)
            if key[0] == step:
                slot = key[1]
            j += 1
        self._next = j
        return slot

    def choose_read_from(self, state, ctx: ReadContext) -> Event:
        return self.rng.choice(ctx.candidates)
