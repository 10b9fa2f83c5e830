"""Shared priority machinery for the PCT-family schedulers.

Both PCT and PCTWM run threads strictly by priority and lower a thread's
priority at randomly chosen change points.  This base class owns the
plan (the priority permutation and the change points, drawn together by
:meth:`PriorityScheduler.draw_plan`, possibly ahead of the run), the
priority table, the highest-priority-enabled selection, and the livelock
heuristic of Section 6.2: when the thread about to run is stuck in a wait
loop, the scheduler switches to a random other enabled thread so the value
the loop waits for can eventually be produced.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..runtime.scheduler import Scheduler


class PriorityScheduler(Scheduler):
    """Strict-priority thread selection with random initial priorities."""

    def __init__(self, depth: int, seed: Optional[int] = None):
        super().__init__(seed)
        if depth < 0:
            raise ValueError("bug depth must be >= 0")
        self.depth = depth
        self._priorities: Dict[int, float] = {}
        #: The highest count whose change point has been checked this run.
        self._i = 0
        #: A plan drawn ahead of its run by :meth:`draw_plan`.
        self._plan: Optional[tuple] = None
        #: The thread ids of the last run's plan.
        self.last_tids: Optional[List[int]] = None
        #: Where this run's observations go (a campaign's draw tree log).
        self._log: Optional[list] = None

    def reseed(self, seed: Optional[int] = None) -> None:
        super().reseed(seed)
        self._plan = None

    # -- the plan -------------------------------------------------------------

    def draw_plan(self, tids: List[int]) -> tuple:
        """Draw a run's plan for threads ``tids`` and keep it for that
        run's ``on_run_start``: a random permutation of priorities above
        all change slots, then the change points.

        Change slots occupy priorities ``0 .. depth-1`` (the first ``d``
        positions of Algorithm 1's ascending ``threads`` list), so initial
        priorities start at ``depth + 1``.  Returns ``(perm, keys)``: the
        priorities in ``tids`` order and the ``(count, slot)`` change
        points sorted by count.
        """
        values = list(range(self.depth + 1, self.depth + 1 + len(tids)))
        self.rng.shuffle(values)
        perm = tuple(values)
        keys = self._draw_points()
        self._plan = (tids, perm, keys)
        return perm, keys

    def _draw_points(self) -> List[tuple]:
        """The run's change points, ``(count, slot)`` sorted by count."""
        raise NotImplementedError

    def _start_plan(self, state) -> List[tuple]:
        """Install this run's plan; returns its change points.

        The plan drawn ahead for this trial is used when it was drawn for
        these threads.  One drawn for other threads means the run is not
        the one its trial's walk predicted: the stream restarts from the
        seed and the run draws its own plan, as a plain run would.
        """
        tids = [t.tid for t in state.threads]
        plan = self._plan
        self._plan = None
        if plan is not None and plan[0] != tids:
            self.rng.restart()
            plan = None
        if plan is None:
            self.draw_plan(tids)
            plan = self._plan
            self._plan = None
        self.last_tids = tids
        perm, keys = plan[1], plan[2]
        self._priorities = dict(zip(tids, perm))
        self._i = 0
        rng = self.rng
        log = self._log = (rng.log if getattr(rng, "counter", None)
                           is not None else None)
        if log is not None:
            log.append(perm)
        return keys

    def plan_count(self) -> int:
        """The count this run's change points have been checked through."""
        return self._i

    def _observe(self, key: tuple) -> None:
        """A change point ``(count, slot)`` was passed."""
        if self._log is not None:
            self._log.append(key)

    def priority_of(self, tid: int) -> float:
        return self._priorities[tid]

    def on_thread_created(self, state, tid: int, parent_tid: int) -> None:
        """A SpawnOp created a thread: give it a random initial-band
        priority (original PCT assigns spawned threads random priorities
        on creation)."""
        upper = self.depth + 1 + len(self._priorities) + 1
        self._priorities[tid] = self.rng.uniform(self.depth + 0.5, upper)

    def lower_priority(self, tid: int, slot: float) -> None:
        """Move a thread into a low slot (a priority-change point fired)."""
        self._priorities[tid] = slot

    def highest_priority_enabled(self, state) -> int:
        # max(enabled, key=priority, ties to the smaller tid) as a plain
        # loop: no per-call lambda or tuple allocation on the hot path.
        priorities = self._priorities
        best = -1
        best_p = None
        for tid in state.enabled_tids():
            p = priorities[tid]
            if best_p is None or p > best_p:
                best, best_p = tid, p
        return best

    # -- livelock heuristic ----------------------------------------------------

    def divert_if_spinning(self, state, tid: int) -> Optional[int]:
        """Pick a random other enabled thread when ``tid`` is spinning.

        Returns the diverted thread id, or None when no diversion applies.
        The more often this fires, the closer the algorithm drifts to naive
        random testing — exactly the trade-off Section 6.2 describes for
        the seqlock benchmark.
        """
        thread = state.threads[tid]
        if thread.pending is None:
            return None
        if not state.spins.is_spinning(thread.site_key):
            return None
        others = [t for t in state.enabled_tids() if t != tid]
        if not others:
            return None
        return self.rng.choice(others)
