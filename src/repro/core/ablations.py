"""Ablation variants of PCTWM for the design-choice benchmarks.

DESIGN.md calls out four load-bearing design choices; each ablation removes
one so the benchmark suite can show it matters:

* :class:`PCTWMNoDelay` — selected sinks read globally but their threads
  are *not* deprioritized, so sinks do not run as late as possible and the
  writes they should observe often do not exist yet.
* :class:`PCTWMFullBagJoin` — every external read joins the source's whole
  bag (as if all reads synchronized), destroying the staleness that relaxed
  semantics permit; weak bugs that rely on partial views disappear.
* :class:`PCTWMEagerViews` — ``readLocal`` returns the mo-maximal visible
  write instead of the thread view, i.e. local reads behave like SC; pure
  staleness bugs (SB, dekker) vanish.
* :class:`PCTWMUnboundedHistory` — ``readGlobal`` samples uniformly over
  the entire visible set (h = ∞), recovering PCT-style dilution when many
  writes are visible (the Figure 6 effect).
"""

from __future__ import annotations

from typing import Optional

from ..memory.events import Event
from ..runtime.scheduler import ReadContext
from .pctwm import PCTWMScheduler


class PCTWMNoDelay(PCTWMScheduler):
    """Sinks are selected and read globally, but never delayed."""

    name = "pctwm-nodelay"

    def choose_thread(self, state) -> int:
        # Plain priority scheduling: peek to *count and mark* communication
        # events (so reordered reads still read globally), but skip the
        # priority change that delays them.
        tid = self.highest_priority_enabled(state)
        diverted = self.divert_if_spinning(state, tid)
        if diverted is not None:
            return diverted
        op = state.peek(tid)
        from ..runtime.ops import is_communication_op
        if op is not None and is_communication_op(op) \
                and op.uid not in self._counted:
            self._counted.add(op.uid)
            self._i += 1
            slot = self._slot_by_count.get(self._i)
            if slot is not None:
                self._observe((self._i, slot))
                self._reordered.add(op.uid)
        return tid


class PCTWMFullBagJoin(PCTWMScheduler):
    """External relaxed reads join the whole source bag (over-propagation)."""

    name = "pctwm-fullbag"

    def _join_read(self, view, event: Event, source: Event,
                   info: dict) -> None:
        # Ablated: treat every communication as if it synchronized.
        view.join(self._bags.get(source.uid))
        view.join_loc(event.loc, source)


class PCTWMEagerViews(PCTWMScheduler):
    """readLocal returns the freshest visible write (SC-like local reads)."""

    name = "pctwm-eager"

    def _read_local(self, view, ctx: ReadContext) -> Event:
        return ctx.latest()


class PCTWMUnboundedHistory(PCTWMScheduler):
    """readGlobal ignores the history bound (h = ∞)."""

    name = "pctwm-nohistory"

    def __init__(self, depth: int, k_com: int,
                 seed: Optional[int] = None):
        super().__init__(depth, k_com, history=1, seed=seed)

    def _read_global(self, ctx: ReadContext) -> Event:
        return self.rng.choice(ctx.candidates)
