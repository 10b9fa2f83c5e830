"""Scheduler randomness as a tree of draws.

Every scheduler in :mod:`repro.core` draws through ``Random.choice``,
``sample`` and ``shuffle``, and all three reduce to ``_randbelow(n)``.
For a fixed program, scheduler, memory model and step budget, a run is
therefore a function of its sequence of draw outcomes ``(n, r)``: the
arity of each draw and the value it returned.  On small programs that
sequence repeats often, so a campaign can record each sequence's outcome
once and return it when the sequence comes up again.

A priority scheduler (PCT, PCTWM) draws its whole plan up front: a
priority permutation and change points out of an estimated event count.
A change point beyond a run's last event never fires, so two plans that
differ only there give the same run.  For such a scheduler the tree is
keyed on what the run observed of its plan instead of the plan's raw
draws: the permutation, each change point the run reached, and before
each live draw (and at the end) the count it had reached without
another.  A run is then a function of its live draws and of the change
points it reached.

* :class:`DrawRandom` is the scheduler RNG that makes this possible: it
  serves a forced prefix of outcomes, then draws live and logs them.
* :class:`DrawTree` maps draw (and observation) sequences to run
  outcomes.

The walk that looks a trial up draws with ``Random._randbelow`` on the
trial's freshly seeded RNG, so it consumes exactly the bits the real run
would; on a miss, the outcomes it drew become the run's forced prefix and
the RNG is already where the run needs it.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence

#: Most child slots one :class:`DrawTree` may hold (one slot per outcome
#: of every recorded draw, and one per recorded observation).  At about
#: 8 bytes a slot plus a header per node, a full tree stays within a few
#: MB.
SLOT_BUDGET = 1 << 16

#: The count of a plan with no change point left.
NO_POINT = float("inf")


class DrawRandom(random.Random):
    """A ``random.Random`` whose integer draws can be forced and logged.

    :meth:`follow` arms it for one run.  ``_randbelow`` then serves the
    forced prefix (flat ``n, r`` pairs), which the caller drew from the
    same seeded stream; every draw of the run, forced or live, is then
    appended to the log as ``n, r`` when a log is set.  With a
    ``counter`` (a priority scheduler's plan count), each logged draw is
    preceded by the count, and the scheduler logs its observations into
    the same list.  ``random()`` (POS priorities, ``uniform`` for spawned
    threads) marks the run ``continuous``: its outcome is not a function
    of integer draws.  Unarmed, the stream is identical to
    ``random.Random``'s; armed without a counter, the log holds every
    raw draw, the plan's included.

    A run that leaves the prefix's shape (a forced draw of another
    arity, or a ``random()`` call inside the prefix) is marked
    ``diverged``: the stream is then rebuilt from the seed, as a plain
    run would have drawn it (the plan :meth:`capture` drew, drawn again,
    then the forced draws taken), and the run goes on live without a
    log.
    """

    def __init__(self, seed=None):
        self._forced: Sequence[int] = ()
        self._at = 0
        self._planned: Optional[tuple] = None
        self.log: Optional[list] = None
        self.counter: Optional[Callable[[], int]] = None
        self.continuous = False
        self.diverged = False
        super().__init__(seed)

    def seed(self, a=None, version=2) -> None:
        self._seed = a
        self._planned = None
        super().seed(a, version)

    def follow(self, forced: Sequence[int] = (), log: Optional[list] = None,
               counter: Optional[Callable[[], int]] = None) -> None:
        """Arm for one run: serve ``forced``, log every draw in ``log``."""
        self._forced = forced
        self._at = 0
        self.log = log
        self.counter = counter
        self.continuous = False
        self.diverged = False

    def capture(self, draw_plan: Callable, *args):
        """``draw_plan(*args)`` on the unarmed stream, kept so that a
        divergence can draw it again."""
        self.follow()
        plan = draw_plan(*args)
        self._planned = (draw_plan, args)
        return plan

    def restart(self) -> None:
        """Mark the run diverged before its first draw: reseed, so that
        the run draws its own plan as a plain run would."""
        self._forced = ()
        self._planned = None
        self.log = None
        self.diverged = True
        super().seed(self._seed)

    def _randbelow(self, n: int) -> int:
        at = self._at
        forced = self._forced
        if at < len(forced):
            if forced[at] == n:
                self._at = at + 2
                r = forced[at + 1]
            else:
                self._diverge()
                r = self._randbelow_with_getrandbits(n)
        else:
            r = self._randbelow_with_getrandbits(n)
        log = self.log
        if log is not None:
            if self.counter is not None:
                log.append(self.counter())
            log.append(n)
            log.append(r)
        return r

    def random(self) -> float:
        self.continuous = True
        if self._at < len(self._forced):
            self._diverge()
        return super().random()

    def _diverge(self) -> None:
        """Put the stream where a plain run would have it: reseed, and
        redraw the plan and the forced outcomes the run took."""
        taken = self._forced[:self._at:2]
        self._forced = ()
        self.log = None
        self.diverged = True
        super().seed(self._seed)
        if self._planned is not None:
            draw_plan, args = self._planned
            draw_plan(*args)
        for n in taken:
            self._randbelow_with_getrandbits(n)


class _Observed:
    """A plan-keyed node: where a run stands between two draws.

    ``fired`` maps each change point a run passed here, as its plan key
    ``(count, slot)``, to the node after it; ``then`` is what followed
    when no change point came before count ``at``: the next draw's node,
    or the run's outcome.
    """

    __slots__ = ("fired", "at", "then")

    def __init__(self) -> None:
        self.fired: Optional[dict] = None
        self.at = 0
        self.then = None


class DrawTree:
    """Run outcomes keyed by draw sequence.

    A draw node is a list of ``n`` child slots, one per outcome of its
    draw; a slot holds ``None`` (never drawn), a node, or a leaf.  A leaf
    is the run's outcome tuple, shared between equal outcomes.  A run
    that made no draw is a leaf at the root.

    A ``planned`` tree (priority schedulers) is keyed on observations
    instead: its root maps each priority permutation to an
    :class:`_Observed` node, a draw node's slots hold :class:`_Observed`
    nodes, and the plan's raw draws appear nowhere.  Its log is flat:
    the permutation, then per change point passed its ``(count, slot)``
    key, per live draw ``count, n, r``, and the count at the end.

    Once :data:`SLOT_BUDGET` slots are allocated, ``full`` is set and no
    node is added; recorded paths keep replaying.
    """

    def __init__(self) -> None:
        #: Set by the owner before the first walk, for a scheduler that
        #: draws a plan.
        self.planned = False
        self.root = None
        self.slots = 0
        self.full = False
        self._leaves: dict = {}
        #: The last walk's live draws, flat ``n, r`` pairs: the forced
        #: prefix of the run that follows a miss.
        self.forced: List[int] = []
        self._path: list = []
        self._stop: tuple = (None, None)

    def walk(self, draw: Callable[[int], int], perm: tuple = None,
             keys: Sequence[tuple] = ()) -> Optional[tuple]:
        """Follow the tree, drawing each draw node's outcome with
        ``draw(n)``; a planned tree answers its observation nodes from
        the trial's plan: the permutation ``perm`` and the change points
        ``keys``, ``(count, slot)`` sorted by count.

        Returns the recorded outcome, or ``None`` on a miss; the tree
        then remembers where the walk stopped, for :meth:`insert`.
        """
        node = self.root
        self.forced = forced = []
        self._path = path = []
        if node is None:
            self._stop = (None, None)
            return None
        if not self.planned:
            while type(node) is list:
                n = len(node)
                r = draw(n)
                forced.append(n)
                forced.append(r)
                child = node[r]
                if child is None:
                    self._stop = (node, r)
                    return None
                node = child
            return node
        child = node.get(perm)
        if child is None:
            self._stop = (node, perm)
            return None
        path.append(perm)
        node = child
        j = 0
        point = keys[0][0] if keys else NO_POINT
        while True:
            then = node.then
            if then is not None and node.at < point:
                if type(then) is not list:
                    return then
                n = len(then)
                r = draw(n)
                forced.append(n)
                forced.append(r)
                path.append(node.at)
                path.append(n)
                path.append(r)
                child = then[r]
                if child is None:
                    self._stop = (then, r)
                    return None
                node = child
                continue
            key = keys[j] if j < len(keys) else None
            child = node.fired.get(key) if node.fired else None
            if child is None:
                self._stop = (node, None)
                return None
            path.append(key)
            node = child
            j += 1
            point = keys[j][0] if j < len(keys) else NO_POINT

    def insert(self, log: Sequence, leaf: tuple) -> bool:
        """Record that the run after the last missed walk logged ``log``
        and ended in ``leaf``; the new branch starts where the walk
        stopped.

        Returns False when the log contradicts the tree: it does not
        retrace the walk's path, or it goes where the tree already has a
        branch the walk should have taken.  The runs behind the tree
        were then not a function of their draws and observations.
        """
        walked = self._path if self.planned else self.forced
        depth = len(walked)
        if log[:depth] != walked:
            return False
        leaf = self._leaves.setdefault(leaf, leaf)
        holder, key = self._stop
        if not self.planned:
            return self._attach(holder, key, self._chain(log, depth, leaf))
        if holder is None:
            branch = self._grow(log, 1, leaf)
            if branch is not None:
                self.root = {log[0]: branch}
            return True
        if type(holder) is _Observed:
            if depth >= len(log):
                return False
            item = log[depth]
            if type(item) is tuple:
                if holder.fired and item in holder.fired:
                    return False
            elif holder.then is not None:
                return False
            fresh = _Observed()
            if self._fill(fresh, log, depth, leaf) is None:
                return True
            if fresh.fired:
                if holder.fired is None:
                    holder.fired = {}
                holder.fired.update(fresh.fired)
            else:
                holder.at, holder.then = fresh.at, fresh.then
            return True
        if type(holder) is dict:
            if depth >= len(log) or log[depth] != key:
                return False
            depth += 1
        return self._attach(holder, key, self._grow(log, depth, leaf,
                                                    type(holder) is dict))

    def _attach(self, holder, key, branch) -> bool:
        if branch is None:
            return True
        if holder is None:
            self.root = branch
        else:
            holder[key] = branch
        return True

    def _reserve(self, need: int) -> bool:
        if self.slots + need > SLOT_BUDGET:
            self.full = True
            return False
        self.slots += need
        return True

    def _chain(self, log: Sequence[int], start: int, leaf: tuple):
        """A fresh path of draw nodes for the flat ``n, r`` pairs of
        ``log[start:]``, ending in ``leaf``; None over budget."""
        if not self._reserve(sum(log[start::2])):
            return None
        child = leaf
        for i in range(len(log) - 2, start - 1, -2):
            node = [None] * log[i]
            node[log[i + 1]] = child
            child = node
        return child

    def _grow(self, log: Sequence, start: int, leaf: tuple,
              keyed: bool = True):
        """A fresh observation node grown along ``log[start:]``; ``keyed``
        when it hangs under a permutation, whose entry takes a slot."""
        node = _Observed()
        return node if self._fill(node, log, start, leaf, int(keyed)) \
            else None

    def _fill(self, node: _Observed, log: Sequence, i: int,
              leaf: tuple, need: int = 0) -> Optional[_Observed]:
        """Grow the empty ``node`` along the planned ``log[i:]``; None
        (and nothing reserved) when the branch, ``need`` slots more, does
        not fit the budget."""
        j = i
        end = len(log) - 1
        while j < end:
            if type(log[j]) is tuple:
                need += 1
                j += 1
            else:
                need += 1 + log[j + 1]
                j += 3
        if not self._reserve(need + 1):
            return None
        first = node
        while i < end:
            item = log[i]
            child = _Observed()
            if type(item) is tuple:
                node.fired = {item: child}
                i += 1
            else:
                draw = [None] * log[i + 1]
                draw[log[i + 2]] = child
                node.at = item
                node.then = draw
                i += 3
            node = child
        node.at = log[end]
        node.then = leaf
        return first
