"""Scheduler randomness as a tree of draws.

Every scheduler in :mod:`repro.core` draws through ``Random.choice``,
``sample`` and ``shuffle``, and all three reduce to ``_randbelow(n)``.
For a fixed program, scheduler, memory model and step budget, a run is
therefore a function of its sequence of draw outcomes ``(n, r)``: the
arity of each draw and the value it returned.  On small programs that
sequence repeats often, so a campaign can record each sequence's outcome
once and return it when the sequence comes up again.

* :class:`DrawRandom` is the scheduler RNG that makes this possible: it
  serves a forced prefix of outcomes, then draws live and logs them.
* :class:`DrawTree` maps draw sequences to run outcomes.

The walk that looks a trial up draws with ``Random._randbelow`` on the
trial's freshly seeded RNG, so it consumes exactly the bits the real run
would; on a miss, the outcomes it drew become the run's forced prefix and
the RNG is already where the run needs it.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence, Tuple

#: Most child slots one :class:`DrawTree` may hold (one slot per outcome
#: of every recorded draw).  At about 8 bytes a slot plus a list header
#: per node, a full tree stays within a few MB.
SLOT_BUDGET = 1 << 16

#: One draw: ``(arity, outcome)``.
Draw = Tuple[int, int]


class DrawRandom(random.Random):
    """A ``random.Random`` whose integer draws can be forced and logged.

    :meth:`follow` arms it for one run.  ``_randbelow`` then serves the
    forced prefix, which the caller drew from the same seeded stream;
    past it, it draws live and, when a log is set, appends ``(n, r)``.
    ``random()`` (POS priorities, ``uniform`` for spawned threads) marks
    the run ``continuous``: its outcome is not a function of integer
    draws.  Unarmed, the stream is identical to ``random.Random``'s.

    A run that leaves the prefix's shape (a forced draw of another
    arity, or a ``random()`` call inside the prefix) is marked
    ``diverged``: the stream is then rebuilt from the seed, as a plain
    run would have drawn it, and the run goes on live without a log.
    """

    def __init__(self, seed=None):
        self._forced: Sequence[Draw] = ()
        self._at = 0
        self.log: Optional[List[Draw]] = None
        self.continuous = False
        self.diverged = False
        super().__init__(seed)

    def seed(self, a=None, version=2) -> None:
        self._seed = a
        super().seed(a, version)

    def follow(self, forced: Sequence[Draw] = (),
               log: Optional[List[Draw]] = None) -> None:
        """Arm for one run: serve ``forced``, then log live draws."""
        self._forced = forced
        self._at = 0
        self.log = log
        self.continuous = False
        self.diverged = False

    @property
    def consumed(self) -> int:
        """How many forced draws the run has taken so far."""
        return self._at

    def _randbelow(self, n: int) -> int:
        at = self._at
        if at < len(self._forced):
            m, r = self._forced[at]
            if m == n:
                self._at = at + 1
                return r
            self._diverge()
        r = self._randbelow_with_getrandbits(n)
        if self.log is not None:
            self.log.append((n, r))
        return r

    def random(self) -> float:
        self.continuous = True
        if self._at < len(self._forced):
            self._diverge()
        return super().random()

    def _diverge(self) -> None:
        """Put the stream where a plain run would have it: reseed, and
        redraw the forced outcomes the run took."""
        taken = self._forced[:self._at]
        self._forced = ()
        self.log = None
        self.diverged = True
        super().seed(self._seed)
        for n, _ in taken:
            self._randbelow_with_getrandbits(n)


class DrawTree:
    """Run outcomes keyed by draw sequence.

    A node is a list of ``n`` child slots, one per outcome of its draw;
    a slot holds ``None`` (never drawn), a node, or a leaf.  A leaf is
    the run's outcome tuple, shared between equal outcomes.  A run that
    made no draw is a leaf at the root.  Once :data:`SLOT_BUDGET` slots
    are allocated, ``full`` is set and no node is added; recorded paths
    keep replaying.
    """

    def __init__(self) -> None:
        self.root = None
        self.slots = 0
        self.full = False
        self._leaves: dict = {}

    def walk(self, draw: Callable[[int], int]) -> tuple:
        """Follow the tree, drawing each node's outcome with ``draw(n)``.

        Returns ``(leaf, path)``: the recorded outcome, or ``None`` on a
        miss, and the ``(n, r)`` draws taken on the way.
        """
        node = self.root
        path: List[Draw] = []
        while type(node) is list:
            n = len(node)
            r = draw(n)
            path.append((n, r))
            node = node[r]
        return node, path

    def insert(self, path: Sequence[Draw], leaf: tuple) -> bool:
        """Record that the draws ``path`` end in ``leaf``.

        Returns False when the path contradicts the tree: a node of a
        different arity, a leaf where the path goes on, a node where it
        ends, or another outcome at its end.  The runs behind the tree
        were then not a function of their draws.
        """
        leaf = self._leaves.setdefault(leaf, leaf)
        if not path:
            if self.root is None:
                self.root = leaf
                return True
            return self.root == leaf
        if self.root is None:
            if not self._reserve(path):
                return True
            self.root = self._chain(path, leaf)
            return True
        node = self.root
        last = len(path) - 1
        for i, (n, r) in enumerate(path):
            if type(node) is not list or len(node) != n:
                return False
            child = node[r]
            if child is None:
                if i == last:
                    node[r] = leaf
                elif self._reserve(path[i + 1:]):
                    node[r] = self._chain(path[i + 1:], leaf)
                return True
            if i == last:
                return child == leaf
            node = child
        return True  # pragma: no cover - the loop always returns

    def _reserve(self, draws: Sequence[Draw]) -> bool:
        need = sum(n for n, _ in draws)
        if self.slots + need > SLOT_BUDGET:
            self.full = True
            return False
        self.slots += need
        return True

    @staticmethod
    def _chain(draws: Sequence[Draw], leaf: tuple) -> list:
        """A fresh path of nodes, one per draw, ending in ``leaf``."""
        child = leaf
        for n, r in reversed(draws):
            node = [None] * n
            node[r] = child
            child = node
        return child
