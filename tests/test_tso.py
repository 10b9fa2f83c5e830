"""x86-TSO semantics at the program level, through ``resolve_model("tso")``.

TSO allows exactly the store→load reordering: the SB weak outcome is
reachable, while MP, LB, IRIW, the coherence shapes and MP2 stay
forbidden under every generic scheduler.  A thread sees its own buffered
stores, MFENCE drains the buffer, and LOCK-prefixed RMWs are atomic.
The backend's own contracts (declared orders, flush commits, truncation,
harness round trips) live in ``test_tso_backend.py``.
"""

import pytest

from repro.core import NaiveRandomScheduler, PCTScheduler, PCTWMScheduler
from repro.core.pos import POSScheduler
from repro.litmus import (
    corr,
    iriw,
    load_buffering,
    message_passing,
    mp2,
    p1,
    store_buffering,
)
from repro.memory import resolve_model
from repro.memory.events import RLX, SC
from repro.runtime import Program, fence, require

TSO = resolve_model("tso")

SCHEDULER_MAKERS = (
    lambda s: NaiveRandomScheduler(seed=s),
    lambda s: PCTScheduler(2, 16, seed=s),
    lambda s: PCTWMScheduler(2, 8, 2, seed=s),
)


def rate(factory, make, trials=200):
    return sum(
        TSO.run_once(factory(), make(seed), keep_graph=False).bug_found
        for seed in range(trials)
    )


class TestTsoSemantics:
    def test_sb_weak_outcome_reachable(self):
        assert rate(store_buffering,
                    lambda s: NaiveRandomScheduler(seed=s)) > 0

    @pytest.mark.parametrize("factory", [
        message_passing, load_buffering, iriw, corr, mp2,
    ])
    def test_non_tso_shapes_forbidden(self, factory):
        """TSO preserves W->W, R->R and is multi-copy atomic: only the
        SB shape is weak.  (MP2's bug needs R->R/W->W reordering.)"""
        for make in SCHEDULER_MAKERS:
            assert rate(factory, make) == 0

    def test_store_forwarding(self):
        """A thread always sees its own buffered store."""
        p = Program("forwarding")
        x = p.atomic("X", 0)

        def t():
            yield x.store(7, RLX)
            value = yield x.load(RLX)
            require(value == 7, f"lost own buffered store: {value}")
            return value

        p.add_thread(t)

        def other():
            yield x.load(RLX)

        p.add_thread(other)
        for seed in range(50):
            result = TSO.run_once(p, NaiveRandomScheduler(seed=seed))
            assert not result.bug_found

    def test_fence_drains_buffer(self):
        """SB with an SC fence between store and load is safe on TSO."""

        def fenced_sb():
            p = Program("SB+mfence")
            x = p.atomic("X", 0)
            y = p.atomic("Y", 0)

            def left():
                yield x.store(1, RLX)
                yield fence(SC)
                return (yield y.load(RLX))

            def right():
                yield y.store(1, RLX)
                yield fence(SC)
                return (yield x.load(RLX))

            p.add_thread(left)
            p.add_thread(right)
            p.add_final_check(
                lambda r: require(r["left"] == 1 or r["right"] == 1,
                                  "fenced SB must not both read 0")
            )
            return p

        for make in SCHEDULER_MAKERS + (lambda s: POSScheduler(seed=s),):
            assert rate(fenced_sb, make, 300) == 0

    def test_rmw_drains_and_is_atomic(self):
        p = Program("tso-rmw")
        x = p.atomic("X", 0)

        def t():
            yield x.fetch_add(1, RLX)

        p.add_thread(t, name="a")
        p.add_thread(t, name="b")
        for seed in range(40):
            result = TSO.run_once(p, NaiveRandomScheduler(seed=seed))
            assert result.graph.mo_max("X").label.wval == 2

    def test_run_completes_with_drained_buffers(self):
        result = TSO.run_once(store_buffering(),
                              NaiveRandomScheduler(seed=1))
        assert result.steps > 0
        # All writes committed: every store has an mo position.
        for event in result.graph.events:
            if event.is_write and not event.is_init:
                assert event.mo_index >= 0


class TestDelayedWriteGuarantee:
    """Which bugs need a delayed flush at all."""

    def test_p1_under_tso_needs_sc_scheduling(self):
        """P1's bug is an interleaving bug: reads see the committed
        mo-max, so schedule order alone reaches it — PCT finds it through
        its priorities without delaying any flush."""
        hits = rate(lambda: p1(3, order=RLX),
                    lambda s: PCTScheduler(1, 8, seed=s), 300)
        assert hits > 0
