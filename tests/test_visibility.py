"""Unit tests for coherence-respecting visible-write computation."""

import pytest

from repro.memory.events import RLX, SC as SEQ
from repro.memory.execution import ExecutionGraph
from repro.memory.visibility import VisibilityTracker


def setup():
    g = ExecutionGraph()
    g.add_init_write("X", 0)
    return g, VisibilityTracker(g)


class TestBasicVisibility:
    def test_only_init_visible_initially(self):
        g, vis = setup()
        writes = vis.visible_writes(0, "X", clock=(0, 0))
        assert [w.label.wval for w in writes] == [0]

    def test_unsynchronized_writes_all_visible(self):
        g, vis = setup()
        w1 = g.add_write(0, "X", 1, RLX)
        w1.clock = (1, 0)
        w2 = g.add_write(0, "X", 2, RLX)
        w2.clock = (2, 0)
        # Thread 1 never synchronized: init, w1 and w2 all visible.
        writes = vis.visible_writes(1, "X", clock=(0, 0))
        assert [w.label.wval for w in writes] == [0, 1, 2]

    def test_hb_write_hides_older_writes(self):
        g, vis = setup()
        w1 = g.add_write(0, "X", 1, RLX)
        w1.clock = (1, 0)
        w2 = g.add_write(0, "X", 2, RLX)
        w2.clock = (2, 0)
        # Thread 1 has joined thread 0's clock up to w2 (e.g. via sw):
        # w2 happens-before the read point, so init and w1 are hidden.
        writes = vis.visible_writes(1, "X", clock=(2, 1))
        assert [w.label.wval for w in writes] == [2]

    def test_own_writes_hide_older(self):
        g, vis = setup()
        w = g.add_write(0, "X", 1, RLX)
        w.clock = (1,)
        writes = vis.visible_writes(0, "X", clock=(1,))
        assert [x.label.wval for x in writes] == [1]

    def test_unknown_location_raises(self):
        _g, vis = setup()
        with pytest.raises(KeyError):
            vis.visible_writes(0, "Z", clock=(0,))


class TestReadCoherence:
    def test_note_read_raises_floor(self):
        g, vis = setup()
        w1 = g.add_write(0, "X", 1, RLX)
        w1.clock = (1, 0)
        w2 = g.add_write(0, "X", 2, RLX)
        w2.clock = (2, 0)
        vis.note_read(1, w1)  # thread 1 observed w1
        writes = vis.visible_writes(1, "X", clock=(0, 0))
        # Reading mo-before w1 would violate read coherence.
        assert [w.label.wval for w in writes] == [1, 2]

    def test_floors_are_per_thread(self):
        g, vis = setup()
        w1 = g.add_write(0, "X", 1, RLX)
        w1.clock = (1, 0, 0)
        vis.note_read(1, w1)
        # Thread 2 is unaffected by thread 1's reads.
        writes = vis.visible_writes(2, "X", clock=(0, 0, 0))
        assert [w.label.wval for w in writes] == [0, 1]

    def test_floor_monotone(self):
        g, vis = setup()
        w1 = g.add_write(0, "X", 1, RLX)
        w1.clock = (1, 0)
        w2 = g.add_write(0, "X", 2, RLX)
        w2.clock = (2, 0)
        vis.note_read(1, w2)
        vis.note_read(1, w1)  # older observation cannot lower the floor
        writes = vis.visible_writes(1, "X", clock=(0, 0))
        assert [w.label.wval for w in writes] == [2]


class TestSeqCstFloor:
    def test_sc_read_floors_at_last_sc_write(self):
        g, vis = setup()
        w1 = g.add_write(0, "X", 1, RLX)
        w1.clock = (1, 0)
        w_sc = g.add_write(0, "X", 2, SEQ)
        w_sc.clock = (2, 0)
        vis.note_write(w_sc)
        w3 = g.add_write(0, "X", 3, RLX)
        w3.clock = (3, 0)
        sc_view = vis.visible_writes(1, "X", clock=(0, 0), seq_cst=True)
        rlx_view = vis.visible_writes(1, "X", clock=(0, 0), seq_cst=False)
        assert [w.label.wval for w in sc_view] == [2, 3]
        assert [w.label.wval for w in rlx_view] == [0, 1, 2, 3]

    def test_relaxed_write_does_not_raise_sc_floor(self):
        g, vis = setup()
        w1 = g.add_write(0, "X", 1, RLX)
        w1.clock = (1, 0)
        vis.note_write(w1)
        writes = vis.visible_writes(1, "X", clock=(0, 0), seq_cst=True)
        assert [w.label.wval for w in writes] == [0, 1]


class TestHistoryBounding:
    def fill(self, count):
        g, vis = setup()
        for i in range(count):
            w = g.add_write(0, "X", i + 1, RLX)
            w.clock = (i + 1, 0)
        return g, vis

    def test_history_takes_mo_latest(self):
        _g, vis = self.fill(5)
        writes = vis.bounded_visible_writes(1, "X", clock=(0, 0), history=2)
        assert [w.label.wval for w in writes] == [4, 5]

    def test_history_one_is_latest_only(self):
        _g, vis = self.fill(3)
        writes = vis.bounded_visible_writes(1, "X", clock=(0, 0), history=1)
        assert [w.label.wval for w in writes] == [3]

    def test_history_larger_than_visible_set(self):
        _g, vis = self.fill(2)
        writes = vis.bounded_visible_writes(1, "X", clock=(0, 0), history=99)
        assert [w.label.wval for w in writes] == [0, 1, 2]

    def test_history_never_empty(self):
        _g, vis = self.fill(4)
        writes = vis.bounded_visible_writes(1, "X", clock=(0, 0), history=1)
        assert writes

    def test_invalid_history_raises(self):
        _g, vis = self.fill(1)
        with pytest.raises(ValueError):
            vis.bounded_visible_writes(1, "X", clock=(0, 0), history=0)

    def test_visible_set_is_mo_suffix(self):
        """Definition 5's window composes with coherence: always a suffix."""
        g, vis = self.fill(6)
        w3 = g.writes_by_loc["X"][3]
        vis.note_read(1, w3)
        writes = vis.visible_writes(1, "X", clock=(0, 0))
        indices = [w.mo_index for w in writes]
        assert indices == list(range(indices[0], indices[-1] + 1))
        assert indices[-1] == len(g.writes_by_loc["X"]) - 1


def _fr_rf_hb_program():
    """``obs`` acquires ``mid``'s flag, and ``mid`` had read X = 2.

    ``w``: X = 1; X = 2.  ``mid``: r = X; F = 1 (rel).  ``obs``: F (acq);
    X.  When ``mid`` read X = 2 and ``obs`` saw its flag, ``obs`` may
    not read X = 1: that read is fr-before X = 2, which is rf-before
    ``mid``'s read, which happens-before ``obs``'s read — the cycle
    fr; rf; hb that read coherence forbids.
    """
    from repro.memory.events import ACQ, REL
    from repro.runtime import Program

    p = Program("fr-rf-hb")
    x = p.atomic("X", 0)
    flag = p.atomic("F", 0)

    def w():
        yield x.store(1, RLX)
        yield x.store(2, RLX)

    def mid():
        seen = yield x.load(RLX)
        yield flag.store(1, REL)
        return seen

    def obs():
        return ((yield flag.load(ACQ)), (yield x.load(RLX)))

    p.add_thread(w)
    p.add_thread(mid)
    p.add_thread(obs)
    return p


class TestCoherenceThroughObservedReads:
    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "VisibilityTracker.floor ignores writes observed by reads that "
        "happen-before the read, so fr;rf;hb can close a cycle "
        "(C11TesterScheduler seed 373 produces it on both engines)"))
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_read_floor_covers_hb_preceding_reads(self, engine):
        from repro.core import C11TesterScheduler
        from repro.runtime import run_once

        for seed in range(500):
            result = run_once(_fr_rf_hb_program(),
                              C11TesterScheduler(seed=seed),
                              sanitize=True, engine=engine)
            assert not result.inconsistent, (seed, result.violations)
            seen = result.thread_results
            assert not (seen["mid"] == 2 and seen["obs"] == (1, 1)), seed
