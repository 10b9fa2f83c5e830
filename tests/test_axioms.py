"""Unit tests for the C11 consistency axioms (Section 4).

Two directions: hand-built consistent graphs pass every check, and
hand-built *violating* graphs are caught by the right axiom.  Each class
runs against the one-pass auditor (``check_consistency``) and, through
its ``...Reference`` subclass, against the relation-algebra oracle
(``check_consistency_reference``).  Generated executions are audited
separately in test_engine_properties.py and test_audit_oracle.py.
"""

from repro.memory.axioms import (
    check_consistency,
    check_consistency_reference,
)
from repro.memory.events import (
    ACQ,
    Event,
    EventKind,
    Label,
    REL,
    RLX,
    SC as SEQ,
)
from repro.memory.execution import ExecutionGraph


def fresh(*locs):
    g = ExecutionGraph()
    for loc in locs:
        g.add_init_write(loc, 0)
    return g


def stamp(events_with_clocks):
    for event, clock in events_with_clocks:
        event.clock = clock


class _Audited:
    """Runs its tests against ``audit``; subclasses swap the auditor."""

    audit = staticmethod(check_consistency)

    def axioms(self, graph):
        return {v.axiom for v in self.audit(graph)}

    def is_consistent(self, graph):
        return not self.audit(graph)


class TestConsistentGraphs(_Audited):
    def test_empty_graph(self):
        assert self.is_consistent(fresh("X"))

    def test_simple_message_passing(self):
        g = fresh("X", "Y")
        w1 = g.add_write(0, "X", 1, RLX)
        w2 = g.add_write(0, "Y", 1, REL)
        r1 = g.add_read(1, "Y", w2, ACQ)
        r2 = g.add_read(1, "X", w1, RLX)
        stamp([(w1, (1, 0)), (w2, (2, 0)), (r1, (2, 1)), (r2, (2, 2))])
        assert self.is_consistent(g)

    def test_rmw_chain(self):
        g = fresh("X")
        u1 = g.add_rmw(0, "X", g.mo_max("X"), 1, RLX)
        u2 = g.add_rmw(1, "X", g.mo_max("X"), 2, RLX)
        stamp([(u1, (1, 0)), (u2, (0, 1))])
        assert self.is_consistent(g)

    def test_sc_total_order(self):
        g = fresh("X")
        w = g.add_write(0, "X", 1, SEQ)
        r = g.add_read(1, "X", w, SEQ)
        stamp([(w, (1, 0)), (r, (1, 1))])
        assert self.is_consistent(g)

    def test_weak_sb_outcome_is_consistent(self):
        """The SB a=b=0 outcome is weak but perfectly consistent."""
        g = fresh("X", "Y")
        init_x = g.writes_by_loc["X"][0]
        init_y = g.writes_by_loc["Y"][0]
        wx = g.add_write(0, "X", 1, RLX)
        ry = g.add_read(0, "Y", init_y, RLX)
        wy = g.add_write(1, "Y", 1, RLX)
        rx = g.add_read(1, "X", init_x, RLX)
        stamp([(wx, (1, 0)), (ry, (2, 0)), (wy, (0, 1)), (rx, (0, 2))])
        assert self.is_consistent(g)


class TestViolations(_Audited):
    def test_read_coherence_violation(self):
        """Same-thread reads observing mo in the wrong order: CoRR."""
        g = fresh("X")
        v1 = g.add_write(0, "X", 1, RLX)
        v2 = g.add_write(0, "X", 2, RLX)
        early = g.add_read(1, "X", v2, RLX)
        late = g.add_read(1, "X", v1, RLX)  # fr(late, v2); rf(v2, early);
        stamp([(v1, (1, 0)), (v2, (2, 0)),  # hb(early, late): cycle.
               (early, (0, 1)), (late, (0, 2))])
        assert "read-coherence" in self.axioms(g)
        assert not self.is_consistent(g)

    def test_write_coherence_violation(self):
        """A write hb-after a newer same-location write but mo-before it."""
        g = fresh("X")
        w2 = g.add_write(0, "X", 2, REL)
        r = g.add_read(1, "X", w2, ACQ)       # sw: hb(w2, .)
        w1 = g.add_write(1, "X", 1, RLX)      # hb-after w2 via the sync...
        stamp([(w2, (1, 0)), (r, (1, 1)), (w1, (1, 2))])
        # ...but force mo to place w1 *before* w2 (tamper with mo order).
        writes = g.writes_by_loc["X"]
        writes[1], writes[2] = writes[2], writes[1]
        writes[1].mo_index, writes[2].mo_index = 1, 2
        assert "write-coherence" in self.axioms(g)

    def test_atomicity_violation(self):
        """An RMW that skips a write is not mo-adjacent: fr; mo != ∅."""
        g = fresh("X")
        init = g.writes_by_loc["X"][0]
        w = g.add_write(0, "X", 1, RLX)
        u = g.add_rmw(1, "X", init, 10, RLX)  # reads init, skipping w
        stamp([(w, (1, 0)), (u, (0, 1))])
        assert "atomicity" in self.axioms(g)

    def test_irr_mo_sc_violation(self):
        g = fresh("X")
        w1 = g.add_write(0, "X", 1, SEQ)
        w2 = g.add_write(1, "X", 2, SEQ)
        stamp([(w1, (1, 0)), (w2, (0, 1))])
        # SC order contradicting mo on the same location.
        g.sc_order = [w2, w1]
        w2.sc_index, w1.sc_index = 0, 1
        assert "irrMOSC" in self.axioms(g)

    def test_rf_value_mismatch(self):
        g = fresh("X")
        w = g.add_write(0, "X", 1, RLX)
        stamp([(w, (1, 0))])
        bad = Event(uid=99, tid=1,
                    label=Label(EventKind.READ, RLX, "X", rval=42))
        bad.reads_from = w
        bad.clock = (0, 1)
        g.events.append(bad)
        assert "rf" in self.axioms(g)

    def test_missing_rf_source(self):
        g = fresh("X")
        orphan = Event(uid=98, tid=0,
                       label=Label(EventKind.READ, RLX, "X", rval=0))
        orphan.clock = (1,)
        g.events.append(orphan)
        assert "rf" in self.axioms(g)

    def test_sc_cycle_detected(self):
        """sw against a tampered SC order creates an hb ∪ rf ∪ SC cycle."""
        g = fresh("X", "Y")
        wx = g.add_write(0, "X", 1, SEQ)
        r1 = g.add_read(1, "X", wx, ACQ)   # sw(wx, r1)
        wy = g.add_write(1, "Y", 1, SEQ)   # po(r1, wy)
        stamp([(wx, (1, 0)), (r1, (1, 1)), (wy, (1, 2))])
        g.sc_order = [wy, wx]              # SC(wy, wx): closes the cycle
        wy.sc_index, wx.sc_index = 0, 1
        assert "SC" in self.axioms(g)

    def test_healthy_graph_has_no_sc_cycle(self):
        g = fresh("X", "Y")
        wx = g.add_write(0, "X", 1, SEQ)
        wy = g.add_write(1, "Y", 1, SEQ)
        stamp([(wx, (1, 0)), (wy, (0, 1))])
        assert "SC" not in self.axioms(g)

    def test_check_consistency_aggregates(self):
        g = fresh("X")
        init = g.writes_by_loc["X"][0]
        w = g.add_write(0, "X", 1, RLX)
        u = g.add_rmw(1, "X", init, 10, RLX)
        stamp([(w, (1, 0)), (u, (0, 1))])
        violations = self.audit(g)
        assert any(v.axiom == "atomicity" for v in violations)
        assert not self.is_consistent(g)


class TestConsistentGraphsReference(TestConsistentGraphs):
    audit = staticmethod(check_consistency_reference)


class TestViolationsReference(TestViolations):
    audit = staticmethod(check_consistency_reference)
