"""Mutation tests for the consistency axioms (Section 4).

test_axioms.py checks hand-built graphs; these tests instead take graphs
produced by *real executions* (which must be consistent — the engine
maintains the axioms by construction), seed one precise violation by
tampering with rf / mo / SC edges, and assert that exactly the right
axiom fires.  This is the soundness check for the sanitizer itself: a
checker that passes consistent graphs but misses seeded violations would
make ``--sanitize`` useless.  The cases run against the one-pass auditor
and, through ``TestSeededViolationsReference``, against the
relation-algebra oracle.
"""


import pytest

from repro.core import C11TesterScheduler
from repro.memory.axioms import (
    check_consistency,
    check_consistency_reference,
)
from repro.memory.events import RLX, SC as SEQ
from repro.runtime import run_once
from repro.runtime.program import Program


def _run(program, seed=0):
    result = run_once(program, C11TesterScheduler(seed=seed))
    graph = result.graph
    assert check_consistency_reference(graph) == [], \
        "engine produced an inconsistent graph before any mutation"
    return graph


def _store_store_load() -> Program:
    p = Program("ssl")
    x = p.atomic("X", 0)

    def t0():
        yield x.store(1, RLX)
        yield x.store(2, RLX)
        got = yield x.load(RLX)
        return got

    p.add_thread(t0)
    return p


def _reads_of(graph, loc):
    return [e for e in graph.events
            if e.is_read and e.loc == loc and not e.is_rmw]


class TestSeededViolations:
    audit = staticmethod(check_consistency)

    def _axioms(self, graph):
        return {v.axiom for v in self.audit(graph)}

    def test_rf_repoint_fires_read_coherence(self):
        """A read repointed to an mo-older write violates CoWR.

        The load po-follows both stores, so fr(load, w2); hb(w2, load)
        becomes a cycle once the load's rf edge is bent back to w1.
        """
        graph = _run(_store_store_load())
        (read,) = _reads_of(graph, "X")
        w1 = graph.writes_by_loc["X"][1]
        assert read.reads_from is graph.writes_by_loc["X"][2]
        read.reads_from = w1
        read.label = read.label.replace(rval=w1.label.wval)
        axioms = self._axioms(graph)
        assert "read-coherence" in axioms
        assert "rf" not in axioms  # the value was fixed up: rf stays sane
        assert "atomicity" not in axioms

    def test_mo_swap_fires_write_coherence(self):
        """Reversing mo between po-ordered same-location writes: CoWW."""
        p = Program("coww-mut")
        x = p.atomic("X", 0)

        def t0():
            yield x.store(1, RLX)
            yield x.store(2, RLX)

        p.add_thread(t0)
        graph = _run(p)
        writes = graph.writes_by_loc["X"]
        writes[1], writes[2] = writes[2], writes[1]
        writes[1].mo_index, writes[2].mo_index = 1, 2
        axioms = self._axioms(graph)
        assert "write-coherence" in axioms
        assert "rf" not in axioms

    def test_rmw_repoint_fires_atomicity(self):
        """An RMW bent back to a non-adjacent mo source: fr; mo != ∅."""
        p = Program("rmw-mut")
        x = p.atomic("X", 0)

        def t0():
            yield x.store(1, RLX)
            got = yield x.fetch_add(10, RLX)
            return got

        p.add_thread(t0)
        graph = _run(p)
        (rmw,) = [e for e in graph.events if e.is_rmw]
        init = graph.writes_by_loc["X"][0]
        assert rmw.reads_from is not init
        rmw.reads_from = init
        rmw.label = rmw.label.replace(rval=init.label.wval)
        axioms = self._axioms(graph)
        assert "atomicity" in axioms

    def test_sc_reversal_fires_irr_mo_sc(self):
        """An SC order contradicting mo on one location: irrMOSC."""
        p = Program("sc-mut")
        x = p.atomic("X", 0)

        def t0():
            yield x.store(1, SEQ)

        def t1():
            yield x.store(2, SEQ)

        p.add_thread(t0)
        p.add_thread(t1)
        graph = _run(p)
        w1, w2 = graph.sc_order[0], graph.sc_order[1]
        graph.sc_order = [w2, w1]
        w2.sc_index, w1.sc_index = 0, 1
        axioms = self._axioms(graph)
        assert "irrMOSC" in axioms
        assert "read-coherence" not in axioms
        assert "write-coherence" not in axioms

    def test_rval_tamper_fires_rf(self):
        """A read whose value differs from its rf source: rf ill-formed."""
        graph = _run(_store_store_load())
        (read,) = _reads_of(graph, "X")
        read.label = read.label.replace(rval=read.label.rval + 41)
        axioms = self._axioms(graph)
        assert "rf" in axioms

    @pytest.mark.parametrize("seed", range(5))
    def test_unmutated_litmus_runs_are_consistent(self, seed):
        from repro.litmus import mp2, store_buffering

        for factory in (mp2, store_buffering):
            assert self.audit(_run(factory(), seed=seed)) == []


class TestSeededViolationsReference(TestSeededViolations):
    audit = staticmethod(check_consistency_reference)
