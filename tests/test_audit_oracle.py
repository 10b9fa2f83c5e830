"""The one-pass consistency audit against its relation-algebra oracle.

``check_consistency`` (the sanitizer's auditor) must return the
violations ``check_consistency_reference`` returns on every graph the
engine builds and on seeded mutations of them, and must never hand an
engine-built graph to the reference.  A second group pins that the audit
stays linear and independent of the engine: it neither takes a
transitive closure nor reads the engine's vector clocks or release-chain
stamps.
"""

import random

import pytest

from repro.core import (
    C11TesterScheduler,
    NaiveRandomScheduler,
    PCTWMScheduler,
)
from repro.core.factory import make_scheduler
from repro.fuzz import (
    FuzzConfig,
    build_plan_program,
    corpus_files,
    load_entry,
    plan_program,
    plan_step_bound,
)
from repro.harness.seeding import derive_trial_seed
from repro.memory import axioms
from repro.memory.events import _UNSTAMPED
from repro.memory.execution import ExecutionGraph
from repro.memory.model import resolve_model
from repro.memory.events import ACQ, REL, RLX
from repro.memory.relations import Relation
from repro.runtime import Program
from repro.runtime.api import fence
from repro.workloads.registry import BENCHMARKS, ProgramSpec

from tests.test_visibility import _fr_rf_hb_program

CORPUS_DIR = "tests/corpus"
FUZZ_SEEDS = [derive_trial_seed(0xD1FF, i) for i in range(200)]
ORACLE = axioms.check_consistency_reference


def _pairs(violations):
    return sorted((v.axiom, v.detail) for v in violations)


@pytest.fixture
def reference_calls(monkeypatch):
    """Count the one-pass auditor's hand-offs to the reference."""
    calls = []

    def spy(graph):
        calls.append(graph)
        return ORACLE(graph)

    monkeypatch.setattr(axioms, "check_consistency_reference", spy)
    return calls


def _agree(graph, reference_calls=None):
    """Both auditors' violations on ``graph``; they must be equal."""
    before = None if reference_calls is None else len(reference_calls)
    got = _pairs(axioms.check_consistency(graph))
    if before is not None:
        assert len(reference_calls) == before, \
            "an engine-built graph took the reference branch"
    want = _pairs(ORACLE(graph))
    assert got == want
    return got


def _mutate(graph, rng):
    """One seeded rf repoint, mo swap or SC reversal, in place."""
    kind = rng.choice(("rf", "mo", "sc"))
    if kind == "rf":
        readers = [e for e in graph.events if e.reads_from is not None]
        if readers:
            read = rng.choice(readers)
            write = rng.choice(graph.writes_by_loc[read.loc])
            read.reads_from = write
            read.label = read.label.replace(rval=write.wval)
    elif kind == "mo":
        locs = [ws for ws in graph.writes_by_loc.values() if len(ws) > 1]
        if locs:
            writes = rng.choice(locs)
            i, j = rng.sample(range(len(writes)), 2)
            writes[i], writes[j] = writes[j], writes[i]
            writes[i].mo_index, writes[j].mo_index = i, j
    else:
        order = graph.sc_order
        if len(order) > 1:
            i, j = rng.sample(range(len(order)), 2)
            order[i], order[j] = order[j], order[i]
            order[i].sc_index, order[j].sc_index = i, j


def _benchmark_runs(seeds):
    """Table-1 benchmark runs, each a thunk that builds a fresh graph:
    PCTWM under both models, C11Tester under C11."""
    def run(info, model, scheduler, seed):
        return lambda: resolve_model(model).run_once(
            info.build(), scheduler(seed), keep_graph=True).graph

    for info in BENCHMARKS.values():
        pctwm = (info.measured_depth, 4, info.best_history)
        for seed in seeds:
            for model in ("c11", "tso"):
                yield run(info, model,
                          lambda s, p=pctwm: PCTWMScheduler(*p, seed=s),
                          seed)
            yield run(info, "c11", lambda s: C11TesterScheduler(seed=s),
                      seed)


def _fenced_mp():
    """Message passing through a release and an acquire fence.

    The reader's ``early`` load sits between its relaxed flag load and
    its acquire fence, so it may miss X = 1 even when the flag was seen:
    sw ends at the fence, not at the flag load.
    """
    p = Program("fenced-mp")
    x = p.atomic("X", 0)
    flag = p.atomic("F", 0)

    def writer():
        yield x.store(1, RLX)
        yield fence(REL)
        yield flag.store(1, RLX)

    def reader():
        seen = yield flag.load(RLX)
        early = yield x.load(RLX)
        yield fence(ACQ)
        late = yield x.load(RLX)
        return seen, early, late

    p.add_thread(writer)
    p.add_thread(reader)
    return p


def _release_sequence_mp():
    """Message passing through a relaxed RMW in the release sequence.

    Reading 2 from ``bump``'s fetch_add synchronizes with ``writer``'s
    release store when the fetch_add read that store (sw through rf+).
    """
    p = Program("relseq-mp")
    x = p.atomic("X", 0)
    flag = p.atomic("F", 0)

    def writer():
        yield x.store(1, RLX)
        yield flag.store(1, REL)

    def bump():
        yield flag.fetch_add(1, RLX)

    def reader():
        return ((yield flag.load(ACQ)), (yield x.load(RLX)))

    p.add_thread(writer)
    p.add_thread(bump)
    p.add_thread(reader)
    return p


def _sync_runs(factory, seeds):
    for seed in seeds:
        for scheduler in (C11TesterScheduler(seed=seed),
                          NaiveRandomScheduler(seed=seed)):
            yield resolve_model("c11").run_once(factory(), scheduler,
                                                keep_graph=True)


def _read_init_x_last(graph):
    """Repoint the po-last load of X to X's initial write."""
    load = [e for e in graph.events
            if e.loc == "X" and e.is_read and not e.is_rmw][-1]
    init = graph.writes_by_loc["X"][0]
    load.reads_from = init
    load.label = load.label.replace(rval=init.wval)


class TestOracleDifferential:
    def test_corpus_entries(self, reference_calls):
        files = corpus_files(CORPUS_DIR)
        assert files
        for path in files:
            entry = load_entry(path)
            spec = entry["program"]
            program = ProgramSpec(spec["name"], spec["kind"],
                                  spec.get("params", {})).build()
            scheduler = make_scheduler(entry["scheduler"]["name"],
                                       entry["scheduler"].get("params", {}),
                                       seed=entry["seed"])
            result = resolve_model(entry["model"]).run_once(
                program, scheduler,
                max_steps=entry.get("max_steps", 20000),
                spin_threshold=entry.get("spin_threshold", 8),
                keep_graph=True)
            _agree(result.graph, reference_calls)

    @pytest.mark.parametrize("model", ["c11", "tso"])
    @pytest.mark.parametrize("nonatomic", [False, True])
    def test_generated_programs(self, model, nonatomic, reference_calls):
        backend = resolve_model(model)
        config = FuzzConfig(allow_nonatomic=nonatomic)
        for seed in FUZZ_SEEDS:
            plan = plan_program(seed, config)
            result = backend.run_once(
                build_plan_program(plan), NaiveRandomScheduler(seed=seed),
                max_steps=plan_step_bound(plan), keep_graph=True)
            _agree(result.graph, reference_calls)

    def test_table1_benchmarks(self, reference_calls):
        for fresh_graph in _benchmark_runs(range(20)):
            _agree(fresh_graph(), reference_calls)

    def test_fr_rf_hb_reproducer(self, reference_calls):
        flagged = []
        for seed in range(500):
            result = resolve_model("c11").run_once(
                _fr_rf_hb_program(), C11TesterScheduler(seed=seed),
                keep_graph=True)
            found = _agree(result.graph, reference_calls)
            if found:
                flagged.append(seed)
                assert {axiom for axiom, _ in found} == {"read-coherence"}
        assert 373 in flagged

    @pytest.mark.parametrize("factory", [_fenced_mp, _release_sequence_mp])
    def test_synchronization_paths(self, factory, reference_calls):
        """sw through release/acquire fences and through RMW chains.

        On clean graphs, and with the last X load bent back to X's
        initial write: where that load was synchronized with the X = 1
        store, both auditors must flag read-coherence.
        """
        flagged = 0
        for result in _sync_runs(factory, range(300)):
            _agree(result.graph, reference_calls)
            _read_init_x_last(result.graph)
            flagged += bool(_agree(result.graph))
        assert flagged >= 10

    def test_seeded_mutations(self):
        rng = random.Random(0x0A0D17)
        inconsistent = 0
        for fresh_graph in _benchmark_runs(range(3)):
            for _ in range(3):
                graph = fresh_graph()
                for _ in range(rng.randint(1, 3)):
                    _mutate(graph, rng)
                inconsistent += bool(_agree(graph))
        for seed in range(0, 500, 25):
            graph = resolve_model("c11").run_once(
                _fr_rf_hb_program(), C11TesterScheduler(seed=seed),
                keep_graph=True).graph
            _mutate(graph, rng)
            inconsistent += bool(_agree(graph))
        for result in _sync_runs(_fenced_mp, range(40)):
            _mutate(result.graph, rng)
            inconsistent += bool(_agree(result.graph))
        # The mutations must exercise the violation paths, not just the
        # clean one.
        assert inconsistent >= 50


def _silo():
    return ProgramSpec("silo", "app",
                       {"workers": 3, "transactions": 6}).build()


def _verdicts(graph):
    return [(v.axiom, v.detail) for v in axioms.check_consistency(graph)]


def _wipe_engine_stamps(graph):
    for event in graph.events:
        event.clock = None
        event._release_chain = _UNSTAMPED


class TestLinearAndEngineIndependent:
    def test_no_transitive_closure(self, monkeypatch):
        def boom(*_args, **_kwargs):
            raise AssertionError("the one-pass audit built a closure")

        monkeypatch.setattr(Relation, "transitive", boom)
        monkeypatch.setattr(ExecutionGraph, "hb", boom)
        backend = resolve_model("c11")
        queue = backend.run_once(BENCHMARKS["msqueue"].build(),
                                 PCTWMScheduler(0, 4, 1, seed=1),
                                 sanitize=True)
        assert not queue.inconsistent, queue.violations
        silo = backend.run_once(_silo(), NaiveRandomScheduler(seed=2),
                                sanitize=True, keep_graph=True)
        assert not silo.inconsistent, silo.violations
        assert 100 <= silo.graph.size <= 250

    def test_verdicts_ignore_clocks_and_stamps(self):
        backend = resolve_model("c11")
        clean = backend.run_once(BENCHMARKS["msqueue"].build(),
                                 C11TesterScheduler(seed=4),
                                 keep_graph=True).graph
        mutated = backend.run_once(_fr_rf_hb_program(),
                                   C11TesterScheduler(seed=373),
                                   keep_graph=True).graph
        _mutate(mutated, random.Random(5))
        before = [_verdicts(clean), _verdicts(mutated)]
        assert before[0] == [] and before[1] != []
        for graph in (clean, mutated):
            _wipe_engine_stamps(graph)
        assert [_verdicts(clean), _verdicts(mutated)] == before
