"""The generic x86-TSO backend behind the memory-model interface.

Regression coverage for the three event-graph corruption bugs the old
demo engine hid, plus the backend's contracts with the probabilistic
schedulers and the campaign/artifact/replay harness:

* declared memory orders survive the store-buffer path (they were
  hard-coded to RELAXED), so seq_cst accesses populate ``sc_order``;
* flushes commit through the graph's mo-insertion path, so flushed TSO
  graphs satisfy the coherence axioms;
* runs truncated at ``max_steps`` drain their buffers instead of
  leaving reads dangling from never-committed writes;
* campaigns, bug artifacts, and replay run end-to-end under
  ``model="tso"`` and record the model for replay dispatch.
"""

from __future__ import annotations

import pytest

from repro.core import NaiveRandomScheduler, PCTScheduler, PCTWMScheduler
from repro.core.pos import POSScheduler
from repro.litmus import ALL_LITMUS
from repro.litmus.programs import store_buffering
from repro.memory import check_consistency, resolve_model
from repro.memory.events import ACQ, REL, RLX, SC
from repro.runtime import Program, fence
from repro.runtime.errors import ProgramDefinitionError
from repro.runtime.scheduler import Scheduler
from repro.tso import TsoExecutionState

TSO = resolve_model("tso")

SCHEDULER_MAKERS = {
    "naive": lambda seed: NaiveRandomScheduler(seed=seed),
    "pct": lambda seed: PCTScheduler(2, 16, seed=seed),
    "pctwm": lambda seed: PCTWMScheduler(2, 8, 2, seed=seed),
    "pos": lambda seed: POSScheduler(seed=seed),
}


class TestDeclaredOrders:
    """Satellite 1: the backend must not discard declared memory orders."""

    def test_sc_program_populates_sc_order(self):
        result = TSO.run_once(store_buffering(order=SC),
                              NaiveRandomScheduler(seed=0),
                              max_steps=2000)
        graph = result.graph
        assert graph is not None
        # 2 seq_cst stores + 2 seq_cst loads, all in the global SC order.
        assert len(graph.sc_order) == 4

    def test_labels_round_trip_declared_orders(self):
        for order in (RLX, SC):
            result = TSO.run_once(store_buffering(order=order),
                                  NaiveRandomScheduler(seed=1),
                                  max_steps=2000)
            accesses = [e for e in result.graph.events
                        if e.tid >= 0 and e.loc in ("X", "Y")
                        and (e.is_read or e.is_write)]
            assert accesses and all(e.order is order for e in accesses)

    def test_sc_store_buffering_is_sequentially_consistent(self):
        # MOV+MFENCE semantics: seq_cst stores drain the issuing buffer,
        # so the SB weak outcome must be unreachable.
        for seed in range(100):
            result = TSO.run_once(store_buffering(order=SC),
                                  NaiveRandomScheduler(seed=seed),
                                  max_steps=2000, keep_graph=False)
            assert not result.bug_found


class TestFlushCommitPath:
    """Satellite 2: flushes insert into mo via the graph, verifiably."""

    def test_flushed_graphs_satisfy_consistency_axioms(self):
        for name in ("SB", "MP", "LB", "IRIW", "2+2W"):
            factory = ALL_LITMUS[name]
            for seed in range(10):
                result = TSO.run_once(factory(),
                                      NaiveRandomScheduler(seed=seed),
                                      max_steps=2000)
                assert check_consistency(result.graph) == []

    def test_sanitize_reports_clean_under_tso(self):
        result = TSO.run_once(ALL_LITMUS["SB"](),
                              PCTWMScheduler(2, 8, 2, seed=5),
                              max_steps=2000, sanitize=True)
        assert result.violations == []
        assert not result.inconsistent

    def test_all_writes_committed_on_clean_exit(self):
        result = TSO.run_once(ALL_LITMUS["2+2W"](),
                              NaiveRandomScheduler(seed=3), max_steps=2000)
        writes = [e for e in result.graph.events if e.is_write]
        assert writes and all(e.mo_index >= 0 for e in writes)


class TestTruncationDrain:
    """Satellite 3: hitting max_steps must not leave dangling reads."""

    @staticmethod
    def _spinner() -> Program:
        p = Program("tso-truncate")
        x = p.atomic("X", 0)

        def writer():
            for i in range(1, 200):
                yield x.store(i, RLX)

        def reader():
            for _ in range(200):
                yield x.load(RLX)

        p.add_thread(writer)
        p.add_thread(reader)
        return p

    def test_truncated_run_commits_buffered_writes(self):
        for seed in range(8):
            result = TSO.run_once(self._spinner(),
                                  NaiveRandomScheduler(seed=seed),
                                  max_steps=40)
            assert result.limit_exceeded
            writes = [e for e in result.graph.events if e.is_write]
            assert all(e.mo_index >= 0 for e in writes)
            # The drained graph must still be a consistent execution:
            # every read's source sits in mo, so fr() is well-defined.
            assert check_consistency(result.graph) == []


class TestSchedulerContracts:
    def test_weak_outcome_reachable_under_every_scheduler(self):
        factory = ALL_LITMUS["SB"]
        for name, make in SCHEDULER_MAKERS.items():
            hits = sum(
                TSO.run_once(factory(), make(seed), max_steps=2000,
                             keep_graph=False).bug_found
                for seed in range(60)
            )
            assert hits > 0, f"{name} never delayed a flush into SB's window"

    def test_forbidden_shapes_never_hit(self):
        for name in ("MP", "LB", "IRIW", "CoRR", "2+2W", "MP2"):
            factory = ALL_LITMUS[name]
            for sched in ("naive", "pctwm"):
                make = SCHEDULER_MAKERS[sched]
                for seed in range(40):
                    result = TSO.run_once(factory(), make(seed),
                                          max_steps=2000, keep_graph=False)
                    assert not result.bug_found, \
                        f"{name} weak outcome is forbidden under TSO " \
                        f"({sched})"

    def test_runs_are_seed_deterministic(self):
        factory = ALL_LITMUS["SB"]
        for seed in (0, 7, 23):
            a = TSO.run_once(factory(), PCTWMScheduler(2, 8, 2, seed=seed),
                             max_steps=2000)
            b = TSO.run_once(factory(), PCTWMScheduler(2, 8, 2, seed=seed),
                             max_steps=2000)
            def trace(result):
                return [(e.tid, e.kind, e.order, e.loc, e.rval, e.wval)
                        for e in result.graph.events]

            assert a.bug_found == b.bug_found
            assert trace(a) == trace(b)

    def test_pooled_state_reuse_is_seed_identical(self):
        factory = ALL_LITMUS["SB"]
        program = factory()
        state = TSO.make_state(program)
        scheduler = PCTWMScheduler(2, 8, 2, seed=0)
        pooled = []
        for seed in range(30):
            state.reset(program)
            scheduler.reseed(seed)
            pooled.append(TSO.run_once(program, scheduler, state=state,
                                       max_steps=2000,
                                       keep_graph=False).bug_found)
        fresh = [
            TSO.run_once(factory(), PCTWMScheduler(2, 8, 2, seed=seed),
                         max_steps=2000, keep_graph=False).bug_found
            for seed in range(30)
        ]
        assert pooled == fresh

    def test_spawn_is_rejected(self):
        # Flush agents are allocated once at run start, so runtime
        # thread creation has no buffer to pair with.
        from repro.runtime.ops import SpawnOp

        p = Program("tso-spawn")
        p.atomic("X", 0)

        def child():
            yield from ()

        def body():
            yield SpawnOp(child)

        p.add_thread(body)
        with pytest.raises(ProgramDefinitionError):
            TSO.run_once(p, NaiveRandomScheduler(seed=0),
                         max_steps=100, keep_graph=False)


class _RecordingScheduler(Scheduler):
    """Runs the lowest enabled tid (real threads before flush agents)
    and records every executed event with its hook ``info``."""

    def __init__(self):
        super().__init__(seed=0)
        self.executed = []

    def choose_thread(self, state) -> int:
        return min(state.enabled_tids())

    def on_event_executed(self, state, event, info) -> None:
        self.executed.append((event, dict(info)))


class TestForwardedLoad:
    """The one TSO-specific branch of the shared load: a value forwarded
    from the reader's own store buffer forms no sw edge and does not
    move the reader's coherence floor."""

    def test_forwarded_load_neither_syncs_nor_raises_the_floor(self):
        p = Program("tso-forward")
        x = p.atomic("X", 0)

        def body():
            yield x.store(1, REL)
            value = yield x.load(RLX)
            yield fence(ACQ)
            return value

        p.add_thread(body)
        scheduler = _RecordingScheduler()
        state = TsoExecutionState(p)
        result = TSO.make_executor(p, scheduler, max_steps=100).run(state)
        assert list(result.thread_results.values()) == [1]
        (load, load_info), = [(e, i) for e, i in scheduler.executed
                              if e.is_read]
        assert load.reads_from.tid == 0  # its own store, forwarded
        assert load_info["sync_source"] is None
        assert load_info["release_chain_source"] is None
        (_, fence_info), = [(e, i) for e, i in scheduler.executed
                            if e.is_fence]
        assert fence_info["fence_sync_sources"] == []
        assert state.visibility.read_floor(0, "X") == 0
        assert "t0:X" not in state.visibility.snapshot()["read_floors"]


class TestModelRegistry:
    def test_resolve_model(self):
        assert resolve_model("tso").name == "tso"
        assert resolve_model("c11").name == "c11"
        with pytest.raises(ValueError, match="unknown memory model"):
            resolve_model("power")

    def test_scheduler_allowlist(self):
        tso = resolve_model("tso")
        assert tso.supports_scheduler("pctwm")
        assert not tso.supports_scheduler("c11tester")
        assert resolve_model("c11").supports_scheduler("c11tester")


class TestHarnessEndToEnd:
    def test_campaign_artifacts_and_replay_under_tso(self, tmp_path):
        from repro.core.factory import SchedulerSpec
        from repro.harness.artifact import load_artifact, replay_artifact
        from repro.harness.campaign import run_campaign
        from repro.workloads.registry import ProgramSpec

        result = run_campaign(
            ProgramSpec("dekker"),
            SchedulerSpec("pctwm", {"depth": 2, "k_com": 12, "history": 2}),
            trials=40, base_seed=3, max_steps=5000,
            artifact_dir=str(tmp_path), sanitize="sampled", model="tso",
        )
        assert result.errors == 0
        assert result.inconsistent == 0
        assert result.hits > 0
        assert result.artifacts
        artifact = load_artifact(result.artifacts[0])
        assert artifact.model == "tso"
        report = replay_artifact(artifact)
        assert report.matched, report.mismatch

    def test_parallel_campaign_matches_serial_under_tso(self):
        from repro.core.factory import SchedulerSpec
        from repro.harness.campaign import run_campaign
        from repro.harness.parallel import run_campaign_parallel
        from repro.workloads.registry import ProgramSpec

        prog = ProgramSpec("dekker")
        sched = SchedulerSpec("pctwm",
                              {"depth": 2, "k_com": 12, "history": 2})
        serial = run_campaign(prog, sched, trials=24, base_seed=3,
                              max_steps=5000, model="tso")
        parallel = run_campaign_parallel(prog, sched, trials=24, base_seed=3,
                                         max_steps=5000, jobs=2, model="tso")
        assert parallel.hits == serial.hits
        assert parallel.errors == serial.errors == 0

    def test_checkpoint_rejects_model_mismatch(self, tmp_path):
        from repro.core.factory import SchedulerSpec
        from repro.harness.parallel import run_campaign_parallel
        from repro.workloads.registry import ProgramSpec

        prog = ProgramSpec("dekker")
        sched = SchedulerSpec("pctwm",
                              {"depth": 2, "k_com": 12, "history": 2})
        journal = str(tmp_path / "journal.jsonl")
        run_campaign_parallel(prog, sched, trials=8, base_seed=3,
                              max_steps=5000, jobs=2, checkpoint=journal,
                              model="tso")
        with pytest.raises(ValueError, match="does not match"):
            run_campaign_parallel(prog, sched, trials=8, base_seed=3,
                                  max_steps=5000, jobs=2, checkpoint=journal,
                                  resume=True, model="c11")
        resumed = run_campaign_parallel(prog, sched, trials=8, base_seed=3,
                                        max_steps=5000, jobs=2,
                                        checkpoint=journal, resume=True,
                                        model="tso")
        assert resumed.resumed_trials == 8

    def test_artifact_json_round_trips_model(self, tmp_path):
        from repro.harness.artifact import BugArtifact
        from repro.replay.trace import Trace

        artifact = BugArtifact(
            outcome="bug", program="SB", scheduler="pctwm",
            trial_index=0, trial_seed=1, base_seed=0, max_steps=100,
            spin_threshold=8, trace=Trace(decisions=[]), model="tso",
        )
        clone = BugArtifact.from_json(artifact.to_json())
        assert clone.model == "tso"
        assert clone.fingerprint == artifact.fingerprint

    def test_legacy_artifact_defaults_to_c11(self):
        import json

        from repro.harness.artifact import BugArtifact
        from repro.replay.trace import Trace

        artifact = BugArtifact(
            outcome="bug", program="SB", scheduler="pctwm",
            trial_index=0, trial_seed=1, base_seed=0, max_steps=100,
            spin_threshold=8, trace=Trace(decisions=[]),
        )
        raw = json.loads(artifact.to_json())
        del raw["model"]  # pre-model artifacts lack the field
        clone = BugArtifact.from_json(json.dumps(raw))
        assert clone.model == "c11"
