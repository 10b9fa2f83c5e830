"""Tests for replayable bug artifacts.

The contract under test: every failing campaign trial emits a JSON
artifact *from inside the worker process*, the parent (or any fresh
process) can deserialize it and re-execute it deterministically, and the
replay's outcome is identical to the recorded one.
"""

import glob
import json
import os

import pytest

from repro.core.factory import SchedulerSpec
import repro.harness.artifact as artifact_module
from repro.harness.artifact import (
    BugArtifact,
    artifact_path,
    classify_outcome,
    load_artifact,
    replay_artifact,
)
from repro.harness.campaign import run_campaign
from repro.harness.parallel import run_campaign_parallel
from repro.memory.events import RLX
from repro.memory.visibility import VisibilityTracker
from repro.replay import replay_run
from repro.runtime.executor import RunResult
from repro.runtime.program import Program
from repro.workloads import BENCHMARKS
from repro.workloads.registry import ProgramSpec

MSQUEUE = ProgramSpec("msqueue")
PCTWM_SPEC = SchedulerSpec("pctwm", {"depth": 0, "k_com": 31, "history": 1})


def _store_store_load() -> Program:
    """Deterministically coherence-violating under a broken visibility
    tracker: the thread is forced to read mo-before its own writes."""
    p = Program("ssl")
    x = p.atomic("X", 0)

    def t0():
        yield x.store(1, RLX)
        yield x.store(2, RLX)
        got = yield x.load(RLX)
        return got

    p.add_thread(t0)
    return p


def _crashing_program() -> Program:
    p = Program("crasher")
    x = p.atomic("X", 0)

    def t0():
        yield x.store(1, RLX)
        raise RuntimeError("injected workload crash")

    p.add_thread(t0)
    return p


class TestClassifyOutcome:
    def test_priorities(self):
        assert classify_outcome(None, "Boom") == "error"
        assert classify_outcome(None, None) is None
        clean = RunResult(program="p", scheduler="s")
        assert classify_outcome(clean, None) is None
        bug = RunResult(program="p", scheduler="s", bug_found=True)
        assert classify_outcome(bug, None) == "bug"
        timeout = RunResult(program="p", scheduler="s", timed_out=True)
        assert classify_outcome(timeout, None) == "timeout"
        # An inconsistent graph outranks the bug verdict it invalidates.
        tainted = RunResult(program="p", scheduler="s", bug_found=True,
                            violations=["read-coherence: ..."])
        assert classify_outcome(tainted, None) == "inconsistent"


class TestSerialArtifacts:
    def test_bug_artifact_roundtrip_and_replay(self, tmp_path):
        result = run_campaign(MSQUEUE, PCTWM_SPEC, trials=10, base_seed=3,
                              artifact_dir=str(tmp_path))
        assert result.hits > 0
        assert len(result.artifacts) == result.hits
        artifact = load_artifact(result.artifacts[0])
        assert artifact.outcome == "bug"
        assert artifact.program_spec == {"kind": "benchmark",
                                         "name": "msqueue", "params": {}}
        assert artifact.scheduler_spec == {
            "name": "pctwm",
            "params": {"depth": 0, "k_com": 31, "history": 1}}
        # JSON round-trip is exact, including the fingerprint.
        again = BugArtifact.from_json(artifact.to_json())
        assert again.to_json() == artifact.to_json()
        assert again.fingerprint == artifact.fingerprint
        report = replay_artifact(artifact)
        assert report.matched, report.mismatch
        assert report.result.bug_kind == artifact.bug_kind
        assert report.result.bug_message == artifact.bug_message

    def test_replay_is_bit_identical(self, tmp_path):
        result = run_campaign(MSQUEUE, PCTWM_SPEC, trials=5, base_seed=3,
                              artifact_dir=str(tmp_path))
        artifact = load_artifact(result.artifacts[0])
        first = replay_run(MSQUEUE(), artifact.trace)
        second = replay_run(MSQUEUE(), artifact.trace)
        assert first.thread_results == second.thread_results
        assert first.steps == second.steps == artifact.steps

    def test_minimized_artifact_is_shorter_and_still_replays(self,
                                                             tmp_path):
        result = run_campaign(MSQUEUE, PCTWM_SPEC, trials=5, base_seed=3,
                              artifact_dir=str(tmp_path))
        artifact = load_artifact(result.artifacts[0])
        report = replay_artifact(artifact, minimize=True)
        assert report.matched
        assert report.minimized is not None
        assert len(report.minimized) <= len(artifact.trace)
        again = replay_run(MSQUEUE(), report.minimized)
        assert again.bug_found
        assert again.bug_message == artifact.bug_message

    def test_error_artifact_replays_same_error(self, tmp_path):
        result = run_campaign(
            _crashing_program, PCTWM_SPEC, trials=2,
            artifact_dir=str(tmp_path))
        assert result.errors == 2
        artifact = load_artifact(result.artifacts[0])
        assert artifact.outcome == "error"
        assert "injected workload crash" in artifact.error
        assert artifact.program_spec is None  # closures carry no spec
        with pytest.raises(ValueError, match="program spec"):
            replay_artifact(artifact)
        report = replay_artifact(artifact,
                                 program_factory=_crashing_program)
        assert report.matched, report.mismatch
        assert report.error == artifact.error

    def test_inconsistent_artifact_replays(self, tmp_path, monkeypatch):
        def evil(self, tid, loc, clock, seq_cst=False):
            return self._graph.writes_by_loc[loc][:1]

        monkeypatch.setattr(VisibilityTracker, "visible_writes", evil)
        result = run_campaign(_store_store_load,
                              SchedulerSpec("c11tester"), trials=2,
                              sanitize="all", artifact_dir=str(tmp_path))
        assert result.inconsistent == 2
        artifact = load_artifact(result.artifacts[0])
        assert artifact.outcome == "inconsistent"
        assert artifact.violations
        assert artifact.diagnostics is not None
        # The engine is still broken in this process, so the replay
        # reproduces the violation and matches.
        report = replay_artifact(artifact,
                                 program_factory=_store_store_load)
        assert report.matched, report.mismatch

    def test_clean_trials_write_no_artifacts(self, tmp_path):
        from repro.litmus import mp1

        result = run_campaign(
            mp1, SchedulerSpec("c11tester"), trials=5,
            artifact_dir=str(tmp_path))
        assert result.hits == 0
        assert result.artifacts == []
        assert glob.glob(os.path.join(str(tmp_path), "*.json")) == []


class _TornFile:
    """A file that accepts half of one write, then fails like a full
    disk (or a worker killed mid-write)."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()
        return False

    def write(self, text):
        self._fh.write(text[:len(text) // 2])
        raise OSError("no space left on device")


class TestAtomicSave:
    def _artifact(self, tmp_path):
        result = run_campaign(MSQUEUE, PCTWM_SPEC, trials=1,
                              artifact_dir=str(tmp_path / "first"))
        return load_artifact(result.artifacts[0])

    def test_failed_write_leaves_no_partial_file(self, tmp_path,
                                                 monkeypatch):
        artifact = self._artifact(tmp_path)
        directory = tmp_path / "out"
        directory.mkdir()
        path = artifact_path(str(directory), 0)
        monkeypatch.setattr(artifact_module, "open",
                            lambda name, mode: _TornFile(open(name, mode)),
                            raising=False)
        with pytest.raises(OSError, match="no space"):
            artifact.save(path)
        monkeypatch.undo()
        assert os.listdir(directory) == []

    def test_failed_rewrite_keeps_the_old_file(self, tmp_path, monkeypatch):
        artifact = self._artifact(tmp_path)
        path = artifact_path(str(tmp_path), 0)
        artifact.save(path)
        before = open(path).read()
        monkeypatch.setattr(artifact_module, "open",
                            lambda name, mode: _TornFile(open(name, mode)),
                            raising=False)
        with pytest.raises(OSError):
            artifact.save(path)
        monkeypatch.undo()
        assert open(path).read() == before
        assert load_artifact(path).to_json() == artifact.to_json()
        assert sorted(os.listdir(tmp_path)) == ["first", "trial-000000.json"]


class TestWorkerArtifacts:
    def test_artifact_survives_process_boundary(self, tmp_path):
        """Workers write artifacts; the parent replays from the path."""
        result = run_campaign_parallel(
            MSQUEUE, PCTWM_SPEC, trials=12, base_seed=3, jobs=2,
            artifact_dir=str(tmp_path))
        assert result.hits > 0
        assert len(result.artifacts) == result.hits
        for path in result.artifacts:
            artifact = load_artifact(path)
            report = replay_artifact(artifact)
            assert report.matched, f"{path}: {report.mismatch}"
            assert report.result.bug_message == artifact.bug_message

    def test_parallel_matches_serial_artifacts(self, tmp_path):
        serial = run_campaign_parallel(
            MSQUEUE, PCTWM_SPEC, trials=8, base_seed=3, jobs=1,
            artifact_dir=str(tmp_path / "serial"))
        parallel = run_campaign_parallel(
            MSQUEUE, PCTWM_SPEC, trials=8, base_seed=3, jobs=2,
            artifact_dir=str(tmp_path / "parallel"))
        assert serial.hits == parallel.hits
        assert [os.path.basename(p) for p in serial.artifacts] == \
            [os.path.basename(p) for p in parallel.artifacts]
        for a, b in zip(serial.artifacts, parallel.artifacts):
            one, two = load_artifact(a), load_artifact(b)
            assert one.trace.decisions == two.trace.decisions
            assert one.fingerprint == two.fingerprint

    def test_artifacts_survive_checkpoint_resume(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        first = run_campaign_parallel(
            MSQUEUE, PCTWM_SPEC, trials=6, base_seed=3, jobs=2,
            artifact_dir=str(tmp_path), checkpoint=journal)
        assert first.artifacts
        resumed = run_campaign_parallel(
            MSQUEUE, PCTWM_SPEC, trials=6, base_seed=3, jobs=2,
            artifact_dir=str(tmp_path), checkpoint=journal, resume=True)
        assert resumed.resumed_trials == 6
        assert resumed.artifacts == first.artifacts
        report = replay_artifact(load_artifact(resumed.artifacts[0]))
        assert report.matched, report.mismatch

    def test_resume_rejects_different_sanitize_mode(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        run_campaign_parallel(MSQUEUE, PCTWM_SPEC, trials=4, base_seed=3,
                              jobs=2, checkpoint=journal, sanitize="off")
        with pytest.raises(ValueError, match="sanitize"):
            run_campaign_parallel(MSQUEUE, PCTWM_SPEC, trials=4,
                                  base_seed=3, jobs=2, checkpoint=journal,
                                  resume=True, sanitize="all")

    def test_journal_preserves_new_trial_fields(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        run_campaign_parallel(
            MSQUEUE, PCTWM_SPEC, trials=4, base_seed=3, jobs=2,
            artifact_dir=str(tmp_path), checkpoint=journal,
            sanitize="all")
        with open(journal) as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
        header, records = lines[0], lines[1:]
        assert header["sanitize"] == "all"
        assert all("inconsistent" in r and "artifact" in r
                   for r in records)
