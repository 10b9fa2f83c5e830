"""Tests for the campaign fast path.

Three contracts:

* **Recording from the first run is exact.**  With an artifact
  directory the executor logs each trial's decisions as it runs; for
  every failure outcome (bug, error, timeout, inconsistent), under C11
  and TSO, an artifact's trace equals a cold recording of the same
  trial seed under either engine, replaying it reproduces the run, and
  the log leaves every campaign aggregate unchanged.
* **Warm state is invisible.**  A :class:`TrialRunner` reusing its
  scheduler/program/executor/execution-state across trials (registry
  specs declare ``supports_reuse``) must produce trial records identical
  to cold per-trial construction, seed for seed, across all nine
  benchmark workloads and all five schedulers.
* **Bounded aggregation is exact.**  ``CampaignResult.run_times_s`` is a
  capped sample, but the average and RSD are computed from running sums
  and stay exact at any campaign length.
"""

import dataclasses
import math
import os

import pytest

import repro.runtime.executor as executor_module
from repro.core.factory import SchedulerSpec
from repro.fuzz.driver import run_fingerprint
from repro.harness.artifact import load_artifact, replay_artifact
from repro.harness.campaign import (
    ERROR_SAMPLE_LIMIT,
    RUN_TIME_SAMPLE_LIMIT,
    CampaignAccumulator,
    CampaignResult,
    TrialConfig,
    TrialRecord,
    TrialRunner,
    run_campaign,
    summarize_exception,
)
from repro.memory.events import RLX
from repro.memory.model import resolve_model
from repro.memory.visibility import VisibilityTracker
from repro.replay import ReplayScheduler, record_run
from repro.replay.trace import READ, THREAD
from repro.runtime.executor import Executor
from repro.runtime.program import Program
from repro.workloads import BENCHMARKS
from repro.workloads.registry import ProgramSpec

MSQUEUE_SPEC = ProgramSpec("msqueue")
PCTWM_SPEC = SchedulerSpec("pctwm", {"depth": 0, "k_com": 31, "history": 1})

SCHEDULER_SPECS = {
    "naive": SchedulerSpec("naive"),
    "c11tester": SchedulerSpec("c11tester"),
    "pct": SchedulerSpec("pct", {"depth": 2, "k_events": 120}),
    "pctwm": SchedulerSpec("pctwm", {"depth": 2, "k_com": 100,
                                     "history": 2}),
    "pos": SchedulerSpec("pos"),
}


def _crashing_program() -> Program:
    p = Program("crasher")
    x = p.atomic("X", 0)

    def t0():
        yield x.store(1, RLX)
        raise RuntimeError("injected workload crash")

    p.add_thread(t0)
    return p


def _crashing_before_first_op() -> Program:
    p = Program("early-crasher")
    x = p.atomic("X", 0)

    def t0():
        raise RuntimeError("crash while priming")
        yield x.store(1, RLX)  # pragma: no cover - makes t0 a generator

    p.add_thread(t0)
    return p


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


def _long_program() -> Program:
    """Two threads of 30 store/load pairs: long enough to time out."""
    p = Program("long")
    x = p.atomic("X", 0)

    def body(n):
        total = 0
        for i in range(n):
            yield x.store(i, RLX)
            total += yield x.load(RLX)
        return total

    p.add_thread(body, 30)
    p.add_thread(body, 30)
    return p


def _campaign_aggregates(result: CampaignResult) -> tuple:
    return (result.trials, result.completed, result.hits, result.errors,
            result.timeouts, result.inconsistent, result.inconclusive,
            result.total_steps, result.total_events,
            result.error_samples, result.violation_samples)


class _FakeClock:
    """Stands in for the executor's clock: one second per reading."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        self.now += 1.0
        return self.now


def _cold_run(artifact, program_factory, scheduler_factory, engine,
              decisions=None):
    """Re-run an artifact's trial from scratch: a fresh program,
    scheduler and executor, the trial's seed, no wall clock, and a
    timed-out trial's step count as the step budget.  Returns
    ``(result, error)``; ``decisions`` (a list) turns the log on.
    """
    max_steps = artifact.steps if artifact.outcome == "timeout" \
        else artifact.max_steps
    executor = resolve_model(artifact.model).make_executor(
        program_factory(), scheduler_factory(artifact.trial_seed),
        max_steps=max_steps, spin_threshold=artifact.spin_threshold,
        engine=engine, sanitize=artifact.outcome == "inconsistent")
    executor.decisions = decisions
    try:
        return executor.run(), None
    except Exception as exc:
        return None, summarize_exception(exc)


class TestRecordOnFailureIdentity:
    """A failing trial's artifact trace is the log of its first run.

    Oracle: a cold recording of the same trial seed (fresh program,
    scheduler and executor, under either engine) logs the same
    decisions, and replaying the trace reproduces the first run.
    """

    def _check(self, tmp_path, program_factory, scheduler_factory,
               trials, model="c11", **kwargs):
        """Run a campaign with artifacts and check every one of them."""
        result = run_campaign(
            program_factory, scheduler_factory, trials=trials,
            base_seed=3, artifact_dir=str(tmp_path), model=model,
            **kwargs)
        artifacts = [load_artifact(path) for path in result.artifacts]
        for artifact in artifacts:
            self._check_trace(artifact, program_factory, scheduler_factory)
        return result, artifacts

    def _check_trace(self, artifact, program_factory, scheduler_factory):
        trace = artifact.trace
        assert trace.seed == artifact.trial_seed
        assert trace.scheduler == artifact.scheduler
        for engine in ("fast", "reference"):
            decisions = []
            first, error = _cold_run(artifact, program_factory,
                                     scheduler_factory, engine, decisions)
            assert decisions == trace.decisions, engine
            assert error == artifact.error, engine
            if first is None:
                continue
            assert first.steps == artifact.steps
            replay = ReplayScheduler(trace)
            again = resolve_model(artifact.model).run_once(
                program_factory(), replay, max_steps=first.steps,
                spin_threshold=trace.spin_threshold, engine=engine,
                sanitize=artifact.outcome == "inconsistent")
            assert replay.fully_consumed
            assert run_fingerprint(again) == run_fingerprint(first), engine
        if artifact.model == "c11" and artifact.error is None:
            _result, cold = record_run(
                program_factory(),
                scheduler_factory(artifact.trial_seed),
                max_steps=first.steps,
                spin_threshold=artifact.spin_threshold)
            assert (cold.program, cold.scheduler, cold.decisions) == \
                (trace.program, trace.scheduler, trace.decisions)
        if artifact.model == "tso":
            assert {kind for kind, _ in trace.decisions} <= {THREAD}

    def test_bug_outcome(self, tmp_path):
        # msqueue rarely fails under TSO; dekker's SB shape does.
        kinds = {}
        for model, program in (("c11", MSQUEUE_SPEC),
                               ("tso", ProgramSpec("dekker"))):
            result, artifacts = self._check(
                tmp_path / model, program, PCTWM_SPEC, trials=20,
                model=model)
            assert result.hits > 0
            assert len(artifacts) == result.hits
            kinds[model] = {kind for artifact in artifacts
                            for kind, _ in artifact.trace.decisions}
        assert kinds == {"c11": {THREAD, READ}, "tso": {THREAD}}

    def test_error_outcome(self, tmp_path):
        for model in ("c11", "tso"):
            result, artifacts = self._check(
                tmp_path / model, _crashing_program, PCTWM_SPEC, trials=2,
                model=model)
            assert result.errors == 2
            assert len(artifacts) == 2
            assert all(len(a.trace) > 0 for a in artifacts)

    def test_crash_before_the_run_starts(self, tmp_path):
        # Priming the threads raises before the executor's loop runs: the
        # trace stays empty and carries no program name.
        result, artifacts = self._check(
            tmp_path, _crashing_before_first_op, PCTWM_SPEC, trials=2)
        assert result.errors == 2
        assert [(a.trace.program, len(a.trace)) for a in artifacts] == \
            [("", 0), ("", 0)]

    def test_timeout_outcome(self, tmp_path):
        # trial_timeout_s=0.0 deterministically times out before the
        # first step (the deadline is checked at step 0): empty trace.
        result, artifacts = self._check(
            tmp_path, ProgramSpec("dekker"), PCTWM_SPEC, trials=2,
            trial_timeout_s=0.0)
        assert result.timeouts == 2
        assert len(artifacts) == 2
        artifact = artifacts[0]
        assert artifact.outcome == "timeout"
        assert artifact.steps == 0
        assert len(artifact.trace) == 0

    @pytest.mark.parametrize("model", ["c11", "tso"])
    def test_timeout_trace_stops_at_last_step(self, tmp_path, monkeypatch,
                                              model):
        # A clock that advances one second per reading times a 1.5 s
        # budget out at the second deadline check, step 32.
        monkeypatch.setattr(executor_module, "time", _FakeClock())
        result = run_campaign(
            _long_program, PCTWM_SPEC, trials=2, base_seed=3,
            artifact_dir=str(tmp_path), model=model, trial_timeout_s=1.5)
        monkeypatch.undo()
        assert result.timeouts == 2
        for path in result.artifacts:
            artifact = load_artifact(path)
            assert artifact.outcome == "timeout"
            assert artifact.steps == Executor.DEADLINE_CHECK_STRIDE
            threads = [v for kind, v in artifact.trace.decisions
                       if kind == THREAD]
            assert len(threads) == artifact.steps
            self._check_trace(artifact, _long_program, PCTWM_SPEC)
            report = replay_artifact(artifact, program_factory=_long_program)
            assert report.matched, report.mismatch

    def test_inconsistent_outcome(self, tmp_path, monkeypatch):
        def evil(self, tid, loc, clock, seq_cst=False):
            return self._graph.writes_by_loc[loc][:1]

        monkeypatch.setattr(VisibilityTracker, "visible_writes", evil)
        result, artifacts = self._check(
            tmp_path, _store_store_load, SchedulerSpec("c11tester"),
            trials=2, sanitize="all")
        assert result.inconsistent == 2
        assert len(artifacts) == 2
        assert artifacts[0].outcome == "inconsistent"

    @pytest.mark.parametrize("model", ["c11", "tso"])
    def test_inconsistent_outcome_sampled(self, tmp_path, monkeypatch,
                                          model):
        monkeypatch.setattr(executor_module, "check_consistency",
                            lambda graph: ["injected violation"])
        result, artifacts = self._check(
            tmp_path, ProgramSpec("seqlock"), PCTWM_SPEC, trials=12,
            model=model, sanitize="sampled")
        assert result.inconsistent == 2  # trials 0 and 10
        assert {a.trial_index for a in artifacts
                if a.outcome == "inconsistent"} == {0, 10}

    def test_scheduler_factory_raises_writes_no_artifact(self, tmp_path):
        def broken(seed):
            raise RuntimeError("no scheduler for you")

        result = run_campaign(
            ProgramSpec("dekker"), broken, trials=2, base_seed=3,
            scheduler_name="broken", artifact_dir=str(tmp_path))
        assert result.errors == 2
        assert result.artifacts == []
        assert os.listdir(tmp_path) == []

    def test_rerecorded_artifact_replays(self, tmp_path):
        result = run_campaign(
            MSQUEUE_SPEC, PCTWM_SPEC, trials=10, base_seed=3,
            artifact_dir=str(tmp_path))
        assert result.hits > 0
        artifact = load_artifact(result.artifacts[0])
        assert artifact.outcome == "bug"
        report = replay_artifact(artifact)
        assert report.matched, report.mismatch
        assert report.result.bug_message == artifact.bug_message

    def test_results_match_without_artifacts(self, tmp_path):
        # The decision log consumes no randomness: recording trials for
        # artifacts leaves every aggregate as it is without them.
        for model in ("c11", "tso"):
            kwargs = dict(trials=12, base_seed=3, model=model,
                          sanitize="sampled")
            logged = run_campaign(MSQUEUE_SPEC, PCTWM_SPEC,
                                  artifact_dir=str(tmp_path / model),
                                  **kwargs)
            plain = run_campaign(MSQUEUE_SPEC, PCTWM_SPEC, **kwargs)
            assert _campaign_aggregates(logged) == \
                _campaign_aggregates(plain), model


def _strip_timing(record: TrialRecord) -> dict:
    obj = dataclasses.asdict(record)
    obj.pop("elapsed_s")
    return obj


class TestWarmStateEquivalence:
    """Warm reuse is seed-for-seed identical to cold construction."""

    def test_all_workloads_all_schedulers(self):
        trials = 2
        for workload in BENCHMARKS:
            program_spec = ProgramSpec(workload)
            for name, scheduler_spec in SCHEDULER_SPECS.items():
                # Plain closures never declare supports_reuse, so the
                # cold runner rebuilds everything each trial.
                cold = TrialRunner(TrialConfig(
                    (lambda spec=program_spec: spec.build()),
                    (lambda seed, spec=scheduler_spec: spec(seed)),
                    base_seed=7, max_steps=8000))
                warm = TrialRunner(TrialConfig(
                    program_spec, scheduler_spec, base_seed=7,
                    max_steps=8000))
                assert not cold._reuse_scheduler and not cold._reuse_program
                assert warm._reuse_scheduler and warm._reuse_program
                for index in range(trials):
                    a = _strip_timing(cold.run(index))
                    b = _strip_timing(warm.run(index))
                    assert a == b, (workload, name, index)

    def test_warm_runner_matches_run_campaign(self):
        runner = TrialRunner(TrialConfig(MSQUEUE_SPEC, PCTWM_SPEC,
                                         base_seed=3))
        records = [_strip_timing(runner.run(i)) for i in range(8)]
        result = run_campaign(MSQUEUE_SPEC, PCTWM_SPEC, trials=8,
                              base_seed=3)
        assert sum(1 for r in records if r["bug_found"]) == result.hits
        assert sum(r["steps"] for r in records) == result.total_steps


class TestBoundedAggregation:
    """Sample caps never distort the exact aggregate statistics."""

    @staticmethod
    def _record(index, elapsed, error=None):
        return TrialRecord(index=index, bug_found=False,
                           limit_exceeded=False, steps=5, k=5,
                           elapsed_s=elapsed, error=error)

    def test_run_time_samples_capped_stats_exact(self):
        n = RUN_TIME_SAMPLE_LIMIT + 500
        elapsed = [1.0 + (i % 17) * 0.25 for i in range(n)]
        acc = CampaignAccumulator()
        for i, t in enumerate(elapsed):
            acc.add(self._record(i, t))
        result = CampaignResult(program="p", scheduler="s", trials=n)
        acc.finalize(result)
        assert result.completed == n
        assert len(result.run_times_s) == RUN_TIME_SAMPLE_LIMIT
        assert set(result.run_times_s) <= set(elapsed)
        mean = sum(elapsed) / n
        var = sum((t - mean) ** 2 for t in elapsed) / n
        assert math.isclose(result.avg_run_time_s, mean)
        assert math.isclose(result.run_time_rsd_pct,
                            math.sqrt(var) / mean * 100.0)

    def test_small_campaigns_keep_every_sample(self):
        acc = CampaignAccumulator()
        for i in range(60):
            acc.add(self._record(i, float(i)))
        result = CampaignResult(program="p", scheduler="s", trials=60)
        acc.finalize(result)
        assert result.run_times_s == [float(i) for i in range(60)]

    def test_error_samples_are_first_by_index(self):
        acc = CampaignAccumulator()
        # Fold out of order, as parallel shards do.
        for i in reversed(range(20)):
            acc.add(self._record(i, 0.0, error=f"boom {i}"))
        result = CampaignResult(program="p", scheduler="s", trials=20)
        acc.finalize(result)
        assert result.errors == 20
        assert result.error_samples == \
            [f"trial {i}: boom {i}" for i in range(ERROR_SAMPLE_LIMIT)]

    def test_fold_order_independent(self):
        records = [self._record(i, 0.5 + i * 0.01) for i in range(50)]
        forward, backward = CampaignAccumulator(), CampaignAccumulator()
        for r in records:
            forward.add(r)
        for r in reversed(records):
            backward.add(r)
        a = CampaignResult(program="p", scheduler="s", trials=50)
        b = CampaignResult(program="p", scheduler="s", trials=50)
        forward.finalize(a)
        backward.finalize(b)
        # The retained sample is exactly order-independent; the running
        # sums commute only up to float rounding.
        assert a.run_times_s == b.run_times_s
        assert math.isclose(a.time_sum_s, b.time_sum_s, rel_tol=1e-12)
        assert math.isclose(a.time_sq_sum_s, b.time_sq_sum_s,
                            rel_tol=1e-12)
