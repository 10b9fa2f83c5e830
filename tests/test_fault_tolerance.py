"""Fault tolerance: trial containment, timeouts, worker recovery, resume.

The contract under test: a campaign survives any single-trial fault (a
workload that raises, a scheduler that misbehaves, a trial that blows its
wall-clock budget), survives dying pool workers by retrying the lost
shards (bit-identical, because seeds are per-trial), and survives being
interrupted by journaling completed trials for an exact resume.
"""

import json
import multiprocessing
import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core import C11TesterScheduler, NaiveRandomScheduler, SchedulerSpec
from repro.harness import run_campaign, run_campaign_parallel
from repro.harness.campaign import (
    ERROR_SAMPLE_LIMIT,
    TrialConfig,
    TrialRunner,
    summarize_exception,
)
from repro.harness.cli import main as cli_main
from repro.harness.fsutil import CRC_KEY, stamp_crc
from repro.harness import parallel
from repro.harness.parallel import _pool_context
from repro.litmus import store_buffering
from repro.memory.events import RLX
from repro.runtime.errors import ReproError
from repro.runtime.executor import run_once
from repro.runtime.program import Program
from repro.runtime.scheduler import Scheduler
from repro.workloads import ProgramSpec


# -- module-level (picklable) fault fixtures ----------------------------------


def crashing_program():
    """Workload whose thread raises unconditionally mid-run."""
    p = Program("always-crash")
    x = p.atomic("X", 0)

    def worker():
        yield x.store(1, RLX)
        raise RuntimeError("workload exploded mid-run")

    p.add_thread(worker)
    return p


def sometimes_crashing_program():
    """SB variant that crashes only on schedules where right reads X=1.

    Other schedules either hit the SB assertion bug or pass, so one
    campaign exercises hit, miss, and error outcomes together.
    """
    p = Program("sometimes-crash")
    x = p.atomic("X", 0)
    y = p.atomic("Y", 0)

    def left():
        yield x.store(1, RLX)
        a = yield y.load(RLX)
        return a

    def right():
        yield y.store(1, RLX)
        b = yield x.load(RLX)
        if b == 1:
            raise RuntimeError("crashed after observing X=1")
        return b

    p.add_thread(left)
    p.add_thread(right)
    from repro.runtime.errors import require
    p.add_final_check(
        lambda r: require(r["left"] == 1 or r["right"] == 1,
                          "SB: both threads read 0"))
    return p


def long_running_program():
    """Thousands of steps: plenty of wall-clock to run out of."""
    p = Program("long-loop")
    x = p.atomic("X", 0)

    def worker():
        for i in range(4000):
            yield x.store(i, RLX)

    p.add_thread(worker)
    return p


class DisabledChoosingScheduler(Scheduler):
    """Always chooses a thread id that is not enabled (engine fault)."""

    name = "disabled-chooser"

    def choose_thread(self, state):
        return len(state.threads) + 7


def disabled_scheduler_factory(seed):
    return DisabledChoosingScheduler(seed=seed)


def naive_factory(seed):
    return NaiveRandomScheduler(seed=seed)


def c11_factory(seed):
    return C11TesterScheduler(seed=seed)


class SlowSchedulerFactory:
    """Scheduler factory whose construction costs measurable wall time."""

    def __init__(self, delay_s: float):
        self.delay_s = delay_s

    def __call__(self, seed):
        time.sleep(self.delay_s)
        return NaiveRandomScheduler(seed=seed)


class KillOnceFactory:
    """Program factory that SIGKILLs the first worker process to call it.

    The sentinel file makes the kill happen exactly once (O_EXCL is
    atomic across concurrent workers), so the retried shard — and every
    later trial — builds the program normally.  The parent process is
    never killed: the factory only fires inside pool workers.
    """

    def __init__(self, sentinel: str):
        self.sentinel = sentinel

    def __call__(self):
        if multiprocessing.parent_process() is not None:
            try:
                fd = os.open(self.sentinel,
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                pass
            else:
                os.close(fd)
                os.kill(os.getpid(), signal.SIGKILL)
        return store_buffering()


class InterruptAfterShards:
    """Progress hook that simulates an operator SIGINT after N shards."""

    def __init__(self, shards: int):
        self.shards = shards
        self.calls = 0

    def __call__(self, progress):
        self.calls += 1
        if self.calls >= self.shards:
            raise KeyboardInterrupt


# -- trial containment ---------------------------------------------------------


class TestTrialContainment:
    def test_crashing_workload_is_recorded_not_raised(self):
        record = TrialRunner(
            TrialConfig(crashing_program, naive_factory)).run(0)
        assert record.error is not None
        assert "RuntimeError" in record.error
        assert "workload exploded" in record.error
        assert not record.bug_found
        assert record.steps == 0

    def test_error_summary_names_the_site(self):
        try:
            raise ValueError("boom")
        except ValueError as exc:
            summary = summarize_exception(exc)
        assert summary.startswith("ValueError: boom @ ")
        assert "test_fault_tolerance.py" in summary

    def test_campaign_over_crashing_workload_completes(self):
        result = run_campaign(crashing_program, naive_factory, trials=12,
                              scheduler_name="naive")
        assert result.completed == 12
        assert result.errors == 12
        assert result.hits == 0
        assert len(result.error_samples) == min(12, ERROR_SAMPLE_LIMIT)
        assert "trial 0:" in result.error_samples[0]

    def test_mixed_outcomes_all_non_crashing_trials_complete(self):
        """The acceptance shape: hits, misses and errors coexist."""
        result = run_campaign(sometimes_crashing_program, c11_factory,
                              trials=60, base_seed=3,
                              scheduler_name="c11tester")
        assert result.completed == 60
        assert result.errors > 0
        assert result.hits > 0
        assert result.errors + result.hits < 60  # some trials simply pass

    def test_parallel_containment_matches_serial(self):
        """Errors are contained inside workers and merge bit-identically."""
        serial = run_campaign(sometimes_crashing_program, c11_factory,
                              trials=40, base_seed=3,
                              scheduler_name="c11tester")
        parallel = run_campaign_parallel(
            sometimes_crashing_program, c11_factory, trials=40, base_seed=3,
            jobs=2, scheduler_name="c11tester")
        assert parallel.errors == serial.errors > 0
        assert (parallel.hits, parallel.inconclusive, parallel.total_steps,
                parallel.total_events) \
            == (serial.hits, serial.inconclusive, serial.total_steps,
                serial.total_events)

    def test_bad_scheduler_is_contained(self):
        result = run_campaign(store_buffering, disabled_scheduler_factory,
                              trials=5, scheduler_name="disabled-chooser")
        assert result.errors == 5
        assert "ReproError" in result.error_samples[0]
        assert "disabled" in result.error_samples[0]

    def test_bad_scheduler_still_raises_outside_campaigns(self):
        with pytest.raises(ReproError):
            run_once(store_buffering(), DisabledChoosingScheduler())

    def test_containment_is_deterministic(self):
        a = run_campaign(sometimes_crashing_program, c11_factory,
                         trials=40, base_seed=7, scheduler_name="c11tester")
        b = run_campaign(sometimes_crashing_program, c11_factory,
                         trials=40, base_seed=7, scheduler_name="c11tester")
        assert (a.hits, a.errors, a.total_steps) \
            == (b.hits, b.errors, b.total_steps)

    def test_error_samples_are_bounded(self):
        result = run_campaign(crashing_program, naive_factory,
                              trials=ERROR_SAMPLE_LIMIT + 5,
                              scheduler_name="naive")
        assert result.errors == ERROR_SAMPLE_LIMIT + 5
        assert len(result.error_samples) == ERROR_SAMPLE_LIMIT

    def test_timing_covers_scheduler_and_program_build(self):
        """Satellite: build costs on both sides count toward elapsed_s."""
        record = TrialRunner(
            TrialConfig(store_buffering, SlowSchedulerFactory(0.05))).run(0)
        assert record.error is None
        assert record.elapsed_s >= 0.04


# -- per-trial wall-clock timeout ----------------------------------------------


class TestTrialTimeout:
    def test_run_once_zero_budget_times_out_immediately(self):
        run = run_once(long_running_program(), NaiveRandomScheduler(seed=0),
                       wall_timeout_s=0.0)
        assert run.timed_out
        assert not run.bug_found
        assert not run.limit_exceeded
        assert run.steps == 0

    def test_generous_budget_does_not_trigger(self):
        run = run_once(store_buffering(), NaiveRandomScheduler(seed=0),
                       wall_timeout_s=60.0)
        assert not run.timed_out
        assert run.steps > 0

    def test_campaign_counts_timeouts(self):
        result = run_campaign(long_running_program, naive_factory, trials=4,
                              scheduler_name="naive", trial_timeout_s=0.0)
        assert result.timeouts == 4
        assert result.errors == 0
        assert result.completed == 4

    def test_timeout_threads_through_parallel_path(self):
        result = run_campaign_parallel(
            ProgramSpec("SB", kind="litmus"), SchedulerSpec("naive"),
            trials=8, jobs=2, trial_timeout_s=60.0)
        assert result.timeouts == 0
        assert result.completed == 8


# -- worker-crash recovery -----------------------------------------------------


class TestWorkerRecovery:
    def test_killed_worker_is_retried_bit_identical(self, tmp_path):
        """SIGKILL one pool worker mid-campaign; the supervisor must
        rebuild the pool, retry the lost shards, and still produce
        aggregates bit-identical to an uninterrupted serial run."""
        factory = KillOnceFactory(str(tmp_path / "killed-once"))
        sched = SchedulerSpec("naive")
        parallel = run_campaign_parallel(
            factory, sched, trials=24, base_seed=9, jobs=2,
            max_retries=3, retry_backoff_s=0.01)
        serial = run_campaign(store_buffering, sched, trials=24, base_seed=9)
        assert os.path.exists(str(tmp_path / "killed-once"))  # it fired
        assert parallel.completed == 24
        assert not parallel.interrupted
        assert parallel.errors == 0
        assert (parallel.hits, parallel.inconclusive, parallel.total_steps,
                parallel.total_events) \
            == (serial.hits, serial.inconclusive, serial.total_steps,
                serial.total_events)

    def test_pool_breaking_during_submission_is_retried(self, monkeypatch):
        """A pool whose worker dies while shards are still being
        submitted (``submit`` itself raises) loses the round like a
        mid-round break: every shard counts one failure, is retried on a
        fresh pool, and the aggregates stay bit-identical."""
        submits = []

        class SubmitBreaksOnce:
            """Leases fresh pools; the 2nd submit overall raises."""

            def lease(self, ctx, workers):
                pool = parallel._Pool(("test", workers), ctx, workers)
                real_submit = pool.executor.submit

                def submit(*args):
                    submits.append(args)
                    if len(submits) == 2:
                        raise BrokenProcessPool("injected at submit")
                    return real_submit(*args)

                pool.executor.submit = submit
                return pool

            def release(self, pool):
                pool.close()

        supervisors = []

        class RecordingSupervisor(parallel._ShardSupervisor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                supervisors.append(self)

        monkeypatch.setattr(parallel, "_POOLS", SubmitBreaksOnce())
        monkeypatch.setattr(parallel, "_ShardSupervisor",
                            RecordingSupervisor)
        sched = SchedulerSpec("naive")
        result = run_campaign_parallel(
            store_buffering, sched, trials=24, base_seed=9, jobs=2,
            max_retries=3, retry_backoff_s=0.01)
        serial = run_campaign(store_buffering, sched, trials=24, base_seed=9)
        assert result.completed == 24
        assert not result.interrupted
        assert result.errors == 0
        assert (result.hits, result.inconclusive, result.total_steps,
                result.total_events) \
            == (serial.hits, serial.inconclusive, serial.total_steps,
                serial.total_events)
        [supervisor] = supervisors
        shards = len(supervisor.failures)
        assert shards > 2
        assert len(submits) == 2 + shards  # broken round, then a clean one
        assert set(supervisor.failures.values()) == {1}

    def test_pool_context_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_START_METHOD", "spawn")
        assert _pool_context().get_start_method() == "spawn"

    def test_pool_context_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_START_METHOD", "spawn")
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork not available on this platform")
        assert _pool_context("fork").get_start_method() == "fork"

    def test_pool_context_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            _pool_context("not-a-method")

    def test_pool_context_default_unchanged(self, monkeypatch):
        monkeypatch.delenv("REPRO_START_METHOD", raising=False)
        methods = multiprocessing.get_all_start_methods()
        expected = "fork" if "fork" in methods else "spawn"
        assert _pool_context().get_start_method() == expected


# -- checkpoint / resume -------------------------------------------------------


def _aggregates(result) -> tuple:
    return (result.completed, result.hits, result.inconclusive,
            result.total_steps, result.total_events, result.errors,
            result.timeouts, result.inconsistent, result.error_samples,
            result.violation_samples)


class TestCheckpointResume:
    def test_interrupt_then_resume_is_bit_identical(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        program = ProgramSpec("SB", kind="litmus")
        sched = SchedulerSpec("pctwm", {"depth": 2, "k_com": 4})

        partial = run_campaign_parallel(
            program, sched, trials=48, base_seed=11, jobs=2,
            checkpoint=path, progress=InterruptAfterShards(2))
        assert partial.interrupted
        assert 0 < partial.completed < 48

        resumed = run_campaign_parallel(
            program, sched, trials=48, base_seed=11, jobs=2,
            checkpoint=path, resume=True)
        serial = run_campaign(program, sched, trials=48, base_seed=11)
        assert not resumed.interrupted
        assert resumed.resumed_trials == partial.completed
        assert resumed.completed == 48
        assert (resumed.hits, resumed.inconclusive, resumed.total_steps,
                resumed.total_events) \
            == (serial.hits, serial.inconclusive, serial.total_steps,
                serial.total_events)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_resume_from_journal_with_operations(self, tmp_path, jobs):
        """Journals whose trial lines carry the retired ``operations``
        count, CRC-stamped over it as their writer did, resume exactly."""
        program = ProgramSpec("SB", kind="litmus")
        sched = SchedulerSpec("pctwm", {"depth": 2, "k_com": 4})
        settings = dict(trials=40, base_seed=9, sanitize="sampled")
        full_path = str(tmp_path / "full.jsonl")
        uninterrupted = run_campaign_parallel(
            program, sched, jobs=2, checkpoint=full_path, **settings)
        with open(full_path) as fh:
            header, *trials = [json.loads(line) for line in fh]
        lines = [json.dumps(header, sort_keys=True)]
        for obj in trials[:15]:
            del obj[CRC_KEY]
            obj["operations"] = 0
            lines.append(json.dumps(stamp_crc(obj), sort_keys=True))
        path = tmp_path / "partial.jsonl"
        path.write_text("\n".join(lines) + "\n")

        resumed = run_campaign_parallel(
            program, sched, jobs=jobs, checkpoint=str(path), resume=True,
            **settings)
        assert resumed.resumed_trials == 15
        assert _aggregates(resumed) == _aggregates(uninterrupted)

    def test_journal_matches_folded_partial_aggregates(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        program = ProgramSpec("SB", kind="litmus")
        sched = SchedulerSpec("naive")
        partial = run_campaign_parallel(
            program, sched, trials=30, base_seed=2, jobs=2,
            checkpoint=path, progress=InterruptAfterShards(1))
        with open(path) as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
        trial_lines = [obj for obj in lines if obj.get("kind") == "trial"]
        assert len(trial_lines) == partial.completed
        assert sum(obj["bug_found"] for obj in trial_lines) == partial.hits

    def test_resume_on_complete_journal_runs_nothing(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        program = ProgramSpec("SB", kind="litmus")
        sched = SchedulerSpec("naive")
        first = run_campaign_parallel(program, sched, trials=10, base_seed=4,
                                      jobs=2, checkpoint=path)
        again = run_campaign_parallel(program, sched, trials=10, base_seed=4,
                                      jobs=2, checkpoint=path, resume=True)
        assert again.resumed_trials == 10
        assert again.shard_times_s == []  # nothing re-run
        assert again.hits == first.hits
        assert again.run_times_s == first.run_times_s  # exact float resume

    def test_serial_checkpoint_path_works(self, tmp_path):
        """jobs=1 with a checkpoint journals and resumes in-process."""
        path = str(tmp_path / "journal.jsonl")
        program = ProgramSpec("SB", kind="litmus")
        sched = SchedulerSpec("naive")
        first = run_campaign_parallel(program, sched, trials=12, base_seed=6,
                                      jobs=1, checkpoint=path)
        assert first.completed == 12
        resumed = run_campaign_parallel(program, sched, trials=12,
                                        base_seed=6, jobs=1,
                                        checkpoint=path, resume=True)
        assert resumed.resumed_trials == 12
        assert resumed.hits == first.hits

    def test_resume_rejects_mismatched_campaign(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        program = ProgramSpec("SB", kind="litmus")
        sched = SchedulerSpec("naive")
        run_campaign_parallel(program, sched, trials=10, base_seed=4,
                              jobs=1, checkpoint=path)
        with pytest.raises(ValueError, match="does not match"):
            run_campaign_parallel(program, sched, trials=10, base_seed=5,
                                  jobs=1, checkpoint=path, resume=True)

    def test_resume_requires_checkpoint(self):
        with pytest.raises(ValueError, match="requires a checkpoint"):
            run_campaign_parallel(ProgramSpec("SB", kind="litmus"),
                                  SchedulerSpec("naive"), trials=5,
                                  resume=True)


# -- CLI wiring ----------------------------------------------------------------


class TestCliFaultFlags:
    def test_trials_zero_is_a_clean_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["campaign", "dekker", "--trials", "0"])
        assert excinfo.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_negative_jobs_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["table2", "--jobs", "-3"])
        assert "must be >= 1" in capsys.readouterr().err

    def test_negative_seed_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["campaign", "dekker", "--seed", "-1"])
        assert "must be >= 0" in capsys.readouterr().err

    def test_non_numeric_trials_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["campaign", "dekker", "--trials", "lots"])
        assert "expected an integer" in capsys.readouterr().err

    def test_campaign_checkpoint_and_resume_flags(self, tmp_path, capsys):
        path = str(tmp_path / "cli-journal.jsonl")
        rc = cli_main(["campaign", "dekker", "--trials", "6",
                       "--scheduler", "naive", "--checkpoint", path])
        assert rc == 0
        assert os.path.exists(path)
        first = capsys.readouterr().out
        assert "errors=0" in first
        rc = cli_main(["campaign", "dekker", "--trials", "6",
                       "--scheduler", "naive", "--checkpoint", path,
                       "--resume"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "resumed 6 trials" in out

    def test_campaign_trial_timeout_flag(self, capsys):
        rc = cli_main(["campaign", "dekker", "--trials", "4",
                       "--scheduler", "naive",
                       "--trial-timeout", "60"])
        assert rc == 0
        assert "timeouts=0" in capsys.readouterr().out

    def test_campaign_resume_mismatch_is_clean_error(self, tmp_path,
                                                     capsys):
        path = str(tmp_path / "cli-journal.jsonl")
        assert cli_main(["campaign", "dekker", "--trials", "6",
                         "--scheduler", "naive",
                         "--checkpoint", path]) == 0
        capsys.readouterr()
        rc = cli_main(["campaign", "dekker", "--trials", "6",
                       "--scheduler", "naive", "--seed", "1",
                       "--checkpoint", path, "--resume"])
        assert rc == 2
        assert "does not match" in capsys.readouterr().out
