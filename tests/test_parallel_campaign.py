"""Tests for the parallel campaign engine and sharded seed derivation.

The contract under test: for a fixed base seed, ``run_campaign_parallel``
reports aggregate counts bit-identical to the serial ``run_campaign``,
for any worker count and chunking — because trial ``i`` always runs with
``derive_trial_seed(base_seed, i)`` and shards merge in trial order.
"""

import dataclasses
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time

import pytest

from repro.core import SCHEDULER_REGISTRY, SchedulerSpec, make_scheduler
from repro.harness import (
    CampaignProgress,
    derive_trial_seed,
    faultrig,
    parallel,
    run_campaign,
    run_campaign_parallel,
    shutdown_pools,
)
from repro.harness.cli import main as cli_main
from repro.harness.parallel import shard_bounds
from repro.workloads import ProgramSpec


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_trial_seed(7, 3) == derive_trial_seed(7, 3)

    def test_distinct_within_campaign(self):
        seeds = [derive_trial_seed(0, i) for i in range(2000)]
        assert len(set(seeds)) == 2000

    def test_nearby_base_seeds_do_not_overlap(self):
        """The old ``base_seed + i`` scheme made campaigns with nearby
        base seeds rerun each other's trial streams; splitmix must not."""
        a = {derive_trial_seed(0, i) for i in range(500)}
        b = {derive_trial_seed(1, i) for i in range(500)}
        assert not (a & b)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            derive_trial_seed(0, -1)

    def test_64_bit_range(self):
        seed = derive_trial_seed(123456789, 42)
        assert 0 <= seed < 2 ** 64


class TestSpecs:
    def test_scheduler_spec_builds_named_scheduler(self):
        spec = SchedulerSpec("pctwm", {"depth": 1, "k_com": 4})
        sched = spec(seed=3)
        assert sched.name == "pctwm"
        assert spec.scheduler_name == "pctwm"

    def test_scheduler_spec_rejects_unknown(self):
        with pytest.raises(ValueError):
            SchedulerSpec("not-a-scheduler")
        with pytest.raises(ValueError):
            make_scheduler("not-a-scheduler")

    def test_registry_keys_match_scheduler_names(self):
        for name, cls in SCHEDULER_REGISTRY.items():
            assert cls.name == name

    def test_program_spec_builds_benchmarks_litmus_and_apps(self):
        assert ProgramSpec("dekker").build().name == "dekker"
        assert ProgramSpec("SB", kind="litmus").build() is not None
        silo = ProgramSpec("silo", kind="app",
                           params={"workers": 2, "transactions": 1})
        assert silo.build() is not None

    def test_program_spec_rejects_unknown(self):
        with pytest.raises(ValueError):
            ProgramSpec("no-such-benchmark")
        with pytest.raises(ValueError):
            ProgramSpec("dekker", kind="no-such-kind")

    def test_specs_are_picklable(self):
        """The whole point: closures don't cross process boundaries."""
        program = ProgramSpec("seqlock", params={"inserted_writes": 2})
        sched = SchedulerSpec("pctwm",
                              {"depth": 2, "k_com": 10, "history": 2})
        p2 = pickle.loads(pickle.dumps(program))
        s2 = pickle.loads(pickle.dumps(sched))
        assert p2.build().name == "seqlock"
        assert s2(seed=1).name == "pctwm"


class TestShardBounds:
    def test_partition_is_exact(self):
        for trials, jobs in ((1, 4), (10, 3), (100, 4), (17, 8)):
            bounds = shard_bounds(trials, jobs)
            covered = [i for start, stop in bounds
                       for i in range(start, stop)]
            assert covered == list(range(trials))

    def test_serial_single_shard(self):
        assert shard_bounds(50, 1, chunks_per_job=1) == [(0, 50)]


# The acceptance contract: two litmus programs x two schedulers, the
# parallel path with 4 workers bit-identical to serial.
EQUIVALENCE_CASES = [
    ("SB", SchedulerSpec("pctwm", {"depth": 2, "k_com": 4, "history": 1})),
    ("SB", SchedulerSpec("pct", {"depth": 2, "k_events": 4})),
    ("MP", SchedulerSpec("pctwm", {"depth": 1, "k_com": 4, "history": 2})),
    ("MP", SchedulerSpec("pct", {"depth": 1, "k_events": 4})),
]


class TestParallelSerialEquivalence:
    @pytest.mark.parametrize("litmus,sched", EQUIVALENCE_CASES,
                             ids=lambda c: getattr(c, "name", c))
    def test_bit_identical_aggregates(self, litmus, sched):
        program = ProgramSpec(litmus, kind="litmus")
        serial = run_campaign(program, sched, trials=60, base_seed=11)
        parallel = run_campaign_parallel(program, sched, trials=60,
                                         base_seed=11, jobs=4)
        assert parallel.hits == serial.hits
        assert parallel.inconclusive == serial.inconclusive
        assert parallel.total_steps == serial.total_steps
        assert parallel.total_events == serial.total_events
        assert parallel.program == serial.program
        assert parallel.scheduler == serial.scheduler
        assert len(parallel.run_times_s) == serial.trials

    def test_chunking_does_not_change_results(self):
        program = ProgramSpec("SB", kind="litmus")
        sched = SchedulerSpec("pctwm", {"depth": 2, "k_com": 4})
        results = [
            run_campaign_parallel(program, sched, trials=40, base_seed=5,
                                  jobs=jobs, chunks_per_job=chunks)
            for jobs, chunks in ((2, 1), (2, 4), (3, 2), (4, 5))
        ]
        counts = {(r.hits, r.inconclusive, r.total_steps, r.total_events)
                  for r in results}
        assert len(counts) == 1

    def test_jobs_one_is_serial(self):
        program = ProgramSpec("SB", kind="litmus")
        sched = SchedulerSpec("naive")
        result = run_campaign_parallel(program, sched, trials=10,
                                       base_seed=0, jobs=1)
        assert result.jobs == 1
        assert result.shard_times_s == []


class TestProgressHook:
    def test_progress_reports_monotonic_completion(self):
        snapshots = []
        program = ProgramSpec("SB", kind="litmus")
        sched = SchedulerSpec("naive")
        run_campaign_parallel(program, sched, trials=24, base_seed=0,
                              jobs=2, progress=snapshots.append)
        assert snapshots
        completed = [s.completed_trials for s in snapshots]
        assert completed == sorted(completed)
        assert completed[-1] == 24
        final = snapshots[-1]
        assert final.total_trials == 24
        assert final.trials_per_second > 0
        assert final.eta_s == 0.0
        assert "24/24" in final.render()

    def test_progress_called_on_serial_path_too(self):
        snapshots = []
        run_campaign_parallel(ProgramSpec("SB", kind="litmus"),
                              SchedulerSpec("naive"), trials=5,
                              jobs=1, progress=snapshots.append)
        assert [s.completed_trials for s in snapshots] == [5]

    def test_eta_infinite_before_any_elapsed_time(self):
        p = CampaignProgress(0, 10, 0.0)
        assert p.eta_s == float("inf")
        assert "?" in p.render()


class TestCliJobs:
    def test_campaign_command_with_jobs(self, capsys):
        rc = cli_main(["campaign", "dekker", "--trials", "8",
                       "--jobs", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dekker / pctwm" in out
        assert "jobs=2" in out

    def test_campaign_command_rejects_unknown_scheduler(self, capsys):
        rc = cli_main(["campaign", "dekker", "--scheduler", "bogus"])
        assert rc == 2

    def test_table3_accepts_jobs_flag(self, capsys):
        rc = cli_main(["table3", "--trials", "6", "--jobs", "2",
                       "--benchmarks", "dekker"])
        assert rc == 0
        assert "dekker" in capsys.readouterr().out


# -- warm pools outlive one campaign ------------------------------------------

#: CampaignResult fields that depend on timing or on how the campaign was
#: run, not on which trials ran; every other field must match serial.
NON_OUTCOME_FIELDS = {"elapsed_s", "run_times_s", "time_sum_s",
                      "time_sq_sum_s", "jobs", "shard_times_s",
                      "hang_preemptions", "rss_recycles"}


def outcome(result):
    return {f.name: getattr(result, f.name)
            for f in dataclasses.fields(result)
            if f.name not in NON_OUTCOME_FIELDS}


@pytest.fixture
def pool_log(monkeypatch):
    """Start from an empty pool registry and record what it is handed.

    ``released`` and ``closed`` hold ``(healthy, pids)`` of every pool a
    round gave back for reuse, and of every pool torn down.
    """
    monkeypatch.delenv(faultrig.FAULT_ENV, raising=False)
    shutdown_pools()
    log = {"released": [], "closed": []}
    release, close = parallel._POOLS.release, parallel._Pool.close

    def spy_release(pool):
        log["released"].append((pool.healthy(), set(pool.pids())))
        release(pool)

    def spy_close(pool, wait=True):
        log["closed"].append((pool.healthy(), set(pool.pids())))
        close(pool, wait)

    monkeypatch.setattr(parallel._POOLS, "release", spy_release)
    monkeypatch.setattr(parallel._Pool, "close", spy_close)
    yield log
    shutdown_pools()
    faultrig._DIRECTIVES = None


# Three campaigns differing in program, scheduler, model and sanitize mode.
REUSE_CASES = [
    (ProgramSpec("SB", kind="litmus"),
     SchedulerSpec("pctwm", {"depth": 2, "k_com": 4, "history": 1}),
     "c11", "off"),
    (ProgramSpec("MP", kind="litmus"),
     SchedulerSpec("pct", {"depth": 1, "k_events": 4}), "tso", "all"),
    (ProgramSpec("dekker"), SchedulerSpec("naive"), "c11", "sampled"),
]


def assert_never_reused(log):
    """No faulted pool went back to the registry or served again."""
    faulted = [pids for healthy, pids in log["closed"] if not healthy]
    assert faulted, "the faulted pool was not torn down"
    faulted = set().union(*faulted)
    for healthy, pids in log["released"]:
        assert healthy
        assert not pids & faulted


class TestWarmPools:
    def test_reused_pool_is_bit_identical(self, pool_log):
        for program, sched, model, sanitize in REUSE_CASES:
            pooled = run_campaign_parallel(
                program, sched, trials=40, base_seed=13, jobs=2,
                start_method="forkserver", model=model, sanitize=sanitize)
            serial = run_campaign(program, sched, trials=40, base_seed=13,
                                  model=model, sanitize=sanitize)
            assert outcome(pooled) == outcome(serial)
        pids = [pids for _, pids in pool_log["released"]]
        assert len(pids) == 3 and len(pids[0]) == 2
        assert pids[1] == pids[0] and pids[2] == pids[0]
        assert pool_log["closed"] == []

    def test_registry_keeps_one_idle_pool_per_key_and_few_overall(
            self, pool_log):
        ctx = multiprocessing.get_context("spawn")  # no worker starts here
        registry = parallel._POOLS
        first, duplicate = registry.lease(ctx, 1), registry.lease(ctx, 1)
        two, three = registry.lease(ctx, 2), registry.lease(ctx, 3)
        for pool in (first, duplicate, two, three):
            registry.release(pool)
        # The duplicate is surplus for its key; ``first`` is the least
        # recently returned once a third key would exceed the limit.
        assert len(pool_log["closed"]) == 2
        assert parallel.IDLE_POOL_LIMIT == 2
        assert registry.lease(ctx, 3) is three
        assert registry.lease(ctx, 2) is two
        assert registry.lease(ctx, 1) not in (first, duplicate)

    def test_pool_with_killed_worker_is_discarded(self, pool_log, tmp_path,
                                                  monkeypatch):
        sentinel = str(tmp_path / "killed")
        monkeypatch.setenv(faultrig.FAULT_ENV, f"kill-once:{sentinel}")
        program, sched = ProgramSpec("SB", kind="litmus"), \
            SchedulerSpec("naive")
        first = run_campaign_parallel(
            program, sched, trials=24, base_seed=9, jobs=2,
            start_method="fork", max_retries=3, retry_backoff_s=0.01)
        assert os.path.exists(sentinel)
        second = run_campaign_parallel(
            program, sched, trials=24, base_seed=10, jobs=2,
            start_method="fork")
        assert_never_reused(pool_log)
        assert outcome(first) == outcome(
            run_campaign(program, sched, trials=24, base_seed=9))
        assert outcome(second) == outcome(
            run_campaign(program, sched, trials=24, base_seed=10))

    def test_pool_with_hang_kill_is_discarded(self, pool_log, tmp_path,
                                              monkeypatch):
        sentinel = str(tmp_path / "wedged")
        monkeypatch.setenv(faultrig.FAULT_ENV, f"wedge-once:{sentinel}:30")
        program, sched = ProgramSpec("SB", kind="litmus"), \
            SchedulerSpec("naive")
        faulted = run_campaign_parallel(
            program, sched, trials=30, base_seed=5, jobs=2,
            start_method="fork", max_retries=3, retry_backoff_s=0.01,
            hang_timeout_s=0.5, watchdog_poll_s=0.05)
        assert faulted.hang_preemptions >= 1
        assert_never_reused(pool_log)
        assert outcome(faulted) == outcome(
            run_campaign(program, sched, trials=30, base_seed=5))

    def test_fault_env_is_part_of_the_pool_key(self, pool_log, tmp_path,
                                               monkeypatch):
        """A pool started without the fault rig must not serve a campaign
        that asks for it: the new directive has to reach the workers."""
        program, sched = ProgramSpec("SB", kind="litmus"), \
            SchedulerSpec("naive")
        run_campaign_parallel(program, sched, trials=24, base_seed=1,
                              jobs=2, start_method="fork")
        sentinel = str(tmp_path / "killed")
        monkeypatch.setenv(faultrig.FAULT_ENV, f"kill-once:{sentinel}")
        faulted = run_campaign_parallel(
            program, sched, trials=24, base_seed=2, jobs=2,
            start_method="fork", max_retries=3, retry_backoff_s=0.01)
        assert os.path.exists(sentinel)
        assert outcome(faulted) == outcome(
            run_campaign(program, sched, trials=24, base_seed=2))


#: Parks a forkserver pool, writes its worker pids to argv[2], then ends
#: the way argv[1] says: stop the forkserver first and exit (as the
#: benchmark harness does), or die by SIGKILL with the pool still parked.
PARKED_POOL_SCRIPT = """
import multiprocessing, multiprocessing.forkserver, os, signal, sys
from repro.core import SchedulerSpec
from repro.harness import run_campaign_parallel
from repro.workloads import ProgramSpec

run_campaign_parallel(ProgramSpec("SB", kind="litmus"),
                      SchedulerSpec("naive"), trials=20, jobs=2,
                      start_method="forkserver")
with open(sys.argv[2], "w") as fh:
    fh.write(" ".join(str(p.pid) for p in multiprocessing.active_children()))
if sys.argv[1] == "kill":
    os.kill(os.getpid(), signal.SIGKILL)
multiprocessing.forkserver._forkserver._stop()
"""


def _running(pid):
    try:
        with open(f"/proc/{pid}/status") as fh:
            return "zombie" not in fh.read()
    except OSError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
@pytest.mark.parametrize("ending", ["stop-forkserver", "kill"])
def test_parked_workers_never_outlive_their_process(ending, tmp_path):
    """A parked worker neither keeps its forkserver from stopping nor
    survives the process that owns its pool."""
    pid_file = str(tmp_path / "workers")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-c", PARKED_POOL_SCRIPT, ending, pid_file],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        timeout=60)
    assert proc.returncode == (-signal.SIGKILL if ending == "kill" else 0)
    with open(pid_file) as fh:
        workers = [int(pid) for pid in fh.read().split()]
    assert len(workers) == 2
    deadline = time.monotonic() + 10
    while any(map(_running, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    orphans = [pid for pid in workers if _running(pid)]
    for pid in orphans:
        os.kill(pid, signal.SIGKILL)
    assert not orphans
