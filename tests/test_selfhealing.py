"""Self-healing runtime: watchdog preemption, fault rig, SIGTERM drain.

The contract under test: a campaign survives a *wedged* worker (one
that stops heartbeating inside native-ish code where the cooperative
trial timeout cannot fire), survives leaking workers via the RSS
ceiling, treats SIGTERM exactly like SIGINT (journal flushed, interrupt
event appended, partial result returned), and every preemption feeds
the existing retry path so results stay bit-identical.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.core import SchedulerSpec
from repro.harness import run_campaign, run_campaign_parallel
from repro.harness.campaign import CampaignAccumulator
from repro.harness.cli import main as cli_main
from repro.harness.parallel import (
    RETRY_BACKOFF_CAP_S,
    _ShardSupervisor,
    _sigterm_as_interrupt,
)
from repro.harness import faultrig
from repro.harness import watchdog as watchdog_mod
from repro.harness.watchdog import (
    IDLE,
    HeartbeatBoard,
    Watchdog,
    WatchdogStats,
    read_rss_mb,
)
from repro.workloads import ProgramSpec


def agg_key(result):
    return (result.hits, result.inconclusive, result.total_steps,
            result.total_events)


def sb_program():
    return ProgramSpec("SB", kind="litmus")


@pytest.fixture(autouse=True)
def clean_fault_env(monkeypatch):
    """Tests inject faults explicitly; never inherit them."""
    monkeypatch.delenv(faultrig.FAULT_ENV, raising=False)
    faultrig._DIRECTIVES = None
    yield
    faultrig._DIRECTIVES = None


# -- watchdog unit behavior ----------------------------------------------------


class RecordingKills:
    def __init__(self):
        self.pids = []

    def __call__(self, pid):
        self.pids.append(pid)
        return True


@pytest.fixture
def no_real_kills(monkeypatch):
    kills = RecordingKills()
    monkeypatch.setattr(Watchdog, "_kill", staticmethod(kills))
    return kills


def make_board(slots=2):
    return HeartbeatBoard(multiprocessing.get_context(), slots=slots)


class TestWatchdogScan:
    def test_requires_a_limit(self):
        with pytest.raises(ValueError, match="hang timeout or a memory"):
            Watchdog(make_board(), live_pids=list)

    def test_stale_busy_slot_is_killed(self, no_real_kills):
        board = make_board()
        hb = board.claim()
        hb.beat()
        board._stamps[hb.slot] = time.monotonic() - 10.0  # ancient
        stats = WatchdogStats()
        dog = Watchdog(board, live_pids=lambda: [os.getpid()],
                       hang_timeout_s=1.0, stats=stats)
        dog.scan()
        assert no_real_kills.pids == [os.getpid()]
        assert stats.hang_kills == 1
        assert stats.scans == 1

    def test_idle_slot_is_never_killed(self, no_real_kills):
        board = make_board()
        hb = board.claim()
        hb.idle()
        dog = Watchdog(board, live_pids=lambda: [os.getpid()],
                       hang_timeout_s=0.001)
        time.sleep(0.01)
        dog.scan()
        assert no_real_kills.pids == []
        assert dog.stats.hang_kills == 0

    def test_fresh_busy_slot_survives(self, no_real_kills):
        board = make_board()
        hb = board.claim()
        hb.beat()
        dog = Watchdog(board, live_pids=lambda: [os.getpid()],
                       hang_timeout_s=60.0)
        dog.scan()
        assert no_real_kills.pids == []
        assert dog.stats.busy_heartbeat_ages != []

    def test_dead_pool_pids_are_ignored(self, no_real_kills):
        """A stale slot whose pid the pool no longer owns is skipped."""
        board = make_board()
        hb = board.claim()
        board._stamps[hb.slot] = time.monotonic() - 10.0
        dog = Watchdog(board, live_pids=lambda: [],
                       hang_timeout_s=1.0)
        dog.scan()
        assert no_real_kills.pids == []

    def test_rss_ceiling_recycles(self, no_real_kills, monkeypatch):
        board = make_board()
        hb = board.claim()
        hb.idle()  # RSS applies to idle workers too: leaks persist
        monkeypatch.setattr(watchdog_mod, "read_rss_mb",
                            lambda pid: 512.0)
        stats = WatchdogStats()
        dog = Watchdog(board, live_pids=lambda: [os.getpid()],
                       memory_limit_mb=256.0, stats=stats)
        dog.scan()
        assert no_real_kills.pids == [os.getpid()]
        assert stats.rss_kills == 1
        assert stats.preemptions == 1

    def test_poll_derives_from_hang_timeout(self):
        assert Watchdog(make_board(), live_pids=list,
                        hang_timeout_s=2.0).poll_s == 0.5
        assert Watchdog(make_board(), live_pids=list,
                        hang_timeout_s=0.2).poll_s == pytest.approx(0.05)
        assert Watchdog(make_board(), live_pids=list,
                        memory_limit_mb=100.0).poll_s == 0.5

    def test_snapshot_is_json_ready(self):
        stats = WatchdogStats()
        snap = stats.snapshot()
        json.dumps(snap)
        assert snap["scans"] == 0
        assert snap["last_scan_age_s"] is None

    def test_board_claims_distinct_slots(self):
        board = make_board(slots=2)
        assert board.claim().slot != board.claim().slot

    def test_board_needs_a_slot(self):
        with pytest.raises(ValueError):
            HeartbeatBoard(multiprocessing.get_context(), slots=0)

    def test_read_rss_mb_self(self):
        rss = read_rss_mb(os.getpid())
        if rss is None:
            pytest.skip("/proc not available on this platform")
        assert rss > 1.0

    def test_read_rss_mb_dead_pid(self):
        assert read_rss_mb(2 ** 30) is None


# -- fault rig -----------------------------------------------------------------


class TestFaultRig:
    def test_parse_directives(self):
        parsed = faultrig.load_directives(
            "wedge-once:/tmp/w:3.5, kill-once:/tmp/k")
        assert parsed == [("wedge-once", "/tmp/w", 3.5),
                          ("kill-once", "/tmp/k", None)]

    def test_empty_env_is_no_directives(self):
        assert faultrig.load_directives("") == []
        faultrig.maybe_inject()  # must be a no-op, not a crash

    @pytest.mark.parametrize("bad", [
        "explode-once:/tmp/x",       # unknown action
        "wedge-once",                # no sentinel
        "wedge-once::",              # empty sentinel
        "wedge-once:/tmp/x:soon",    # non-numeric arg
    ])
    def test_malformed_directive_raises(self, bad):
        with pytest.raises(ValueError, match="directive"):
            faultrig.load_directives(bad)

    def test_directive_fires_exactly_once(self, tmp_path):
        sentinel = str(tmp_path / "leak")
        faultrig.load_directives(f"leak-once:{sentinel}:1")
        before = len(faultrig._LEAKED)
        faultrig.maybe_inject()
        faultrig.maybe_inject()
        assert os.path.exists(sentinel)
        assert len(faultrig._LEAKED) == before + 1
        faultrig._LEAKED.clear()


# -- preemption end-to-end -----------------------------------------------------


class TestPreemption:
    def test_wedged_worker_preempted_bit_identical(self, tmp_path,
                                                   monkeypatch):
        """A worker wedged outside the step loop (heartbeats stop) is
        hard-killed by the watchdog and its shard retried; the campaign
        finishes bit-identical to a serial run."""
        sentinel = str(tmp_path / "wedged")
        # Bounded wedge: if the watchdog were broken the test would fail
        # on the identity assertions after 30s, not hang CI.
        monkeypatch.setenv(faultrig.FAULT_ENV,
                           f"wedge-once:{sentinel}:30")
        sched = SchedulerSpec("naive")
        faulted = run_campaign_parallel(
            sb_program(), sched, trials=30, base_seed=5, jobs=2,
            max_retries=3, retry_backoff_s=0.01,
            hang_timeout_s=0.5, watchdog_poll_s=0.05)
        serial = run_campaign(sb_program(), sched, trials=30, base_seed=5)
        assert os.path.exists(sentinel)
        assert faulted.hang_preemptions >= 1
        assert faulted.completed == 30
        assert not faulted.interrupted
        assert agg_key(faulted) == agg_key(serial)

    def test_faultrig_kill_recovers_without_watchdog(self, tmp_path,
                                                     monkeypatch):
        sentinel = str(tmp_path / "killed")
        monkeypatch.setenv(faultrig.FAULT_ENV, f"kill-once:{sentinel}")
        sched = SchedulerSpec("naive")
        faulted = run_campaign_parallel(
            sb_program(), sched, trials=24, base_seed=9, jobs=2,
            max_retries=3, retry_backoff_s=0.01)
        serial = run_campaign(sb_program(), sched, trials=24, base_seed=9)
        assert os.path.exists(sentinel)
        assert faulted.hang_preemptions == 0  # no watchdog configured
        assert agg_key(faulted) == agg_key(serial)

    def test_leaky_worker_recycled_by_rss_ceiling(self, tmp_path,
                                                  monkeypatch):
        if read_rss_mb(os.getpid()) is None:
            pytest.skip("/proc not available on this platform")
        # The same worker claims both directives: it leaks ~300 MiB and
        # then stalls busy for a second, giving the sampler a window.
        monkeypatch.setenv(
            faultrig.FAULT_ENV,
            f"leak-once:{tmp_path}/leak:300,stall-once:{tmp_path}/stall:1")
        sched = SchedulerSpec("naive")
        faulted = run_campaign_parallel(
            sb_program(), sched, trials=30, base_seed=4, jobs=2,
            max_retries=3, retry_backoff_s=0.01,
            memory_limit_mb=128.0, watchdog_poll_s=0.05)
        serial = run_campaign(sb_program(), sched, trials=30, base_seed=4)
        assert faulted.rss_recycles >= 1
        assert agg_key(faulted) == agg_key(serial)


# -- SIGTERM drains like SIGINT ------------------------------------------------


class SigtermAfterShards:
    """Progress hook that delivers a real SIGTERM to this process."""

    def __init__(self, shards: int):
        self.shards = shards
        self.calls = 0

    def __call__(self, progress):
        self.calls += 1
        if self.calls == self.shards:
            os.kill(os.getpid(), signal.SIGTERM)


class TestSigterm:
    def test_sigterm_journals_and_resumes_bit_identical(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        sched = SchedulerSpec("naive")
        partial = run_campaign_parallel(
            sb_program(), sched, trials=48, base_seed=11, jobs=2,
            checkpoint=path, progress=SigtermAfterShards(2))
        assert partial.interrupted
        assert 0 < partial.completed < 48

        with open(path) as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
        events = [obj for obj in lines if obj.get("kind") == "interrupt"]
        assert len(events) == 1
        assert events[0]["signal"] == "SIGTERM"
        assert events[0]["completed"] == partial.completed

        resumed = run_campaign_parallel(
            sb_program(), sched, trials=48, base_seed=11, jobs=2,
            checkpoint=path, resume=True)
        serial = run_campaign(sb_program(), sched, trials=48, base_seed=11)
        assert not resumed.interrupted
        assert resumed.resumed_trials == partial.completed
        assert agg_key(resumed) == agg_key(serial)

    def test_sigint_interrupt_event_says_sigint(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")

        def interrupt_soon(progress):
            raise KeyboardInterrupt

        run_campaign_parallel(
            sb_program(), SchedulerSpec("naive"), trials=20, base_seed=1,
            jobs=2, checkpoint=path, progress=interrupt_soon)
        with open(path) as fh:
            events = [json.loads(line) for line in fh
                      if '"interrupt"' in line]
        assert events and events[0]["signal"] == "SIGINT"

    def test_clean_finish_writes_no_interrupt_event(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        run_campaign_parallel(sb_program(), SchedulerSpec("naive"),
                              trials=10, base_seed=2, jobs=2,
                              checkpoint=path)
        with open(path) as fh:
            assert not any('"interrupt"' in line for line in fh)

    def test_previous_handler_restored(self):
        marker = lambda signum, frame: None  # noqa: E731
        previous = signal.signal(signal.SIGTERM, marker)
        try:
            run_campaign_parallel(sb_program(), SchedulerSpec("naive"),
                                  trials=6, base_seed=0, jobs=2)
            assert signal.getsignal(signal.SIGTERM) is marker
        finally:
            signal.signal(signal.SIGTERM, previous)

    def test_context_is_inert_off_main_thread(self):
        import threading

        seen = {}

        def run():
            with _sigterm_as_interrupt() as term_seen:
                seen["handler"] = signal.getsignal(signal.SIGTERM)
                seen["yielded"] = term_seen

        before = signal.getsignal(signal.SIGTERM)
        t = threading.Thread(target=run)
        t.start()
        t.join()
        assert seen["handler"] is before  # nothing was installed
        assert seen["yielded"] == {}

    def test_subprocess_sigterm_exits_130_and_resumes(self, tmp_path):
        """The real thing: SIGTERM a campaign process mid-run, get exit
        code 130 and a resumable journal."""
        path = str(tmp_path / "journal.jsonl")
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "campaign", "seqlock",
             "--scheduler", "naive", "--trials", "4000", "--jobs", "2",
             "--seed", "21", "--checkpoint", path],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if os.path.exists(path) and sum(
                    1 for _ in open(path)) > 40:
                break
            time.sleep(0.1)
        else:
            proc.kill()
            pytest.fail("campaign never journaled any shards")
        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=60)
        assert rc == 130

        rc = cli_main(["campaign", "seqlock", "--scheduler", "naive",
                       "--trials", "4000", "--jobs", "2", "--seed", "21",
                       "--checkpoint", path, "--resume"])
        assert rc == 0
        with open(path) as fh:
            trials = [json.loads(line) for line in fh
                      if '"kind": "trial"' in line]
        assert len(trials) == 4000
        assert len({obj["index"] for obj in trials}) == 4000


# -- retry backoff -------------------------------------------------------------


def make_supervisor(**kwargs):
    defaults = dict(
        shards=[], jobs=1, ctx=None, max_retries=2,
        retry_backoff_s=kwargs.pop("retry_backoff_s", 0.1),
        journal=None, on_progress=lambda outcome: None,
        accumulator=CampaignAccumulator(),
        worker_config=None)
    defaults.update(kwargs)
    return _ShardSupervisor(**defaults)


class TestBackoff:
    def test_delay_doubles_then_caps(self):
        sup = make_supervisor(retry_backoff_s=1.0)
        assert sup._backoff_delay(1) == 1.0
        assert sup._backoff_delay(2) == 2.0
        assert sup._backoff_delay(3) == 4.0
        assert sup._backoff_delay(4) == RETRY_BACKOFF_CAP_S
        assert sup._backoff_delay(10) == RETRY_BACKOFF_CAP_S

    def test_wait_honours_deadline(self):
        sup = make_supervisor()
        t0 = time.monotonic()
        sup._backoff_wait(0.12)
        assert 0.1 <= time.monotonic() - t0 < 1.0


# -- API validation ------------------------------------------------------------


class TestWatchdogParamValidation:
    def test_nonpositive_hang_timeout_rejected(self):
        with pytest.raises(ValueError, match="hang_timeout_s"):
            run_campaign_parallel(sb_program(), SchedulerSpec("naive"),
                                  trials=2, hang_timeout_s=0.0)

    def test_nonpositive_memory_limit_rejected(self):
        with pytest.raises(ValueError, match="memory_limit_mb"):
            run_campaign_parallel(sb_program(), SchedulerSpec("naive"),
                                  trials=2, memory_limit_mb=-1.0)

    def test_hang_budget_must_exceed_trial_budget(self):
        with pytest.raises(ValueError, match="must exceed"):
            run_campaign_parallel(sb_program(), SchedulerSpec("naive"),
                                  trials=2, trial_timeout_s=5.0,
                                  hang_timeout_s=5.0)

    def test_serial_campaign_reports_zero_preemptions(self):
        result = run_campaign_parallel(sb_program(), SchedulerSpec("naive"),
                                       trials=4, jobs=1)
        assert result.hang_preemptions == 0
        assert result.rss_recycles == 0


# -- CLI wiring ----------------------------------------------------------------


class TestCliSelfHealingFlags:
    def test_subquantum_trial_timeout_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["campaign", "dekker", "--trial-timeout", "0.0001"])
        assert excinfo.value.code == 2
        assert "quantum" in capsys.readouterr().err

    def test_zero_hang_timeout_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["campaign", "dekker", "--hang-timeout", "0"])
        assert "must be > 0" in capsys.readouterr().err

    def test_negative_memory_limit_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["campaign", "dekker", "--memory-limit-mb", "-5"])
        assert "must be > 0" in capsys.readouterr().err

    def test_negative_max_retries_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["campaign", "dekker", "--max-retries", "-1"])
        assert "must be >= 0" in capsys.readouterr().err

    def test_hang_not_exceeding_trial_budget_is_clean_error(self, capsys):
        rc = cli_main(["campaign", "dekker", "--trials", "2",
                       "--scheduler", "naive", "--trial-timeout", "5",
                       "--hang-timeout", "5"])
        assert rc == 2
        assert "must exceed" in capsys.readouterr().out

    def test_campaign_runs_with_watchdog_flags(self, capsys):
        rc = cli_main(["campaign", "dekker", "--trials", "8",
                       "--scheduler", "naive", "--jobs", "2",
                       "--hang-timeout", "30",
                       "--memory-limit-mb", "4096"])
        assert rc == 0
        assert "errors=0" in capsys.readouterr().out
