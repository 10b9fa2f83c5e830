"""Service-layer chaos: FIFO execution and injected faults.

The campaign daemon's headline claims — jobs run one at a time in
submission order, and results stay bit-identical through torn journal
writes, ENOSPC on a persist, worker SIGKILL, and a daemon restart
mid-job — are exercised here end to end against a real HTTP daemon.

These tests run real multi-process campaigns, so they are the slowest
in the service suite.
"""

import json
import os
import threading
import time

import pytest

from repro.harness import faultrig
from repro.harness.campaign import TrialRecord
from repro.harness.checkpoint import TrialJournal, load_journal
from repro.service import (
    CampaignDaemon,
    JobSpec,
    ServiceClient,
    result_summary,
    run_job,
)
from repro.service.api import make_server

BIT_FIELDS = ("hits", "inconclusive", "total_steps", "total_events")


def bit_key(summary):
    return tuple(summary[field] for field in BIT_FIELDS)


def spec_dict(**overrides):
    spec = {"benchmark": "dekker", "scheduler": "naive", "trials": 16,
            "seed": 3, "jobs": 1}
    spec.update(overrides)
    return spec


def serve(daemon):
    """Run ``serve_forever`` in a thread; discover the bound URL."""
    thread = threading.Thread(target=daemon.serve_forever, daemon=True)
    thread.start()
    endpoint = os.path.join(daemon.queue.state_dir, "endpoint.json")
    deadline = time.monotonic() + 30
    while not os.path.exists(endpoint):
        assert time.monotonic() < deadline, "endpoint file never appeared"
        time.sleep(0.02)
    return thread, json.load(open(endpoint))["url"]


def stop(daemon, thread):
    daemon.request_shutdown()
    thread.join(timeout=120)
    assert not thread.is_alive()


@pytest.fixture(autouse=True)
def _reset_faultrig():
    """Directives are a module global; never leak into the next test."""
    yield
    faultrig.load_directives("")


# -- journal tears -------------------------------------------------------------


class TestTornJournal:
    def test_torn_append_is_detected_and_skipped(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        faultrig.load_directives(f"torn-write-once:{tmp_path}/torn")
        meta = {"program": "p", "scheduler": "s", "base_seed": 0,
                "trials": 4, "max_steps": 100}
        records = [TrialRecord(index=i, bug_found=False,
                               limit_exceeded=False, steps=3, k=1,
                               elapsed_s=0.0)
                   for i in range(4)]
        with TrialJournal(path) as journal:
            journal.start(meta)
            journal.append(records[:2])  # halved on disk by the rig
            journal.append(records[2:])  # clean
        assert os.path.exists(f"{tmp_path}/torn")

        header, loaded = load_journal(path)
        assert header is not None  # the header line predates the tear
        # The clean append is fully recovered; at least one record from
        # the torn append is gone (cut mid-line or CRC-invalid), and
        # nothing bogus was resurrected from the torn bytes.
        assert {2, 3} <= set(loaded)
        assert len(loaded) < 4

    def test_resume_reruns_torn_trials_bit_identical(self, tmp_path):
        spec = spec_dict(trials=32, seed=9)
        reference = result_summary(run_job(JobSpec.from_dict(spec)))

        # First run journals every shard but the rig tears one append;
        # the in-memory result of *this* run is unaffected — the tear
        # matters to whoever resumes from the journal.
        faultrig.load_directives(f"torn-write-once:{tmp_path}/torn")
        checkpoint = str(tmp_path / "journal.jsonl")
        run_job(JobSpec.from_dict(spec), checkpoint=checkpoint)
        assert os.path.exists(f"{tmp_path}/torn")
        _, survived = load_journal(checkpoint)
        assert len(survived) < 32

        # A resume treats the torn trials as never-run and re-executes
        # them from their derived seeds: bit-identical fold.
        faultrig.load_directives("")
        resumed = run_job(JobSpec.from_dict(spec), checkpoint=checkpoint,
                          resume=True)
        summary = result_summary(resumed)
        assert summary["resumed_trials"] == len(survived)
        assert bit_key(summary) == bit_key(reference)


# -- single-fault HTTP behaviours ---------------------------------------------


def start_http(daemon):
    server = make_server(daemon, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.1}, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_address[1]}"
    return server, thread, url


class TestServiceFaults:
    def test_enospc_on_submit_persist_survives_client_retry(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv(faultrig.FAULT_ENV,
                           f"enospc-once:{tmp_path}/enospc")
        daemon = CampaignDaemon(str(tmp_path / "state"), quiet=True,
                                rate_per_s=1000.0, burst=1000)
        server, thread, url = start_http(daemon)
        try:
            # First attempt 500s (persist raises ENOSPC before the job
            # is enqueued); the client's retry — same auto idempotency
            # key — lands cleanly and no duplicate is possible.
            client = ServiceClient(url, timeout_s=10.0, backoff_s=0.05)
            job = client.submit(spec_dict())
            assert job["status"] == "queued"
            assert job["id"] == "job-000001"  # the failed persist took no id
            assert os.path.exists(f"{tmp_path}/enospc")
            assert len(daemon.queue.list_jobs()) == 1
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    def test_slow_client_does_not_stall_other_requests(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv(faultrig.FAULT_ENV,
                           f"slow-client-once:{tmp_path}/slow:1.0")
        daemon = CampaignDaemon(str(tmp_path / "state"), quiet=True,
                                rate_per_s=1000.0, burst=1000)
        server, thread, url = start_http(daemon)
        try:
            client = ServiceClient(url, timeout_s=10.0, retries=0)
            durations = []

            def probe():
                t0 = time.monotonic()
                client.health()
                durations.append(time.monotonic() - t0)

            probes = [threading.Thread(target=probe) for _ in range(2)]
            for p in probes:
                p.start()
            for p in probes:
                p.join(timeout=30)
            durations.sort()
            assert len(durations) == 2
            # One handler thread was pinned for a second; the threaded
            # server answered the other request immediately.
            assert durations[1] >= 1.0
            assert durations[0] < 0.9
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)


# -- one job at a time ---------------------------------------------------------


class TestFifoExecution:
    def test_back_to_back_jobs_run_fifo_bit_identical(self, tmp_path):
        spec1 = spec_dict(trials=200, seed=7, jobs=2)
        spec2 = spec_dict(trials=200, seed=8, jobs=2)
        ref1 = result_summary(run_job(JobSpec.from_dict(spec1)))
        ref2 = result_summary(run_job(JobSpec.from_dict(spec2)))

        daemon = CampaignDaemon(str(tmp_path / "state"), port=0,
                                quiet=True, rate_per_s=1000.0, burst=1000,
                                worker_budget=4)
        thread, url = serve(daemon)
        try:
            client = ServiceClient(url, timeout_s=10.0)
            job1 = client.submit(spec1)
            job2 = client.submit(spec2)
            final1 = client.wait(job1["id"], timeout_s=180, poll_s=0.1)
            final2 = client.wait(job2["id"], timeout_s=180, poll_s=0.1)
        finally:
            stop(daemon, thread)
        assert final1["status"] == "done"
        assert final2["status"] == "done"
        assert bit_key(final1["result"]) == bit_key(ref1)
        assert bit_key(final2["result"]) == bit_key(ref2)
        # The second job waited for the first to finish.
        assert final2["started_at"] >= final1["finished_at"]
        assert daemon.health()["workers"]["live_peak"] <= 2


# -- the full chaos run --------------------------------------------------------


class TestChaosEndToEnd:
    def test_faulted_restart_bit_identical(self, tmp_path, monkeypatch):
        spec_a = spec_dict(trials=1500, seed=11, jobs=2)
        spec_b = spec_dict(trials=500, seed=22, jobs=2)
        # References computed before any fault directive exists.
        ref_a = result_summary(run_job(JobSpec.from_dict(spec_a)))
        ref_b = result_summary(run_job(JobSpec.from_dict(spec_b)))

        sentinels = tmp_path / "sentinels"
        sentinels.mkdir()
        monkeypatch.setenv(faultrig.FAULT_ENV, ",".join([
            f"torn-write-once:{sentinels}/torn",
            f"enospc-once:{sentinels}/enospc",
            f"kill-once:{sentinels}/kill",
        ]))
        state = str(tmp_path / "state")

        def make_daemon():
            # spawn, not forkserver: the forkserver process was started
            # by an earlier campaign in this pytest run and keeps its
            # stale environment, so workers forked from it would never
            # see the fault directives.  spawn re-reads os.environ for
            # every worker, so kill-once reliably reaches the pool.
            return CampaignDaemon(state, port=0, quiet=True,
                                  rate_per_s=1000.0, burst=1000,
                                  start_method="spawn", worker_budget=2)

        daemon1 = make_daemon()
        thread1, url = serve(daemon1)
        client = ServiceClient(url, timeout_s=10.0, backoff_s=0.05)
        try:
            # The first persist hits injected ENOSPC: submit 500s once
            # and the client retries through under its idempotency key.
            job_a = client.submit(spec_a)
            job_b = client.submit(spec_b)
            assert os.path.exists(f"{sentinels}/enospc")
            assert len(client.list_jobs()) == 2

            # Let real campaign work start, then pull the plug.
            deadline = time.monotonic() + 60
            while client.health()["workers"]["live"] < 1:
                assert time.monotonic() < deadline, \
                    "no campaign workers ever came up"
                time.sleep(0.05)
        finally:
            stop(daemon1, thread1)

        # Interrupted jobs resume on the restarted daemon and finish.
        daemon2 = make_daemon()
        thread2, url2 = serve(daemon2)
        try:
            client2 = ServiceClient(url2, timeout_s=10.0)
            final_a = client2.wait(job_a["id"], timeout_s=300, poll_s=0.2)
            final_b = client2.wait(job_b["id"], timeout_s=300, poll_s=0.2)
        finally:
            stop(daemon2, thread2)

        assert final_a["status"] == "done"
        assert final_b["status"] == "done"
        assert final_a["attempts"] == 2  # interrupted, then resumed
        assert bit_key(final_a["result"]) == bit_key(ref_a)
        assert bit_key(final_b["result"]) == bit_key(ref_b)
        # Every injected fault genuinely fired somewhere along the way.
        assert os.path.exists(f"{sentinels}/torn")
        assert os.path.exists(f"{sentinels}/kill")
