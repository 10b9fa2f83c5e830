"""Campaign service: job specs, durable queue, daemon, HTTP API.

The service contract: a job submitted over HTTP runs through the exact
same campaign engine as ``python -m repro campaign`` and produces
bit-identical aggregates; every job journals its trials so daemon
death, drain, or cancel always leaves a resumable state directory.
"""

import json
import multiprocessing
import os
import socket
import threading
import time
import urllib.request

import pytest

from repro.service import (
    CampaignDaemon,
    Job,
    JobQueue,
    JobSpec,
    ServiceClient,
    ServiceError,
    TokenBucket,
    result_summary,
    run_job,
)
from repro.harness.fsutil import stamp_crc
from repro.service.api import make_server
from repro.service.queue import JOB_STATUSES


BIT_FIELDS = ("hits", "inconclusive", "total_steps", "total_events")


def spec_dict(**overrides):
    spec = {"benchmark": "dekker", "scheduler": "naive", "trials": 16,
            "seed": 3, "jobs": 1}
    spec.update(overrides)
    return spec


def bit_key(summary):
    return tuple(summary[field] for field in BIT_FIELDS)


# -- job specs -----------------------------------------------------------------


class TestJobSpec:
    def test_round_trip(self):
        spec = JobSpec.from_dict(spec_dict())
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown job spec field"):
            JobSpec.from_dict(spec_dict(colour="red"))

    def test_benchmark_required(self):
        with pytest.raises(ValueError, match="benchmark"):
            JobSpec.from_dict({"trials": 5})

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            JobSpec.from_dict(["dekker"])

    @pytest.mark.parametrize("overrides,fragment", [
        ({"scheduler": "quantum"}, "unknown scheduler"),
        ({"benchmark": "nonesuch"}, "unknown benchmark"),
        ({"model": "sc"}, "unknown model"),
        ({"trials": 0}, "trials"),
        ({"seed": -1}, "seed"),
        ({"jobs": 0}, "jobs"),
        ({"max_steps": 0}, "max_steps"),
        ({"max_retries": -1}, "max_retries"),
        ({"trial_timeout_s": 0.00001}, "quantum"),
        ({"hang_timeout_s": 0}, "hang_timeout_s"),
        ({"memory_limit_mb": -4.0}, "memory_limit_mb"),
        ({"trial_timeout_s": 5.0, "hang_timeout_s": 5.0}, "must exceed"),
        ({"sanitize": "loud"}, "sanitize"),
        ({"record_mode": "sometimes"}, "record mode"),
        # Malformed types and out-of-range d/h: ValueError (so POST /jobs
        # answers 400), never TypeError, and never accepted.
        ({"scheduler": ["pctwm"]}, "scheduler"),
        ({"benchmark": ["dekker"]}, "benchmark"),
        ({"hang_timeout_s": "30"}, "hang_timeout_s"),
        ({"memory_limit_mb": "512"}, "memory_limit_mb"),
        ({"trial_timeout_s": "5"}, "trial_timeout_s"),
        ({"depth": "2"}, "depth"),
        ({"history": "2"}, "history"),
        ({"trials": True}, "trials"),
        ({"artifact_dir": 7}, "artifact_dir"),
        ({"depth": -2}, "depth"),
        ({"history": 0}, "history"),
    ])
    def test_validate_rejects(self, overrides, fragment):
        spec = JobSpec.from_dict(spec_dict(**overrides))
        with pytest.raises(ValueError, match=fragment):
            spec.validate()

    @pytest.mark.parametrize("record_mode", ["on_failure", "always"])
    def test_retired_record_mode_is_dropped(self, record_mode):
        spec = JobSpec.from_dict(spec_dict(record_mode=record_mode))
        assert spec == JobSpec.from_dict(spec_dict())
        assert "record_mode" not in spec.to_dict()
        spec.validate()

    def test_valid_spec_passes(self):
        JobSpec.from_dict(spec_dict(
            trial_timeout_s=5.0, hang_timeout_s=30.0,
            memory_limit_mb=1024.0, model="tso")).validate()


# -- token bucket --------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestTokenBucket:
    def test_burst_then_throttle_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate_per_s=1.0, burst=2, clock=clock)
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        clock.now += 1.0
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate_per_s=10.0, burst=2, clock=clock)
        clock.now += 3600.0
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate_per_s=0.0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate_per_s=1.0, burst=0)


# -- durable queue -------------------------------------------------------------


class TestJobQueue:
    def test_submit_assigns_serial_ids_and_persists(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        first = queue.submit(spec_dict())
        second = queue.submit(spec_dict(seed=4))
        assert (first.id, second.id) == ("job-000001", "job-000002")
        on_disk = json.load(open(
            os.path.join(queue.jobs_dir, f"{first.id}.json")))
        assert on_disk["status"] == "queued"
        assert on_disk["spec"]["seed"] == 3

    def test_claim_is_fifo(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        first = queue.submit(spec_dict())
        queue.submit(spec_dict())
        claimed = queue.claim_next()
        assert claimed.id == first.id
        assert claimed.status == "running"
        assert claimed.attempts == 1

    def test_claim_empty_queue(self, tmp_path):
        assert JobQueue(str(tmp_path)).claim_next() is None

    def test_reload_marks_running_as_interrupted(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        running = queue.submit(spec_dict())
        queue.submit(spec_dict())
        queue.claim_next()
        assert running.status == "running"

        reloaded = JobQueue(str(tmp_path))
        assert reloaded.get(running.id).status == "interrupted"
        # Interrupted work is claimed before anything merely queued,
        # and new submissions keep the serial sequence moving.
        assert reloaded.claim_next().id == running.id
        assert reloaded.submit(spec_dict()).id == "job-000003"

    def test_cancel_queued_is_immediate(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        job = queue.submit(spec_dict())
        cancelled = queue.request_cancel(job.id)
        assert cancelled.status == "cancelled"
        assert cancelled.finished_at is not None
        assert queue.claim_next() is None

    def test_cancel_running_sets_event_only(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        job = queue.submit(spec_dict())
        queue.claim_next()
        queue.request_cancel(job.id)
        assert job.status == "running"
        assert job.cancel_event.is_set()

    def test_cancel_unknown_job(self, tmp_path):
        assert JobQueue(str(tmp_path)).request_cancel("job-9") is None

    def test_counts_and_has_active(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        assert not queue.has_active()
        queue.submit(spec_dict())
        counts = queue.counts()
        assert counts["queued"] == 1
        assert set(counts) == set(JOB_STATUSES)
        assert queue.has_active()

    def test_torn_job_file_is_skipped(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        queue.submit(spec_dict())
        with open(os.path.join(queue.jobs_dir, "job-000999.json"),
                  "w") as fh:
            fh.write("{torn")
        reloaded = JobQueue(str(tmp_path))
        assert [j.id for j in reloaded.list_jobs()] == ["job-000001"]

    def test_journal_path_lives_in_state_dir(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        path = queue.journal_path("job-000001")
        assert path.startswith(str(tmp_path))
        assert path.endswith("job-000001.jsonl")

    def test_job_round_trip(self):
        job = Job(id="job-000007", spec=spec_dict(), status="done",
                  submitted_at=1.0, result={"hits": 3}, attempts=2)
        assert Job.from_dict(job.to_dict()).to_dict() == job.to_dict()


# -- daemon (direct, no socket) ------------------------------------------------


class TestDaemonDirect:
    def test_submit_validates(self, tmp_path):
        daemon = CampaignDaemon(str(tmp_path), quiet=True)
        with pytest.raises(ValueError, match="unknown benchmark"):
            daemon.submit(spec_dict(benchmark="nonesuch"))

    def test_submit_refused_while_draining(self, tmp_path):
        daemon = CampaignDaemon(str(tmp_path), quiet=True)
        daemon.drain()
        with pytest.raises(ValueError, match="draining"):
            daemon.submit(spec_dict())

    def test_process_one_empty_queue(self, tmp_path):
        assert CampaignDaemon(str(tmp_path),
                              quiet=True).process_one() is None

    def test_job_result_is_bit_identical_to_direct_run(self, tmp_path):
        reference = result_summary(run_job(JobSpec.from_dict(spec_dict())))

        daemon = CampaignDaemon(str(tmp_path), quiet=True)
        daemon.submit(spec_dict())
        finished = daemon.process_one()
        assert finished["status"] == "done"
        assert finished["finished_at"] is not None
        assert bit_key(finished["result"]) == bit_key(reference)
        assert finished["result"]["interrupted"] is False
        # The journal is the durable record of every trial.
        journal = daemon.queue.journal_path(finished["id"])
        assert sum(1 for line in open(journal)
                   if '"kind": "trial"' in line) == 16

    def test_cancelled_running_job_keeps_partial_result(self, tmp_path):
        daemon = CampaignDaemon(str(tmp_path), quiet=True)
        submitted = daemon.submit(spec_dict(trials=32))
        daemon.queue.get(submitted["id"]).cancel_event.set()
        finished = daemon.process_one()
        assert finished["status"] == "cancelled"
        assert finished["finished_at"] is not None
        assert finished["result"]["interrupted"] is True
        assert 0 < finished["result"]["completed"] < 32

    def test_invalid_spec_on_disk_fails_cleanly(self, tmp_path):
        daemon = CampaignDaemon(str(tmp_path), quiet=True)
        # Simulate a spec that passed an older validator: inject the
        # record directly, bypassing submit-time validation.
        job = daemon.queue.submit(spec_dict(benchmark="nonesuch"))
        assert job is not None
        finished = daemon.process_one()
        assert finished["status"] == "failed"
        assert "unknown benchmark" in finished["error"]

    def test_health_shape(self, tmp_path):
        daemon = CampaignDaemon(str(tmp_path), quiet=True)
        health = daemon.health()
        assert set(health) == {
            "status", "pid", "uptime_s", "state_dir", "start_method",
            "current_job", "jobs", "queue_depth", "quarantined_records",
            "workers", "watchdog"}
        assert health["status"] == "ok"
        assert health["pid"] == os.getpid()
        assert health["current_job"] is None
        assert set(health["workers"]) == {"budget", "live", "live_peak"}
        assert "watchdog" in health and "scans" in health["watchdog"]
        daemon.drain()
        assert daemon.health()["status"] == "draining"

    def test_worker_budget_caps_job_workers(self, tmp_path):
        daemon = CampaignDaemon(str(tmp_path), quiet=True, worker_budget=1)
        daemon.submit(spec_dict(jobs=2))
        finished = daemon.process_one()
        assert finished["status"] == "done"
        assert finished["result"]["jobs"] == 1


class TestRestartRecovery:
    def test_daemon_restart_resumes_bit_identical(self, tmp_path):
        """Daemon dies mid-job (record left ``running``, journal partial)
        -> a fresh daemon re-queues it as interrupted, resumes from the
        journal, and the final result matches an uninterrupted run."""
        state = str(tmp_path / "state")
        spec = spec_dict(trials=32)
        reference = result_summary(run_job(JobSpec.from_dict(spec)))

        daemon1 = CampaignDaemon(state, quiet=True)
        daemon1.submit(spec)
        job = daemon1.queue.claim_next()

        def die_after_first_shard(progress):
            raise KeyboardInterrupt

        partial = run_job(JobSpec.from_dict(spec),
                          checkpoint=daemon1.queue.journal_path(job.id),
                          progress=die_after_first_shard)
        assert partial.interrupted
        assert 0 < partial.completed < 32
        # daemon1 "dies" here: the job record on disk still says running.

        daemon2 = CampaignDaemon(state, quiet=True)
        assert daemon2.queue.get(job.id).status == "interrupted"
        finished = daemon2.process_one()
        assert finished["id"] == job.id
        assert finished["status"] == "done"
        assert finished["result"]["resumed_trials"] == partial.completed
        assert bit_key(finished["result"]) == bit_key(reference)
        assert finished["attempts"] == 2

    @pytest.mark.parametrize("record_mode", ["on_failure", "always"])
    def test_record_with_retired_record_mode_runs_after_restart(
            self, tmp_path, record_mode):
        """A job record persisted while specs still carried
        ``record_mode`` reloads in a restarted daemon and runs."""
        state = str(tmp_path / "state")
        spec = spec_dict(benchmark="msqueue", scheduler="pctwm",
                         artifact_dir=str(tmp_path / "artifacts"))
        reference = result_summary(run_job(JobSpec.from_dict(
            dict(spec, artifact_dir=str(tmp_path / "reference")))))
        legacy = dict(JobSpec.from_dict(spec).to_dict(),
                      record_mode=record_mode)
        job = CampaignDaemon(state, quiet=True).queue.submit(legacy)

        daemon = CampaignDaemon(state, quiet=True)
        assert daemon.queue.get(job.id).spec["record_mode"] == record_mode
        finished = daemon.process_one()
        assert finished["id"] == job.id
        assert finished["status"] == "done", finished.get("error")
        assert bit_key(finished["result"]) == bit_key(reference)
        assert reference["hits"] > 0
        assert sorted(os.listdir(tmp_path / "artifacts")) == \
            sorted(os.listdir(tmp_path / "reference"))

    def test_multi_tenant_record_resumes_and_replays(self, tmp_path):
        """A record written by the multi-tenant daemon (``tenant``,
        ``granted_workers``, ``preemptions``), left ``running`` with a
        partial journal, resumes bit-identically and still answers an
        idempotent resubmit of its key with 200."""
        state = tmp_path / "state"
        (state / "jobs").mkdir(parents=True)
        (state / "journals").mkdir()
        spec = JobSpec.from_dict(spec_dict(trials=32)).to_dict()
        reference = result_summary(run_job(JobSpec.from_dict(spec)))

        def die_after_first_shard(progress):
            raise KeyboardInterrupt

        partial = run_job(
            JobSpec.from_dict(spec),
            checkpoint=str(state / "journals" / "job-000001.jsonl"),
            progress=die_after_first_shard)
        assert 0 < partial.completed < 32
        record = {
            "id": "job-000001", "spec": spec, "status": "running",
            "tenant": "alice", "submitted_at": 1.0, "started_at": 2.0,
            "finished_at": None, "result": None, "error": None,
            "progress_trials": partial.completed, "attempts": 1,
            "idempotency_key": "k", "granted_workers": 2,
            "preemptions": 1,
        }
        with open(state / "jobs" / "job-000001.json", "w") as fh:
            json.dump(stamp_crc(record), fh)

        daemon = CampaignDaemon(str(state), quiet=True,
                                rate_per_s=1000.0, burst=1000)
        assert daemon.queue.quarantined == []
        finished = daemon.process_one()
        assert finished["id"] == "job-000001"
        assert finished["status"] == "done"
        assert finished["attempts"] == 2
        assert finished["result"]["resumed_trials"] == partial.completed
        assert bit_key(finished["result"]) == bit_key(reference)
        assert "tenant" not in finished

        server, thread, url = start_http(daemon)
        try:
            request = urllib.request.Request(
                url + "/jobs", data=json.dumps(spec).encode(),
                headers={"Content-Type": "application/json",
                         "Idempotency-Key": "k"}, method="POST")
            with urllib.request.urlopen(request, timeout=10) as resp:
                assert resp.status == 200
                replay = json.loads(resp.read())
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert replay["id"] == "job-000001"
        assert replay["status"] == "done"
        assert len(daemon.queue.list_jobs()) == 1

    def test_idempotent_resubmit_matches_retired_record_mode(self, tmp_path):
        daemon = CampaignDaemon(str(tmp_path), quiet=True)
        legacy = dict(JobSpec.from_dict(spec_dict()).to_dict(),
                      record_mode="always")
        job = daemon.queue.submit(legacy, idempotency_key="k1")
        again = daemon.submit(spec_dict(), idempotency_key="k1")
        assert again["id"] == job.id
        assert again["replayed"]


# -- HTTP API ------------------------------------------------------------------


def start_http(daemon):
    """Serve the API for ``daemon`` on an ephemeral port (no worker)."""
    server = make_server(daemon, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.1}, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_address[1]}"
    return server, thread, url


@pytest.fixture
def api(tmp_path):
    daemon = CampaignDaemon(str(tmp_path), quiet=True,
                            rate_per_s=1000.0, burst=1000)
    server, thread, url = start_http(daemon)
    yield daemon, ServiceClient(url, timeout_s=10.0)
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


class TestHttpApi:
    def test_healthz(self, api):
        daemon, client = api
        health = client.health()
        assert health["status"] == "ok"
        assert health["pid"] == os.getpid()

    def test_submit_status_list(self, api):
        daemon, client = api
        job = client.submit(spec_dict())
        assert job["id"] == "job-000001"
        assert job["status"] == "queued"
        assert client.status(job["id"])["spec"]["benchmark"] == "dekker"
        assert [j["id"] for j in client.list_jobs()] == [job["id"]]

    def test_result_conflict_until_finished(self, api):
        daemon, client = api
        job = client.submit(spec_dict())
        with pytest.raises(ServiceError) as excinfo:
            client.result(job["id"])
        assert excinfo.value.code == 409

        finished = daemon.process_one()
        assert finished["id"] == job["id"]
        result = client.result(job["id"])
        assert result["status"] == "done"
        assert bit_key(result["result"]) == bit_key(
            client.status(job["id"])["result"])

    def test_cancel_queued_over_http(self, api):
        daemon, client = api
        job = client.submit(spec_dict())
        assert client.cancel(job["id"])["status"] == "cancelled"
        assert daemon.process_one() is None

    def test_unknown_routes_404(self, api):
        daemon, client = api
        for call in (lambda: client.status("job-000404"),
                     lambda: client.result("job-000404"),
                     lambda: client.cancel("job-000404"),
                     lambda: client._request("GET", "/nope")):
            with pytest.raises(ServiceError) as excinfo:
                call()
            assert excinfo.value.code == 404

    def test_invalid_spec_400(self, api):
        daemon, client = api
        with pytest.raises(ServiceError) as excinfo:
            client.submit(spec_dict(benchmark="nonesuch"))
        assert excinfo.value.code == 400
        assert "unknown benchmark" in excinfo.value.message

    def test_malformed_field_400_is_not_retried(self, api, monkeypatch):
        daemon, client = api
        calls = []
        request_once = client._request_once

        def counted(*args, **kwargs):
            calls.append(args)
            return request_once(*args, **kwargs)

        monkeypatch.setattr(client, "_request_once", counted)
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"benchmark": "dekker", "scheduler": ["x"]})
        assert excinfo.value.code == 400
        assert "scheduler must be a string" in excinfo.value.message
        assert len(calls) == 1
        assert daemon.queue.list_jobs() == []

    def test_malformed_body_400(self, api):
        daemon, client = api
        request = urllib.request.Request(
            client.base_url + "/jobs", data=b"{torn",
            headers={"Content-Type": "application/json"}, method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_negative_content_length_400(self, api):
        daemon, client = api
        port = int(client.base_url.rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=1.0) as sock:
            sock.sendall(b"POST /jobs HTTP/1.1\r\nHost: localhost\r\n"
                         b"Content-Type: application/json\r\n"
                         b"Content-Length: -1\r\n\r\n")
            status_line = sock.makefile("rb").readline()
        assert status_line.split()[1] == b"400"
        assert daemon.queue.list_jobs() == []

    def test_draining_503(self, api, monkeypatch):
        """A draining daemon refuses a submit at once: 503 is not retried."""
        daemon, client = api
        assert client.drain() == {"status": "draining"}
        sent = []
        request_once = client._request_once

        def counting(*args, **kwargs):
            sent.append(args)
            return request_once(*args, **kwargs)

        monkeypatch.setattr(client, "_request_once", counting)
        with pytest.raises(ServiceError) as excinfo:
            client.submit(spec_dict())
        assert excinfo.value.code == 503
        assert len(sent) == 1


class TestHttpRateLimit:
    def test_burst_exhaustion_yields_429(self, tmp_path):
        daemon = CampaignDaemon(str(tmp_path), quiet=True,
                                rate_per_s=0.001, burst=1)
        server, thread, url = start_http(daemon)
        try:
            client = ServiceClient(url, timeout_s=10.0)
            client.submit(spec_dict())
            with pytest.raises(ServiceError) as excinfo:
                client.submit(spec_dict())
            assert excinfo.value.code == 429
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)


class TestServeForever:
    def test_serve_submit_wait_result_shutdown(self, tmp_path):
        """The full loop: serve_forever in a thread, submit over HTTP,
        worker executes, client.wait() observes done, shutdown exits."""
        state = str(tmp_path / "state")
        daemon = CampaignDaemon(state, port=0, quiet=True,
                                rate_per_s=1000.0, burst=1000)
        thread = threading.Thread(target=daemon.serve_forever, daemon=True)
        thread.start()
        endpoint = os.path.join(state, "endpoint.json")
        deadline = time.monotonic() + 15
        while not os.path.exists(endpoint):
            assert time.monotonic() < deadline, "daemon never bound"
            time.sleep(0.05)
        url = json.load(open(endpoint))["url"]
        client = ServiceClient(url, timeout_s=10.0)
        try:
            reference = result_summary(
                run_job(JobSpec.from_dict(spec_dict())))
            job = client.submit(spec_dict())
            finished = client.wait(job["id"], timeout_s=120, poll_s=0.1)
            assert finished["status"] == "done"
            assert bit_key(finished["result"]) == bit_key(reference)
        finally:
            daemon.request_shutdown()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert not os.path.exists(endpoint)

    def test_drain_exits_serve_loop_keeping_queue(self, tmp_path):
        state = str(tmp_path / "state")
        daemon = CampaignDaemon(state, port=0, quiet=True)
        # Pre-drain before the worker starts: nothing runs, and the
        # serve loop exits as soon as the worker sees the drain flag.
        daemon.queue.submit(spec_dict())
        daemon.drain()
        thread = threading.Thread(target=daemon.serve_forever, daemon=True)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        # The queued job survived the drain, ready for the next daemon.
        assert JobQueue(state).get("job-000001").status == "queued"

    def test_drain_leaves_no_pool_workers(self, tmp_path):
        """Pools outlive each job but not the daemon: after ``jobs=2``
        jobs the idle pool's workers are alive, and draining stops them
        (``shutdown_pools``) before serve returns."""
        daemon = CampaignDaemon(str(tmp_path / "state"), port=0, quiet=True)
        ids = [daemon.submit(spec_dict(jobs=2, seed=seed))["id"]
               for seed in (3, 4)]
        thread = threading.Thread(target=daemon.serve_forever, daemon=True)
        thread.start()
        deadline = time.monotonic() + 120
        while any(daemon.queue.get(job_id).status != "done"
                  for job_id in ids):
            assert time.monotonic() < deadline, "jobs never finished"
            time.sleep(0.05)
        workers = {child.pid for child in multiprocessing.active_children()}
        assert workers, "no warm pool survived the jobs"
        daemon.drain()
        thread.join(timeout=60)
        assert not thread.is_alive()
        alive = {child.pid for child in multiprocessing.active_children()}
        assert not workers & alive
