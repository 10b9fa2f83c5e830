"""Service admission and durability: idempotency, CRC records, health.

Covers the idempotent-submit paths (``200`` replay, ``409`` conflict),
the CRC/quarantine durability layer, and the ``/healthz`` load fields —
all without real campaign work, so this file stays fast.
"""

import json
import os
import threading

import pytest

from repro.harness.fsutil import crc_of_obj, stamp_crc, verify_crc
from repro.service import (CampaignDaemon, JobQueue, ServiceClient,
                           ServiceError)
from repro.service.api import make_server


def spec_dict(**overrides):
    spec = {"benchmark": "dekker", "scheduler": "naive", "trials": 16,
            "seed": 3, "jobs": 1}
    spec.update(overrides)
    return spec


# -- CRC / durability helpers --------------------------------------------------


class TestCrcStamping:
    def test_stamp_and_verify_round_trip(self):
        obj = {"a": 1, "b": [2, 3]}
        stamped = stamp_crc(obj)
        assert verify_crc(stamped)
        assert stamped["crc32"] == crc_of_obj(obj)

    def test_tampered_object_fails(self):
        stamped = stamp_crc({"a": 1})
        stamped["a"] = 2
        assert not verify_crc(stamped)

    def test_unstamped_object_accepted(self):
        assert verify_crc({"legacy": True})

    def test_garbage_crc_fails(self):
        assert not verify_crc({"a": 1, "crc32": "nonsense"})


class TestQuarantine:
    def test_corrupt_record_quarantined_on_reload(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        good = queue.submit(spec_dict())
        bad = queue.submit(spec_dict(seed=4))
        # Bit-rot the second record *without* breaking the JSON, so only
        # the CRC can catch it.
        path = os.path.join(queue.jobs_dir, f"{bad.id}.json")
        record = json.load(open(path))
        record["spec"]["seed"] = 999
        with open(path, "w") as fh:
            json.dump(record, fh)

        reloaded = JobQueue(str(tmp_path))
        assert [j.id for j in reloaded.list_jobs()] == [good.id]
        assert reloaded.quarantined == [f"{bad.id}.json"]
        assert os.path.exists(
            os.path.join(reloaded.quarantine_dir, f"{bad.id}.json"))
        assert not os.path.exists(path)

    def test_pre_crc_record_still_loads(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        job = queue.submit(spec_dict())
        path = os.path.join(queue.jobs_dir, f"{job.id}.json")
        record = json.load(open(path))
        del record["crc32"]
        with open(path, "w") as fh:
            json.dump(record, fh)
        reloaded = JobQueue(str(tmp_path))
        assert reloaded.get(job.id) is not None
        assert reloaded.quarantined == []


# -- HTTP idempotency ----------------------------------------------------------


def start_http(daemon):
    server = make_server(daemon, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.1}, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_address[1]}"
    return server, thread, url


@pytest.fixture
def api(tmp_path):
    """A daemon behind HTTP (no scheduler thread running)."""
    daemon = CampaignDaemon(str(tmp_path / "state"), quiet=True,
                            rate_per_s=1000.0, burst=1000)
    server, thread, url = start_http(daemon)
    yield daemon, ServiceClient(url, timeout_s=10.0, retries=0)
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


class TestHttpIdempotency:
    def test_same_key_same_spec_replays(self, api):
        daemon, client = api
        first = client.submit(spec_dict(), idempotency_key="k1")
        replay = client.submit(spec_dict(), idempotency_key="k1")
        assert replay["id"] == first["id"]
        assert len(client.list_jobs()) == 1

    def test_same_key_different_spec_409(self, api):
        daemon, client = api
        client.submit(spec_dict(), idempotency_key="k1")
        with pytest.raises(ServiceError) as excinfo:
            client.submit(spec_dict(seed=9), idempotency_key="k1")
        assert excinfo.value.code == 409
        assert len(client.list_jobs()) == 1


class TestHealthExtensions:
    def test_health_exposes_load_and_budget(self, tmp_path):
        daemon = CampaignDaemon(str(tmp_path), quiet=True, worker_budget=4)
        daemon.submit(spec_dict())
        health = daemon.health()
        assert health["queue_depth"] == 1
        assert health["jobs"]["queued"] == 1
        assert health["current_job"] is None
        assert health["workers"] == {"budget": 4, "live": 0,
                                     "live_peak": 0}
        assert health["quarantined_records"] == 0
        for gone in ("auth", "tenants", "running_jobs"):
            assert gone not in health

    def test_worker_budget_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="worker budget"):
            CampaignDaemon(str(tmp_path), quiet=True, worker_budget=0)
