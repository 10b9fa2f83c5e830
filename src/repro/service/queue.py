"""Durable job queue and the submit-path token bucket.

The campaign daemon must survive its own death: every job is a JSON
file under ``<state_dir>/jobs/`` (written atomically via rename *and*
a parent-directory fsync, so the rename itself is crash-durable), and
each job's trials stream into a checkpoint journal under
``<state_dir>/journals/``.  Restarting the daemon reloads the job
files; a job that was ``running`` when the process died comes back as
``interrupted`` and is re-queued ahead of newer work, where the journal
``--resume`` path skips every already-completed trial — so a restarted
job folds to the same bit-identical result as an uninterrupted one.

Hardening on top of that contract:

* **Records are CRC-stamped.**  Each job file carries a ``crc32`` of
  its canonical JSON; a record that fails to parse *or* fails its
  checksum on reload is moved to ``<state_dir>/quarantine/`` — never
  trusted, never fatal.  Pre-CRC records (no stamp) remain loadable.
* **Persists are tiered.**  ``submit`` must be durable before the
  client hears 201, so its persist propagates errors; lifecycle
  persists (claim, progress, finish) are best-effort — a transient
  ``ENOSPC`` degrades to a warning and a stale-but-valid record, which
  the crash-recovery path already knows how to reconcile.
* **Jobs carry an idempotency key.**  It makes retried submits safe
  (the daemon returns the existing job instead of double-enqueueing).

:class:`TokenBucket` guards the submit endpoint: campaigns are heavy,
so a misbehaving client gets ``429`` long before it can pile up real
work.  The clock is injectable for tests.
"""

from __future__ import annotations

import errno
import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..harness import faultrig
from ..harness.fsutil import durable_replace, stamp_crc, verify_crc

__all__ = ["Job", "JobQueue", "TokenBucket", "JOB_STATUSES"]

#: Job lifecycle: ``queued`` -> ``running`` -> one of the terminal
#: states (``done``, ``failed``, ``cancelled``) — or back through
#: ``interrupted`` (daemon stopped mid-job) to ``running`` on restart.
JOB_STATUSES = ("queued", "running", "done", "failed", "cancelled",
                "interrupted")

_ACTIVE = ("queued", "running", "interrupted")


class TokenBucket:
    """Classic token bucket; thread-safe, injectable monotonic clock."""

    def __init__(self, rate_per_s: float, burst: int,
                 clock: Callable[[], float] = time.monotonic):
        if rate_per_s <= 0:
            raise ValueError("rate_per_s must be positive")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.rate_per_s = rate_per_s
        self.burst = burst
        self._clock = clock
        self._tokens = float(burst)
        self._last = clock()
        self._lock = threading.Lock()

    def try_acquire(self) -> bool:
        """Take one token; False means the caller should be throttled."""
        with self._lock:
            now = self._clock()
            self._tokens = min(
                float(self.burst),
                self._tokens + (now - self._last) * self.rate_per_s)
            self._last = now
            if self._tokens < 1.0:
                return False
            self._tokens -= 1.0
            return True

    def retry_after_s(self) -> float:
        """Seconds until one token will be available (0.0 = now).

        The basis of the ``Retry-After`` header on 429 responses: an
        honest client that waits this long will find a token (absent
        competing traffic).
        """
        with self._lock:
            now = self._clock()
            tokens = min(
                float(self.burst),
                self._tokens + (now - self._last) * self.rate_per_s)
            if tokens >= 1.0:
                return 0.0
            return (1.0 - tokens) / self.rate_per_s


@dataclass
class Job:
    """One queued campaign and its lifecycle bookkeeping."""

    id: str
    spec: dict
    status: str = "queued"
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: :func:`repro.service.jobs.result_summary` of the finished (or
    #: partially finished, for cancelled/interrupted) campaign.
    result: Optional[dict] = None
    error: Optional[str] = None
    #: Trials journaled so far, refreshed as shards complete.
    progress_trials: int = 0
    #: Times this job entered ``running`` (1 = never restarted).
    attempts: int = 0
    #: Client-supplied submit key: resubmits with the same key return
    #: this job instead of enqueueing a duplicate.
    idempotency_key: Optional[str] = None
    #: In-memory only: set to make the running campaign drain at the
    #: next shard boundary.
    cancel_event: threading.Event = field(
        default_factory=threading.Event, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "spec": self.spec,
            "status": self.status,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "result": self.result,
            "error": self.error,
            "progress_trials": self.progress_trials,
            "attempts": self.attempts,
            "idempotency_key": self.idempotency_key,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "Job":
        """Load a record.  Keys not read here are ignored, so records
        that still carry ``tenant``, ``granted_workers`` or
        ``preemptions`` (written while the daemon had tenants) load."""
        return cls(
            id=str(obj["id"]),
            spec=dict(obj["spec"]),
            status=obj.get("status", "queued"),
            submitted_at=float(obj.get("submitted_at", 0.0)),
            started_at=obj.get("started_at"),
            finished_at=obj.get("finished_at"),
            result=obj.get("result"),
            error=obj.get("error"),
            progress_trials=int(obj.get("progress_trials", 0)),
            attempts=int(obj.get("attempts", 0)),
            idempotency_key=obj.get("idempotency_key"),
        )


class JobQueue:
    """Persistent FIFO of campaign jobs under one state directory."""

    def __init__(self, state_dir: str):
        self.state_dir = state_dir
        self.jobs_dir = os.path.join(state_dir, "jobs")
        self.journals_dir = os.path.join(state_dir, "journals")
        self.quarantine_dir = os.path.join(state_dir, "quarantine")
        os.makedirs(self.jobs_dir, exist_ok=True)
        os.makedirs(self.journals_dir, exist_ok=True)
        self._lock = threading.RLock()
        self._jobs: Dict[str, Job] = {}
        self._next_serial = 1
        #: Records moved aside on reload (torn/corrupt); file names.
        self.quarantined: List[str] = []
        self._load()

    # -- persistence ---------------------------------------------------------

    def _job_path(self, job_id: str) -> str:
        return os.path.join(self.jobs_dir, f"{job_id}.json")

    def journal_path(self, job_id: str) -> str:
        """Checkpoint journal backing a job's campaign trials."""
        return os.path.join(self.journals_dir, f"{job_id}.jsonl")

    def _load(self) -> None:
        """Reload persisted jobs; a dead daemon's running job resumes.

        ``running`` on disk means the previous daemon died mid-job (a
        clean stop persists ``interrupted`` first); both re-queue, and
        the journal resume path keeps the rerun bit-identical.  A record
        that fails to parse or fails its CRC is *quarantined* — moved to
        ``<state_dir>/quarantine/`` so the corruption stays inspectable
        without ever being trusted or crashing the reload.
        """
        for name in sorted(os.listdir(self.jobs_dir)):
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.jobs_dir, name)
            try:
                with open(path) as fh:
                    obj = json.load(fh)
                if not isinstance(obj, dict) or not verify_crc(obj):
                    raise ValueError("job record failed its CRC check")
                job = Job.from_dict(obj)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                self._quarantine(path, exc)
                continue
            if job.status == "running":
                job.status = "interrupted"
                self._persist(job, required=False)
            self._jobs[job.id] = job
            serial = _job_serial(job.id)
            if serial is not None:
                self._next_serial = max(self._next_serial, serial + 1)

    def _quarantine(self, path: str, reason: Exception) -> None:
        """Move a torn/corrupt record aside; never fatal."""
        os.makedirs(self.quarantine_dir, exist_ok=True)
        name = os.path.basename(path)
        try:
            durable_replace(path, os.path.join(self.quarantine_dir, name))
        except OSError:
            return
        self.quarantined.append(name)
        print(f"  [jobqueue] quarantined torn job record {name} "
              f"({type(reason).__name__}: {reason})",
              file=sys.stderr, flush=True)

    def _persist(self, job: Job, required: bool = True) -> None:
        """Atomic, CRC-stamped, rename-durable write of one job record.

        A crash mid-persist leaves the previous state; the parent
        directory is fsynced after the rename so the rename itself
        survives power loss.  ``required=False`` marks lifecycle
        persists (claim/progress/finish) where an I/O error — a full
        disk, say — degrades to a warning and a stale record, which the
        existing crash-recovery path reconciles; submit-time persists
        stay ``required`` because the client is about to be promised
        durability.
        """
        try:
            fired = faultrig.should_fire("enospc")
            if fired is not None:
                raise OSError(errno.ENOSPC,
                              "injected: no space left on device")
            path = self._job_path(job.id)
            tmp = path + ".tmp"
            with open(tmp, "w") as fh:
                json.dump(stamp_crc(job.to_dict()), fh,
                          sort_keys=True, indent=1)
                fh.flush()
                os.fsync(fh.fileno())
            durable_replace(tmp, path)
        except OSError as exc:
            if required:
                raise
            print(f"  [jobqueue] persist of {job.id} failed "
                  f"({exc}); record is stale until the next update",
                  file=sys.stderr, flush=True)

    # -- queue operations ----------------------------------------------------

    def submit(self, spec: dict,
               idempotency_key: Optional[str] = None) -> Job:
        with self._lock:
            job_id = f"job-{self._next_serial:06d}"
            job = Job(id=job_id, spec=spec, submitted_at=time.time(),
                      idempotency_key=idempotency_key)
            self._persist(job)  # required: the client is promised 201
            # Only a durable job takes its serial: a failed persist
            # leaves no gap in the ids.
            self._next_serial += 1
            self._jobs[job_id] = job
            return job

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def find_idempotent(self, key: str) -> Optional[Job]:
        """The existing job submitted under ``key``, if any."""
        with self._lock:
            for job in self._jobs.values():
                if job.idempotency_key == key:
                    return job
            return None

    def list_jobs(self) -> List[Job]:
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: j.id)

    def claim_next(self) -> Optional[Job]:
        """Pop the next runnable job: interrupted jobs first (they
        predate the restart and hold journal state), then queued, FIFO
        within each."""
        with self._lock:
            candidates = [j for j in self._jobs.values()
                          if j.status in ("queued", "interrupted")]
            if not candidates:
                return None
            job = min(candidates,
                      key=lambda j: (j.status != "interrupted", j.id))
            job.status = "running"
            job.started_at = time.time()
            job.attempts += 1
            self._persist(job, required=False)
            return job

    def update(self, job: Job) -> None:
        """Persist a mutated job record (best-effort; see _persist)."""
        with self._lock:
            self._persist(job, required=False)

    def request_cancel(self, job_id: str) -> Optional[Job]:
        """Cancel a job: queued dies now, running drains at next shard."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            if job.status in ("queued", "interrupted"):
                job.status = "cancelled"
                job.finished_at = time.time()
                self._persist(job, required=False)
            elif job.status == "running":
                job.cancel_event.set()
            return job

    def counts(self) -> Dict[str, int]:
        with self._lock:
            out = {status: 0 for status in JOB_STATUSES}
            for job in self._jobs.values():
                out[job.status] = out.get(job.status, 0) + 1
            return out

    def has_active(self) -> bool:
        with self._lock:
            return any(j.status in _ACTIVE for j in self._jobs.values())


def _job_serial(job_id: str) -> Optional[int]:
    if not job_id.startswith("job-"):
        return None
    try:
        return int(job_id[4:])
    except ValueError:
        return None
