"""The campaign-job daemon: one FIFO of campaigns behind a local HTTP API.

``python -m repro serve`` runs one of these.  It owns three things:

* a durable :class:`~repro.service.queue.JobQueue` under ``--state-dir``
  (CRC-stamped job records + per-job checkpoint journals; torn records
  are quarantined on reload, never trusted),
* a scheduler thread that claims the next job (interrupted jobs first,
  then FIFO) and runs it to the end before claiming another — one
  campaign at a time, with ``min(spec.jobs, --worker-budget)`` pool
  workers, and
* a :class:`ThreadingHTTPServer` (see :mod:`repro.service.api`) for
  ``submit``/``status``/``result``/``cancel``/``drain`` plus a
  ``/healthz`` endpoint surfacing the current job, queue depth, live
  worker counts against the budget, and watchdog stats.

Robustness contract:

* **Campaign pools never fork a threaded daemon.**  The daemon holds
  HTTP threads, so campaigns default to the ``forkserver`` start method
  (``spawn`` where unavailable) instead of inheriting the fork default.
  Pools are kept warm from one job to the next (see
  :mod:`repro.harness.parallel`), so only the first job of a given
  worker count pays worker start-up; drain and stop shut the idle pools
  down before the daemon exits.
* **Every job checkpoints.**  Trials stream into
  ``<state_dir>/journals/<job>.jsonl`` as shards complete; cancel,
  daemon shutdown, and daemon death all leave a resumable journal.
* **Restart resumes.**  On startup, jobs found ``running`` (daemon
  died) or ``interrupted`` (daemon stopped) re-queue ahead of newer
  work and resume from their journal — the finished result is
  bit-identical to an uninterrupted run because trial seeds derive from
  ``(base_seed, index)``.
* **Stop is graceful.**  SIGTERM/SIGINT ask the running campaign to
  stop at the next shard boundary (journaled, marked ``interrupted``),
  then the daemon exits.  ``POST /drain`` instead refuses new work,
  lets the running job *finish*, and exits leaving the rest queued.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time
from typing import Dict, List, Optional

from ..harness import faultrig
from ..harness.fsutil import durable_replace
from ..harness.parallel import shutdown_pools
from ..harness.watchdog import WatchdogStats
from .jobs import JobSpec, result_summary, run_job
from .queue import Job, JobQueue, TokenBucket

__all__ = ["DEFAULT_PORT", "CampaignDaemon", "IdempotencyConflict"]

DEFAULT_PORT = 8642


class IdempotencyConflict(Exception):
    """A submit reused an idempotency key for a different spec (409)."""


def _default_start_method() -> str:
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return "forkserver" if "forkserver" in methods else "spawn"


def _default_worker_budget() -> int:
    return max(4, os.cpu_count() or 1)


class CampaignDaemon:
    """Queue + scheduler thread + HTTP front-end; one per state dir."""

    def __init__(self, state_dir: str,
                 host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                 rate_per_s: float = 2.0, burst: int = 10,
                 start_method: Optional[str] = None,
                 watchdog_poll_s: Optional[float] = None,
                 quiet: bool = False,
                 worker_budget: Optional[int] = None):
        # Service-layer fault directives (torn-write/enospc/slow-client)
        # fire inside *this* process, so the rig must be loaded here, not
        # just in pool workers.
        faultrig.load_directives()
        if worker_budget is not None and worker_budget < 1:
            raise ValueError("worker budget must be >= 1")
        self.queue = JobQueue(state_dir)
        self.host = host
        self.port = port
        self.bucket = TokenBucket(rate_per_s, burst)
        self.stats = WatchdogStats()
        self.start_method = start_method or _default_start_method()
        self.watchdog_poll_s = watchdog_poll_s
        self.quiet = quiet
        self.started_at = time.time()
        self.worker_budget = (worker_budget if worker_budget is not None
                              else _default_worker_budget())

        self._lock = threading.Lock()
        self._current: Optional[Job] = None
        self._workers_live = 0
        self._workers_live_peak = 0
        self._draining = threading.Event()
        self._shutdown = threading.Event()
        self._wake = threading.Event()
        self._scheduler_thread = threading.Thread(
            target=self._scheduler_loop, name="campaignd-sched", daemon=True)

    # -- observability -------------------------------------------------------

    def log(self, message: str) -> None:
        if not self.quiet:
            print(f"  [campaignd] {message}", file=sys.stderr, flush=True)

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def health(self) -> dict:
        with self._lock:
            current = self._current.id if self._current else None
            live = self._workers_live
            peak = self._workers_live_peak
        counts = self.queue.counts()
        return {
            "status": "draining" if self.draining else "ok",
            "pid": os.getpid(),
            "uptime_s": round(time.time() - self.started_at, 3),
            "state_dir": self.queue.state_dir,
            "start_method": self.start_method,
            "current_job": current,
            "jobs": counts,
            "queue_depth": counts["queued"] + counts["interrupted"],
            "quarantined_records": len(self.queue.quarantined),
            "workers": {
                "budget": self.worker_budget,
                "live": live,
                "live_peak": peak,
            },
            "watchdog": self.stats.snapshot(),
        }

    # -- API surface (shared by HTTP handler and direct callers) -------------

    def submit(self, spec_obj: dict,
               idempotency_key: Optional[str] = None) -> dict:
        """Validate and enqueue a job spec.

        Raises ``ValueError`` for an invalid spec.  With an
        ``idempotency_key`` used before, the existing job is returned
        (marked ``"replayed": True``) when the spec matches, and
        :class:`IdempotencyConflict` is raised when it does not — a
        retried submit can never double-enqueue.
        """
        if self.draining:
            raise ValueError("daemon is draining; not accepting new jobs")
        spec = JobSpec.from_dict(spec_obj)
        spec.validate()
        if idempotency_key:
            existing = self.queue.find_idempotent(idempotency_key)
            if existing is not None:
                # Compared as specs: a record persisted before a field
                # was retired still matches a resubmit of the same job.
                if JobSpec.from_dict(existing.spec) == spec:
                    self.log(f"{existing.id}: idempotent replay "
                             f"(key {idempotency_key!r})")
                    return dict(existing.to_dict(), replayed=True)
                raise IdempotencyConflict(
                    f"idempotency key {idempotency_key!r} was already "
                    f"used for a different spec (job {existing.id})")
        job = self.queue.submit(spec.to_dict(),
                                idempotency_key=idempotency_key)
        self.log(f"{job.id}: queued "
                 f"({spec.benchmark}/{spec.scheduler} x{spec.trials})")
        self._wake.set()
        return job.to_dict()

    def job_status(self, job_id: str) -> Optional[dict]:
        job = self.queue.get(job_id)
        return None if job is None else job.to_dict()

    def list_jobs(self) -> List[dict]:
        return [job.to_dict() for job in self.queue.list_jobs()]

    def cancel(self, job_id: str) -> Optional[dict]:
        job = self.queue.request_cancel(job_id)
        if job is not None:
            self.log(f"{job_id}: cancel requested (status {job.status})")
        return None if job is None else job.to_dict()

    def drain(self) -> None:
        """Refuse new work; finish the running job; then exit serve."""
        if not self._draining.is_set():
            self.log("drain requested: finishing the running job, "
                     "leaving the rest queued")
        self._draining.set()
        self._wake.set()

    def request_shutdown(self) -> None:
        """Stop now: interrupt the running job at its next shard."""
        self._shutdown.set()
        self._wake.set()

    # -- job execution -------------------------------------------------------

    def _on_pool_change(self, delta: int) -> None:
        with self._lock:
            self._workers_live += delta
            self._workers_live_peak = max(self._workers_live_peak,
                                          self._workers_live)

    def process_one(self) -> Optional[dict]:
        """Claim and run the next job synchronously (test/CLI helper)."""
        job = self.queue.claim_next()
        if job is None:
            return None
        self._execute(job)
        return job.to_dict()

    def _scheduler_loop(self) -> None:
        """Run jobs one at a time until shutdown or drain."""
        while not self._shutdown.is_set() and not self._draining.is_set():
            job = self.queue.claim_next()
            if job is not None:
                self._execute(job)
                continue
            self._wake.wait(timeout=0.1)
            self._wake.clear()

    def _execute(self, job: Job) -> None:
        with self._lock:
            self._current = job
        try:
            spec = JobSpec.from_dict(job.spec)
            # Re-validate: the record may have been written by an older
            # daemon with laxer rules.
            spec.validate()
            workers = min(spec.jobs, self.worker_budget)
            checkpoint = self.queue.journal_path(job.id)
            resume = os.path.exists(checkpoint)
            self.log(f"{job.id}: running with {workers} worker(s) "
                     f"(attempt {job.attempts}"
                     + (", resuming journal" if resume else "") + ")")

            last_persist = [0.0]

            def on_progress(progress) -> None:
                job.progress_trials = progress.completed_trials
                now = time.monotonic()
                if now - last_persist[0] > 1.0:
                    last_persist[0] = now
                    self.queue.update(job)
                if job.cancel_event.is_set() or self._shutdown.is_set():
                    raise KeyboardInterrupt

            result = run_job(
                spec, checkpoint=checkpoint, resume=resume,
                progress=on_progress, watchdog_stats=self.stats,
                start_method=self.start_method,
                jobs_override=workers,
                on_pool_change=self._on_pool_change)
        except ValueError as exc:
            job.status = "failed"
            job.error = str(exc)
            job.finished_at = time.time()
        except KeyboardInterrupt:
            # Interrupted before the first shard completed; the journal
            # still holds whatever was already durable.
            job.status = "cancelled" if job.cancel_event.is_set() \
                else "interrupted"
            job.finished_at = time.time() \
                if job.status == "cancelled" else None
        except Exception as exc:  # noqa: BLE001 - a job must never kill us
            job.status = "failed"
            job.error = f"{type(exc).__name__}: {exc}"
            job.finished_at = time.time()
        else:
            job.result = result_summary(result)
            job.progress_trials = result.completed
            if result.interrupted:
                job.status = "cancelled" if job.cancel_event.is_set() \
                    else "interrupted"
                job.finished_at = time.time() \
                    if job.status == "cancelled" else None
            else:
                job.status = "done"
                job.finished_at = time.time()
        finally:
            self.queue.update(job)
            with self._lock:
                self._current = None
            self.log(f"{job.id}: {job.status}"
                     + (f" ({job.error})" if job.error else ""))

    # -- serving -------------------------------------------------------------

    def serve_forever(self) -> None:
        """Bind, serve, and supervise until shutdown or drain."""
        from .api import make_server  # the handler imports this module

        server = make_server(self, self.host, self.port)
        self.port = server.server_address[1]
        self._write_endpoint_file()
        http_thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.2},
            name="campaignd-http", daemon=True)
        http_thread.start()
        self._scheduler_thread.start()
        self.log(f"listening on http://{self.host}:{self.port} "
                 f"(state: {self.queue.state_dir}, "
                 f"start method: {self.start_method}, "
                 f"worker budget: {self.worker_budget})")

        previous = self._install_signal_handlers()
        try:
            while not self._shutdown.wait(timeout=0.2):
                if not self._scheduler_thread.is_alive():
                    break  # drain completed
        finally:
            self._restore_signal_handlers(previous)
            self._shutdown.set()
            self._wake.set()
            # A running campaign stops at its next shard boundary via
            # the progress hook; wait for it to journal.
            self._scheduler_thread.join()
            # Campaign pools outlive their jobs; none may outlive us.
            shutdown_pools()
            server.shutdown()
            server.server_close()
            self._remove_endpoint_file()
            self.log("stopped")

    def _endpoint_path(self) -> str:
        return os.path.join(self.queue.state_dir, "endpoint.json")

    def _write_endpoint_file(self) -> None:
        """Advertise the bound address (useful with ``--port 0``).

        Written via atomic rename + directory fsync so a discovery
        client never reads a torn endpoint file, even across a crash.
        """
        path = self._endpoint_path()
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump({"url": f"http://{self.host}:{self.port}",
                       "pid": os.getpid()}, fh)
            fh.flush()
            os.fsync(fh.fileno())
        durable_replace(tmp, path)

    def _remove_endpoint_file(self) -> None:
        try:
            os.unlink(self._endpoint_path())
        except OSError:
            pass

    def _install_signal_handlers(self) -> Dict[int, object]:
        """SIGTERM/SIGINT -> graceful stop (main thread only)."""
        if threading.current_thread() is not threading.main_thread():
            return {}

        def handler(signum, frame):
            self.log(f"received {signal.Signals(signum).name}; stopping")
            self.request_shutdown()

        return {signum: signal.signal(signum, handler)
                for signum in (signal.SIGTERM, signal.SIGINT)}

    @staticmethod
    def _restore_signal_handlers(previous: Dict[int, object]) -> None:
        for signum, old in previous.items():
            signal.signal(signum, old)
