"""The campaign-job daemon: a multi-tenant fleet behind a local HTTP API.

``python -m repro serve`` runs one of these.  It owns four things:

* a durable :class:`~repro.service.queue.JobQueue` under ``--state-dir``
  (CRC-stamped job records + per-job checkpoint journals; torn records
  are quarantined on reload, never trusted),
* an admission layer (:mod:`repro.service.tenants`): with a
  ``--tenants`` file every request must carry a bearer token, and
  per-tenant rate limits, queued-job quotas, and trial budgets gate the
  submit path; every request is appended to the audit log,
* a **concurrent job scheduler** (:mod:`repro.service.scheduler`):
  up to ``--max-concurrent-jobs`` campaigns run at once, each holding a
  worker *grant* carved from the global ``--worker-budget`` with
  weighted-fair, deficit-carrying selection across tenants — and
  shard-boundary preemption when a tenant would otherwise starve, and
* a :class:`ThreadingHTTPServer` (see :mod:`repro.service.api`) for
  ``submit``/``status``/``result``/``cancel``/``drain`` plus a
  ``/healthz`` endpoint surfacing queue depth, per-tenant load, live
  worker counts against the budget, and watchdog stats.

Robustness contract:

* **Campaign pools never fork a threaded daemon.**  The daemon holds
  HTTP threads, so campaigns default to the ``forkserver`` start method
  (``spawn`` where unavailable) instead of inheriting the fork default.
  Pools are kept warm from one job to the next (see
  :mod:`repro.harness.parallel`), so only the first job of a given
  worker grant pays worker start-up; drain and stop shut the idle pools
  down before the daemon exits.
* **Every job checkpoints.**  Trials stream into
  ``<state_dir>/journals/<job>.jsonl`` as shards complete; cancel,
  preemption, daemon shutdown, and daemon death all leave a resumable
  journal.
* **Restart resumes.**  On startup, jobs found ``running`` (daemon
  died) or ``interrupted`` (daemon stopped, or the job yielded) re-queue
  ahead of newer work and resume from their journal — the finished
  result is bit-identical to an uninterrupted run because trial seeds
  derive from ``(base_seed, index)``.
* **Preemption is invisible in results.**  A job asked to yield drains
  at its next shard boundary exactly like a graceful shutdown; only
  its ``preemptions`` counter betrays that it happened.
* **Stop is graceful.**  SIGTERM/SIGINT ask every running campaign to
  stop at the next shard boundary (journaled, marked ``interrupted``),
  then the daemon exits.  ``POST /drain`` instead refuses new work,
  lets the running jobs *finish*, and exits leaving the rest queued.
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
from .api import make_server
from .jobs import JobSpec, result_summary, run_job
from .queue import Job, JobQueue, TokenBucket
from .scheduler import JobScheduler, WorkerBudget
from .tenants import (ANONYMOUS_TENANT, AdmissionController, AdmissionDenied,
                      AuditLog, TenantRegistry)

__all__ = ["DEFAULT_PORT", "CampaignDaemon"]

DEFAULT_PORT = 8642


def _default_start_method() -> str:
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return "forkserver" if "forkserver" in methods else "spawn"


def _default_worker_budget() -> int:
    return max(4, os.cpu_count() or 1)


class _JobRun:
    """One running job's thread, worker grant, and private stats."""

    __slots__ = ("job", "grant", "stats", "thread")

    def __init__(self, job: Job, grant: int):
        self.job = job
        self.grant = grant
        self.stats = WatchdogStats()
        self.thread: Optional[threading.Thread] = None


class CampaignDaemon:
    """Queue + scheduler + HTTP front-end; one instance per state dir."""

    def __init__(self, state_dir: str,
                 host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                 rate_per_s: float = 2.0, burst: int = 10,
                 start_method: Optional[str] = None,
                 watchdog_poll_s: Optional[float] = None,
                 quiet: bool = False,
                 tenants_file: Optional[str] = None,
                 audit_log_path: Optional[str] = None,
                 worker_budget: Optional[int] = None,
                 max_concurrent_jobs: int = 2):
        # Service-layer fault directives (torn-write/enospc/slow-client)
        # fire inside *this* process, so the rig must be loaded here, not
        # just in pool workers.
        faultrig.load_directives()
        self.queue = JobQueue(state_dir)
        self.host = host
        self.port = port
        self.bucket = TokenBucket(rate_per_s, burst)
        self.stats = WatchdogStats()
        self.start_method = start_method or _default_start_method()
        self.watchdog_poll_s = watchdog_poll_s
        self.quiet = quiet
        self.started_at = time.time()

        self.registry = (TenantRegistry.load(tenants_file)
                         if tenants_file else None)
        self.admission = AdmissionController(self.registry)
        self.audit = AuditLog(audit_log_path)
        if self.registry is not None:
            # Rebuild trial-budget spend from the durable job records so
            # bouncing the daemon cannot reset a tenant's quota.
            for tenant_id in self.registry.tenants:
                spent = self.queue.trials_submitted_for(tenant_id)
                if spent:
                    self.admission.charge_trials(tenant_id, spent)

        self.budget = WorkerBudget(worker_budget
                                   if worker_budget is not None
                                   else _default_worker_budget())
        self.scheduler = JobScheduler(
            self.budget,
            weight_of=(self.registry.weight if self.registry is not None
                       else (lambda _t: 1.0)),
            max_concurrent_jobs=max_concurrent_jobs,
            tenant_job_cap=self._tenant_job_cap)

        self._lock = threading.Lock()
        self._runs: Dict[str, _JobRun] = {}
        self._workers_live = 0
        self._workers_live_peak = 0
        self._draining = threading.Event()
        self._shutdown = threading.Event()
        self._wake = threading.Event()
        self._scheduler_thread = threading.Thread(
            target=self._scheduler_loop, name="campaignd-sched", daemon=True)

    def _tenant_job_cap(self, tenant_id: str) -> int:
        if self.registry is None:
            return 1 << 30
        config = self.registry.get(tenant_id)
        return config.max_concurrent_jobs if config is not None else 1 << 30

    # -- observability -------------------------------------------------------

    def log(self, message: str) -> None:
        if not self.quiet:
            print(f"  [campaignd] {message}", file=sys.stderr, flush=True)

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def _watchdog_snapshot(self) -> dict:
        """Fleet totals plus the live counters of running jobs."""
        snap = self.stats.snapshot()
        with self._lock:
            live = [run.stats for run in self._runs.values()]
        for stats in live:
            snap["scans"] += stats.scans
            snap["hang_kills"] += stats.hang_kills
            snap["rss_kills"] += stats.rss_kills
        return snap

    def health(self) -> dict:
        with self._lock:
            running = sorted(self._runs)
            live = self._workers_live
            peak = self._workers_live_peak
        counts = self.queue.counts()
        budget_total = self.budget.total
        granted = self.budget.used
        return {
            "status": "draining" if self.draining else "ok",
            "pid": os.getpid(),
            "uptime_s": round(time.time() - self.started_at, 3),
            "state_dir": self.queue.state_dir,
            "start_method": self.start_method,
            "auth": self.admission.enabled,
            "current_job": running[0] if running else None,
            "running_jobs": running,
            "jobs": counts,
            "queue_depth": counts["queued"] + counts["interrupted"],
            "tenants": self.queue.tenant_counts(),
            "quarantined_records": len(self.queue.quarantined),
            "workers": {
                "budget": budget_total,
                "granted": granted,
                "live": live,
                "live_peak": peak,
                "utilization_pct": round(100.0 * granted / budget_total, 1),
            },
            "watchdog": self._watchdog_snapshot(),
        }

    # -- API surface (shared by HTTP handler and direct callers) -------------

    def submit(self, spec_obj: dict, tenant: str = ANONYMOUS_TENANT,
               idempotency_key: Optional[str] = None) -> dict:
        """Validate, admit, and enqueue a job spec.

        Raises ``ValueError`` for an invalid spec and
        :class:`AdmissionDenied` for a quota/rate/conflict refusal.  With
        an ``idempotency_key`` the tenant has used before, the existing
        job is returned (marked ``"replayed": True``) when the spec
        matches, and a 409 :class:`AdmissionDenied` is raised when it
        does not — a retried submit can never double-enqueue.
        """
        if self.draining:
            raise ValueError("daemon is draining; not accepting new jobs")
        spec = JobSpec.from_dict(spec_obj)
        spec.validate()
        if idempotency_key:
            existing = self.queue.find_idempotent(tenant, idempotency_key)
            if existing is not None:
                if existing.spec == spec.to_dict():
                    self.log(f"{existing.id}: idempotent replay "
                             f"(key {idempotency_key!r})")
                    return dict(existing.to_dict(), replayed=True)
                raise AdmissionDenied(
                    409,
                    f"idempotency key {idempotency_key!r} was already "
                    f"used for a different spec (job {existing.id})")
        self.admission.check_submit(
            tenant, spec.trials, self.queue.queued_for(tenant))
        job = self.queue.submit(spec.to_dict(), tenant=tenant,
                                idempotency_key=idempotency_key)
        self.log(f"{job.id}: queued by {tenant} "
                 f"({spec.benchmark}/{spec.scheduler} x{spec.trials})")
        self._wake.set()
        return job.to_dict()

    def job_status(self, job_id: str) -> Optional[dict]:
        job = self.queue.get(job_id)
        return None if job is None else job.to_dict()

    def list_jobs(self, tenant: Optional[str] = None) -> List[dict]:
        return [job.to_dict() for job in self.queue.list_jobs(tenant)]

    def cancel(self, job_id: str) -> Optional[dict]:
        job = self.queue.request_cancel(job_id)
        if job is not None:
            self.log(f"{job_id}: cancel requested (status {job.status})")
        return None if job is None else job.to_dict()

    def drain(self) -> None:
        """Refuse new work; finish the running jobs; then exit serve."""
        if not self._draining.is_set():
            self.log("drain requested: finishing running jobs, "
                     "leaving the rest queued")
        self._draining.set()
        self._wake.set()

    def request_shutdown(self) -> None:
        """Stop now: interrupt running jobs at their next shard."""
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
        """Start jobs against the budget until shutdown or drained."""
        while True:
            self._reap()
            if self._shutdown.is_set():
                return  # serve_forever joins the still-running jobs
            if self._draining.is_set():
                with self._lock:
                    drained = not self._runs
                if drained:
                    return  # serve loop notices and exits
            elif self._start_next():
                continue  # a start happened; try to pack more in
            self._wake.wait(timeout=0.1)
            self._wake.clear()

    def _reap(self) -> None:
        with self._lock:
            finished = [job_id for job_id, run in self._runs.items()
                        if run.thread is not None
                        and not run.thread.is_alive()]
            runs = [self._runs.pop(job_id) for job_id in finished]
        for run in runs:
            run.thread.join()

    def _start_next(self) -> bool:
        """Ask the policy for one start (or one preemption); True if a
        job was actually launched."""
        with self._lock:
            running_jobs = [run.job for run in self._runs.values()]
        runnable = self.queue.runnable()
        decision = self.scheduler.next_start(runnable, running_jobs)
        if decision is None:
            victim = self.scheduler.preemption_target(
                runnable, running_jobs)
            if victim is not None:
                victim.preemptions += 1
                victim.yield_event.set()
                self.log(f"{victim.id}: yielding {victim.granted_workers} "
                         f"worker(s) at the next shard boundary "
                         f"(fair-share preemption)")
            return False
        job, grant = decision
        if not self.budget.acquire(grant):
            return False  # lost a race with a concurrent release/acquire
        job.granted_workers = grant
        claimed = self.queue.claim(job.id)
        if claimed is None:
            self.budget.release(grant)
            return False
        run = _JobRun(claimed, grant)
        run.thread = threading.Thread(
            target=self._run_job_thread, args=(run,),
            name=f"campaignd-{claimed.id}", daemon=True)
        with self._lock:
            self._runs[claimed.id] = run
        run.thread.start()
        return True

    def _run_job_thread(self, run: _JobRun) -> None:
        try:
            self._execute(run.job, grant=run.grant, stats=run.stats)
        finally:
            self.budget.release(run.grant)
            self.scheduler.job_stopped(run.job)
            self._wake.set()

    def _execute(self, job: Job, grant: Optional[int] = None,
                 stats: Optional[WatchdogStats] = None) -> None:
        if stats is None:
            stats = WatchdogStats()
        try:
            spec = JobSpec.from_dict(job.spec)
            # Re-validate: the record may predate a registry change, or
            # have been written by an older daemon with laxer rules.
            spec.validate()
            if grant is None:
                grant = max(1, spec.jobs)
            checkpoint = self.queue.journal_path(job.id)
            resume = os.path.exists(checkpoint)
            self.log(f"{job.id}: running with {grant} worker(s) "
                     f"(attempt {job.attempts}"
                     + (", resuming journal" if resume else "") + ")")

            last_persist = [0.0]

            def on_progress(progress) -> None:
                job.progress_trials = progress.completed_trials
                now = time.monotonic()
                if now - last_persist[0] > 1.0:
                    last_persist[0] = now
                    self.queue.update(job)
                if (job.cancel_event.is_set() or self._shutdown.is_set()
                        or job.yield_event.is_set()):
                    raise KeyboardInterrupt

            result = run_job(
                spec, checkpoint=checkpoint, resume=resume,
                progress=on_progress, watchdog_stats=stats,
                start_method=self.start_method,
                jobs_override=grant,
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
            job.granted_workers = 0
            self.queue.update(job)
            # Fold this campaign's watchdog counters into fleet totals.
            self.stats.scans += stats.scans
            self.stats.hang_kills += stats.hang_kills
            self.stats.rss_kills += stats.rss_kills
            self.log(f"{job.id}: {job.status}"
                     + (f" ({job.error})" if job.error else ""))

    # -- serving -------------------------------------------------------------

    def serve_forever(self) -> None:
        """Bind, serve, and supervise until shutdown or drain."""
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
                 f"worker budget: {self.budget.total}, "
                 f"max concurrent jobs: "
                 f"{self.scheduler.max_concurrent_jobs}, "
                 f"auth: {'on' if self.admission.enabled else 'off'})")

        previous = self._install_signal_handlers()
        try:
            while not self._shutdown.wait(timeout=0.2):
                if not self._scheduler_thread.is_alive():
                    break  # drain completed
        finally:
            self._restore_signal_handlers(previous)
            self._shutdown.set()
            self._wake.set()
            # Running campaigns (if any) stop at their next shard
            # boundary via the progress hook; wait for them to journal.
            self._scheduler_thread.join()
            with self._lock:
                runs = list(self._runs.values())
            for run in runs:
                if run.thread is not None:
                    run.thread.join()
            # Campaign pools outlive their jobs; none may outlive us.
            shutdown_pools()
            server.shutdown()
            server.server_close()
            self._remove_endpoint_file()
            self.audit.close()
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
