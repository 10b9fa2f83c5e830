"""Fault-tolerant parallel campaign engine: supervised trial shards.

The paper's headline experiments run 500-1000 randomized trials per
(program, scheduler, d, h) cell; each trial is pure-Python CPU-bound
work, so this module shards the trial index space across a process pool
and *supervises* the shards so one fault cannot destroy a campaign:

* **Work units are picklable.**  Programs and schedulers cross the
  process boundary as registry specs (:class:`repro.workloads.ProgramSpec`,
  :class:`repro.core.factory.SchedulerSpec`) or any other picklable
  factory — not closures.
* **Seeding is shard-independent.**  Trial ``i`` always runs with
  ``derive_trial_seed(base_seed, i)``, so the aggregate counts are
  bit-identical to the serial path regardless of worker count, chunking,
  or how often a shard had to be retried.
* **Workers are warm, and outlive one campaign.**  Worker pools are
  leased from a process-wide registry keyed by ``(start method,
  workers, $REPRO_FAULT_INJECT)``; a pool whose round ends cleanly goes
  back for the next campaign, so a daemon serving many jobs pays worker
  start-up (importing ``repro`` in a fresh forkserver or spawn child)
  once per pool, not once per job.  Every shard ships the campaign's
  :class:`~repro.harness.campaign.TrialConfig` with its trial indices,
  and a worker rebuilds its
  :class:`~repro.harness.campaign.TrialRunner` — program, scheduler,
  pooled execution state — only when that config differs from the one
  it has cached.  A pool that broke, was interrupted, or lost a worker
  to the watchdog is shut down, never reused; :func:`shutdown_pools`
  stops the idle ones (at interpreter exit, and when a daemon stops).
* **Merging is deterministic and streaming.**  Shard records fold into
  a :class:`~repro.harness.campaign.CampaignAccumulator` as each shard
  finishes; the fold is order-independent, so ``hits``,
  ``inconclusive``, ``total_steps``, ``total_events`` and
  ``run_times_s`` match a serial campaign exactly while the parent
  holds only bounded aggregate state.
* **Faults are contained at three levels.**  A trial that raises or
  exhausts its wall-clock budget becomes an ``error``/``timeout``
  record inside the worker (:meth:`repro.harness.campaign.TrialRunner.run`).
  A worker that *dies* (OOM kill, fork-unsafe state, segfault) breaks
  the pool; the supervisor rebuilds it and retries the lost shards with
  bounded retries and exponential backoff — retries are bit-identical
  because seeds are per-trial.  Shards that keep failing degrade to
  in-process execution so the campaign still finishes (and a
  deterministic infrastructure fault surfaces with a real traceback).
* **Progress is durable.**  With ``checkpoint=PATH`` every completed
  shard is appended to a JSONL trial journal (flushed + fsynced);
  ``resume=True`` skips already-journaled trials.  SIGINT *and SIGTERM*
  (what container orchestrators send) stop the campaign cleanly:
  completed work is journaled, an ``interrupt`` event is appended, and
  the partial aggregates are returned with ``interrupted=True``; without
  a checkpoint nothing could resume them, so the interrupt propagates.
* **Wedged workers are preempted.**  ``trial_timeout_s`` is enforced
  cooperatively inside the step loop, so it cannot fire while a worker
  is stuck *outside* it (a factory wedged in native code, an OS stall).
  Warm workers stamp a shared heartbeat slot per trial boundary; with
  ``hang_timeout_s`` set, a supervisor-side watchdog thread
  (:mod:`repro.harness.watchdog`) hard-kills any worker whose busy
  heartbeat goes stale, feeding the lost shard back into the same
  bounded-retry path — the wall-clock budget becomes preemptive.
  ``memory_limit_mb`` likewise recycles workers whose RSS crosses a
  soft ceiling; worker restarts are seed-deterministic, so neither
  lever can change results.

    spec = ProgramSpec("seqlock")
    sched = SchedulerSpec("pctwm", {"depth": 3, "k_com": 18, "history": 2})
    result = run_campaign_parallel(spec, sched, trials=1000, jobs=4,
                                   checkpoint="seqlock.jsonl",
                                   progress=print_progress)
"""

from __future__ import annotations

import atexit
import gc
import multiprocessing
import multiprocessing.connection
import multiprocessing.forkserver
import os
import signal
import sys
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import faultrig
from .campaign import (
    GC_COLLECT_STRIDE,
    CampaignAccumulator,
    CampaignResult,
    ProgramFactory,
    SchedulerFactory,
    TrialConfig,
    TrialRecord,
    TrialRunner,
    resolve_campaign_names,
    run_campaign,
)
from .checkpoint import TrialJournal
from .watchdog import HeartbeatBoard, Watchdog, WatchdogStats

__all__ = [
    "CampaignProgress",
    "ShardResult",
    "WatchdogStats",
    "print_progress",
    "run_campaign_parallel",
    "shutdown_pools",
]

#: Environment override for the multiprocessing start method used by
#: campaign pools ("fork", "spawn", or "forkserver").
START_METHOD_ENV = "REPRO_START_METHOD"

#: Ceiling on the exponential shard-retry backoff.  Retries double from
#: ``retry_backoff_s`` but never beyond this, so a high retry budget
#: cannot compound into multi-minute stalls between pool rebuilds.
RETRY_BACKOFF_CAP_S = 5.0

#: Idle worker pools kept for reuse, across all keys; the least recently
#: returned pool is shut down beyond this.
IDLE_POOL_LIMIT = 2


@dataclass
class ShardResult:
    """Per-trial records of one shard, plus its wall time."""

    start: int
    records: List[TrialRecord]
    wall_s: float


@dataclass
class CampaignProgress:
    """Snapshot handed to the progress hook after each completed shard."""

    completed_trials: int
    total_trials: int
    elapsed_s: float
    #: Wall time of each shard completed so far, in completion order.
    shard_wall_times: List[float] = field(default_factory=list)
    #: Trials restored from a checkpoint journal (counted in
    #: ``completed_trials`` but not re-run).
    resumed_trials: int = 0

    @property
    def trials_per_second(self) -> float:
        if self.elapsed_s <= 0:
            return 0.0
        return self.completed_trials / self.elapsed_s

    @property
    def eta_s(self) -> float:
        """Estimated seconds until the campaign completes."""
        rate = self.trials_per_second
        if rate <= 0:
            return float("inf")
        return (self.total_trials - self.completed_trials) / rate

    def render(self) -> str:
        eta = f"{self.eta_s:.1f}s" if self.eta_s != float("inf") else "?"
        resumed = (f", {self.resumed_trials} resumed"
                   if self.resumed_trials else "")
        return (
            f"{self.completed_trials}/{self.total_trials} trials "
            f"({self.trials_per_second:.1f}/s, eta {eta}{resumed})"
        )


def print_progress(progress: CampaignProgress) -> None:
    """Default progress hook: one status line per completed shard."""
    print(f"  [campaign] {progress.render()}", file=sys.stderr, flush=True)


#: Per-worker-process warm state: the config of the last shard run here
#: and the runner built from it (see :func:`_run_shard_warm`).
_WORKER_CONFIG: Optional[TrialConfig] = None
_WORKER_RUNNER: Optional[TrialRunner] = None
_WORKER_TRIALS_SINCE_GC = 0
#: The worker's claimed heartbeat slot on its pool's board.
_WORKER_HEARTBEAT = None


def _init_worker(board: HeartbeatBoard) -> None:
    """Pool initializer: claim a heartbeat slot and load the fault rig.

    Runs once per worker process, for the lifetime of its pool (which
    may serve many campaigns).  The cyclic collector is paused for that
    lifetime; trial loops collect manually (see :func:`_run_shard_warm`).
    """
    global _WORKER_HEARTBEAT
    # Fork-started workers inherit the supervisor's SIGTERM handler
    # (which raises KeyboardInterrupt); a pool worker must simply die
    # when the executor terminates it.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _live_as_long_as_parent()
    _WORKER_HEARTBEAT = board.claim()
    faultrig.load_directives()
    gc.disable()


def _live_as_long_as_parent() -> None:
    """Tie this worker's lifetime to the campaign process that owns it.

    A parked pool may sit idle for a long time, which is only safe if:

    * the worker does not keep a forkserver alive.  A forkserver runs
      until every holder of its "alive" pipe has exited, and forkserver
      children (and fork children of a process that started one) hold
      it; a parked worker would block whoever stops the forkserver.
      Workers start no processes, so they close their copy.
    * the worker exits once its parent is gone.  A killed parent — or
      one whose forkserver stopped first, which leaves its pools unable
      to see their workers — never sends the shutdown sentinel, so a
      daemon thread waits on the parent's sentinel instead.
    """
    server = multiprocessing.forkserver._forkserver
    alive_fd = getattr(server, "_forkserver_alive_fd", None)
    if alive_fd is not None:
        server._forkserver_alive_fd = None
        try:
            os.close(alive_fd)
        except OSError:
            pass
    parent = multiprocessing.parent_process()
    if parent is not None:
        threading.Thread(target=_exit_with, args=(parent.sentinel,),
                         name="campaign-parent-watch", daemon=True).start()


def _exit_with(sentinel) -> None:
    multiprocessing.connection.wait([sentinel])
    os._exit(0)


def _run_shard_warm(config: TrialConfig,
                    indices: Tuple[int, ...]) -> ShardResult:
    """Warm shard entry point: run trial ``indices`` under ``config``.

    The worker's runner — program, scheduler and execution-state pool —
    is rebuilt only when ``config`` differs from the one it was built
    for, so every shard of a campaign (and of later campaigns with the
    same config) reuses it.  Building happens with the heartbeat busy, so
    a factory that wedges is still preemptible.  Each trial stamps the
    slot (one shared float store — noise next to even the cheapest
    trial), and the slot is marked idle on exit so a worker parked
    between shards is never mistaken for a wedged one.
    """
    global _WORKER_CONFIG, _WORKER_RUNNER, _WORKER_TRIALS_SINCE_GC
    heartbeat = _WORKER_HEARTBEAT
    t0 = time.perf_counter()
    heartbeat.beat()
    try:
        faultrig.maybe_inject(heartbeat)
        if config != _WORKER_CONFIG:
            _WORKER_RUNNER = TrialRunner(config)
            _WORKER_CONFIG = config
        records = []
        for index in indices:
            heartbeat.beat()
            records.append(_WORKER_RUNNER.run(index))
    finally:
        heartbeat.idle()
    _WORKER_TRIALS_SINCE_GC += len(indices)
    if _WORKER_TRIALS_SINCE_GC >= GC_COLLECT_STRIDE:
        _WORKER_TRIALS_SINCE_GC = 0
        gc.collect()
    return ShardResult(indices[0], records, time.perf_counter() - t0)


def shard_bounds(trials: int, jobs: int,
                 chunks_per_job: int = 4) -> List[tuple]:
    """Split ``range(trials)`` into contiguous ``(start, stop)`` slices.

    Oversplits to ``jobs * chunks_per_job`` shards for load balancing
    (trial durations vary, e.g. when some seeds hit the step budget);
    sharding never affects results because seeds are per-trial.
    """
    shards = max(1, min(trials, jobs * max(1, chunks_per_job)))
    bounds = []
    base, extra = divmod(trials, shards)
    start = 0
    for i in range(shards):
        stop = start + base + (1 if i < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def _pool_context(start_method: Optional[str] = None):
    """The multiprocessing context campaigns use for worker pools.

    Resolution order: explicit ``start_method`` argument, the
    ``REPRO_START_METHOD`` environment variable, then the historical
    default (fork where available — cheap on Linux — else spawn).  Pass
    ``"spawn"`` when the parent holds threads: forking a threaded
    process is unsafe.
    """
    if start_method is None:
        start_method = os.environ.get(START_METHOD_ENV) or None
    methods = multiprocessing.get_all_start_methods()
    if start_method is not None:
        if start_method not in methods:
            raise ValueError(
                f"unknown start method {start_method!r}; "
                f"available: {', '.join(methods)}"
            )
        return multiprocessing.get_context(start_method)
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


class _Pool:
    """A process pool plus the heartbeat board its workers stamp.

    The board lives exactly as long as the pool: pools rebuilt after a
    crash get a fresh board, so a lingering worker of a torn-down pool
    can never stamp (and thereby mask) its replacement's slot.
    """

    def __init__(self, key: tuple, ctx, workers: int):
        self.key = key
        self.board = HeartbeatBoard(ctx, slots=workers)
        self.executor = ProcessPoolExecutor(
            max_workers=workers, mp_context=ctx,
            initializer=_init_worker, initargs=(self.board,))

    def pids(self) -> List[int]:
        """Pids of the pool's worker processes."""
        return list((self.executor._processes or {}).keys())

    def healthy(self) -> bool:
        """Whether the pool can take work: not broken, no dead worker."""
        executor = self.executor
        return not executor._broken and all(
            process.is_alive()
            for process in (executor._processes or {}).values())

    def close(self, wait: bool = True) -> None:
        self.executor.shutdown(wait=wait, cancel_futures=True)


class _PoolRegistry:
    """Idle campaign pools, kept warm for the next campaign.

    At most one idle pool per key and :data:`IDLE_POOL_LIMIT` overall.
    The key holds everything a worker fixes at start-up: the start
    method, the worker count, and ``$REPRO_FAULT_INJECT`` (read by
    :func:`_init_worker`), so changing the fault rig between campaigns
    takes effect (as far as the start method passes the environment on:
    forkserver children inherit the forkserver's).  Building a new
    ``fork`` pool first stops the parked ones.  Thread-safe: campaigns
    may run from several threads at once.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle: "OrderedDict[tuple, _Pool]" = OrderedDict()

    def lease(self, ctx, workers: int) -> _Pool:
        """An idle healthy pool for this key, or a new one on a miss."""
        key = (ctx.get_start_method(), workers,
               os.environ.get(faultrig.FAULT_ENV, ""))
        with self._lock:
            pool = self._idle.pop(key, None)
        if pool is not None:
            if pool.healthy():
                return pool
            pool.close(wait=False)  # a worker died while it sat idle
        if key[0] == "fork":
            # Parked pools keep threads running; forking next to them
            # risks deadlocked children (warned about since Python 3.12).
            self.shutdown()
        return _Pool(key, ctx, workers)

    def release(self, pool: _Pool) -> None:
        """Return a pool after a clean round; surplus pools shut down."""
        surplus = []
        with self._lock:
            if pool.key in self._idle:
                surplus.append(pool)
            else:
                self._idle[pool.key] = pool
                while len(self._idle) > IDLE_POOL_LIMIT:
                    surplus.append(self._idle.popitem(last=False)[1])
        for spare in surplus:
            spare.close()

    def shutdown(self) -> None:
        with self._lock:
            pools = list(self._idle.values())
            self._idle.clear()
        for pool in pools:
            pool.close()


_POOLS = _PoolRegistry()


def shutdown_pools() -> None:
    """Stop every idle campaign worker pool and wait for its workers.

    Pools in use by a running campaign are not touched; they go back to
    the registry when their round ends.  Runs at interpreter exit; a
    long-lived host (the campaign daemon) also calls it when it stops, so
    no pool worker outlives it.
    """
    _POOLS.shutdown()


atexit.register(shutdown_pools)


def _warn(message: str) -> None:
    print(f"  [campaign] {message}", file=sys.stderr, flush=True)


@contextmanager
def _sigterm_as_interrupt():
    """Deliver SIGTERM exactly like SIGINT for the duration of the block.

    Container orchestrators stop workloads with SIGTERM; without this,
    a terminated campaign would skip the journal-flush/partial-result
    path that SIGINT (KeyboardInterrupt) already takes and lose its
    checkpoint state.  The handler simply raises ``KeyboardInterrupt``,
    so one drain path serves both signals; the previous handler is
    restored on exit.  Signal handlers can only live in the main thread
    — campaigns run from a worker thread (e.g. inside the campaign
    daemon) yield an inert context instead.

    Yields a dict that records ``{"signal": "SIGTERM"}`` if the handler
    fired, letting callers journal which signal drained the campaign.
    """
    seen: Dict[str, str] = {}
    if threading.current_thread() is not threading.main_thread():
        yield seen
        return

    def handler(signum, frame):
        seen["signal"] = "SIGTERM"
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, handler)
    try:
        yield seen
    finally:
        signal.signal(signal.SIGTERM, previous)


class _ShardSupervisor:
    """Runs shards to completion across pool failures and interrupts.

    Owns the retry bookkeeping: ``pending`` shards (tuples of trial
    indices) keyed by their first trial index, a per-shard failure count,
    and the journal/progress side effects applied exactly once per
    completed shard.
    """

    def __init__(self, shards: Sequence[Tuple[int, ...]], jobs: int,
                 ctx, max_retries: int, retry_backoff_s: float,
                 journal: Optional[TrialJournal],
                 on_progress: Callable[[ShardResult], None],
                 accumulator: CampaignAccumulator,
                 worker_config: TrialConfig,
                 hang_timeout_s: Optional[float] = None,
                 memory_limit_mb: Optional[float] = None,
                 watchdog_stats: Optional[WatchdogStats] = None,
                 watchdog_poll_s: Optional[float] = None,
                 on_pool_change: Optional[Callable[[int], None]] = None):
        self.pending: Dict[int, Tuple[int, ...]] = {
            shard[0]: shard for shard in shards}
        self.failures: Dict[int, int] = {key: 0 for key in self.pending}
        self.jobs = jobs
        self.ctx = ctx
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self.journal = journal
        self.on_progress = on_progress
        self.hang_timeout_s = hang_timeout_s
        self.memory_limit_mb = memory_limit_mb
        self.watchdog_stats = watchdog_stats \
            if watchdog_stats is not None else WatchdogStats()
        self.watchdog_poll_s = watchdog_poll_s
        #: Observer of leased pool-worker deltas: called with ``+n`` when
        #: a round leases a pool of ``n`` workers and ``-n`` when the
        #: round returns or tears it down, so a daemon can meter
        #: campaigns against a global worker budget (idle pools parked in
        #: the registry are not counted).
        self.on_pool_change = on_pool_change
        #: Set to end a backoff wait early (graceful drain); interrupt
        #: signals need no help — the deadline wait sleeps in short
        #: slices precisely so KeyboardInterrupt lands promptly.
        self._stop = threading.Event()
        #: Streaming fold target: shard records are folded the moment a
        #: shard completes and never retained — the parent's memory is
        #: bounded by the accumulator, not by the campaign size.
        self.accumulator = accumulator
        #: Trial config shipped with every shard; pool workers and the
        #: in-process fallback each build one runner from it.
        self.worker_config = worker_config
        #: ``(first trial index, wall seconds)`` per completed shard.
        self.shard_walls: List[Tuple[int, float]] = []
        self.interrupted = False

    def run(self) -> None:
        try:
            if self.jobs > 1:
                self._run_pooled()
            self._run_in_process()
        except KeyboardInterrupt:
            self.interrupted = True

    # -- supervision rounds --------------------------------------------------

    def _complete(self, key: int, outcome: ShardResult) -> None:
        del self.pending[key]
        self.shard_walls.append((outcome.start, outcome.wall_s))
        if self.journal is not None:
            self.journal.append(outcome.records)
        for record in outcome.records:
            self.accumulator.add(record)
        self.on_progress(outcome)

    def _runnable(self) -> Dict[int, Tuple[int, ...]]:
        return {key: shard for key, shard in self.pending.items()
                if self.failures[key] <= self.max_retries}

    def _backoff_delay(self, round_index: int) -> float:
        """Exponential backoff for retry round ``round_index`` (>= 1),
        capped at :data:`RETRY_BACKOFF_CAP_S`."""
        return min(self.retry_backoff_s * 2 ** (round_index - 1),
                   RETRY_BACKOFF_CAP_S)

    def _backoff_wait(self, delay_s: float) -> None:
        """Deadline-based wait: never a single long ``time.sleep``.

        Sleeps in short slices against a monotonic deadline, so an
        operator signal (KeyboardInterrupt) or :attr:`_stop` (a drain
        request) interrupts the backoff within ~50 ms instead of pinning
        the supervisor for the full delay.
        """
        deadline = time.monotonic() + delay_s
        while not self._stop.is_set():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            self._stop.wait(min(remaining, 0.05))

    def _run_pooled(self) -> None:
        """Submit shards to worker pools, rebuilding after crashes."""
        round_index = 0
        while True:
            runnable = self._runnable()
            if not runnable:
                return
            if round_index > 0 and self.retry_backoff_s > 0:
                self._backoff_wait(self._backoff_delay(round_index))
            lost = self._run_pool_round(runnable)
            if not lost:
                return
            round_index += 1
            for key in lost:
                self.failures[key] += 1
            abandoned = [k for k in lost
                         if self.failures[k] > self.max_retries]
            if abandoned:
                _warn(
                    f"{len(abandoned)} shard(s) failed "
                    f"{self.max_retries + 1}x in workers; degrading to "
                    f"in-process execution"
                )

    def _supervised(self) -> bool:
        """Whether pool rounds run under a heartbeat watchdog."""
        return (self.hang_timeout_s is not None
                or self.memory_limit_mb is not None)

    def _run_pool_round(self, runnable: Dict[int, Tuple[int, ...]],
                        ) -> List[int]:
        """One round on a leased pool; returns the shard keys lost.

        The pool goes back to the registry only after a clean round in
        which the watchdog killed no worker; otherwise it is shut down.
        """
        workers = min(self.jobs, len(runnable))
        pool = _POOLS.lease(self.ctx, workers)
        if self.on_pool_change is not None:
            self.on_pool_change(workers)
        stats = self.watchdog_stats
        kills_before = stats.preemptions
        watchdog: Optional[Watchdog] = None
        if self._supervised():
            watchdog = Watchdog(
                pool.board,
                # Only pids the *current* pool owns are killable; a stale
                # board entry whose OS pid was recycled is never signalled.
                live_pids=pool.pids,
                hang_timeout_s=self.hang_timeout_s,
                memory_limit_mb=self.memory_limit_mb,
                stats=stats,
                poll_s=self.watchdog_poll_s,
                warn=_warn,
            )
            watchdog.start()

        def broke(exc: BaseException) -> List[int]:
            # A worker died, while shards were being submitted or while
            # they ran; every unfinished shard of this pool is lost (the
            # pool is unusable).  Which worker held which shard is
            # unknowable, so all are retried.
            lost = [k for k in runnable if k in self.pending]
            _warn(f"worker pool broke ({type(exc).__name__}); "
                  f"retrying {len(lost)} shard(s)")
            return lost

        clean = False
        try:
            futures = {}
            for key, shard in runnable.items():
                try:
                    future = pool.executor.submit(
                        _run_shard_warm, self.worker_config, shard)
                except (BrokenProcessPool, OSError) as exc:
                    return broke(exc)
                futures[future] = key
            lost: List[int] = []
            for future in as_completed(futures):
                key = futures[future]
                try:
                    outcome = future.result()
                except (BrokenProcessPool, OSError) as exc:
                    return broke(exc)
                except Exception as exc:
                    # The shard itself raised (infrastructure fault, e.g.
                    # unpicklable result); the pool survives.
                    lost.append(key)
                    _warn(f"shard at trial {key} failed: {exc!r}")
                else:
                    self._complete(key, outcome)
            clean = True
            return lost
        finally:
            if watchdog is not None:
                watchdog.stop()
            if clean and stats.preemptions == kills_before:
                _POOLS.release(pool)
            else:
                # A broken or interrupted pool cannot be drained; don't
                # wait.
                pool.close(wait=clean)
            if self.on_pool_change is not None:
                self.on_pool_change(-workers)

    def _run_in_process(self) -> None:
        """Run whatever is left in the parent process, in trial order,
        on one warm runner shared by every leftover shard."""
        if not self.pending:
            return
        runner = TrialRunner(self.worker_config)
        for key in sorted(self.pending):
            t0 = time.perf_counter()
            records = [runner.run(index) for index in self.pending[key]]
            self._complete(key, ShardResult(key, records,
                                            time.perf_counter() - t0))


def check_watchdog_limits(trial_timeout_s: Optional[float],
                          hang_timeout_s: Optional[float],
                          memory_limit_mb: Optional[float]) -> None:
    """Raise ``ValueError`` on watchdog limits a campaign cannot run with.

    Shared by :func:`run_campaign_parallel` and the job spec's
    validation, so both reject the same settings with the same messages.
    """
    if hang_timeout_s is not None and hang_timeout_s <= 0:
        raise ValueError("hang_timeout_s must be positive")
    if memory_limit_mb is not None and memory_limit_mb <= 0:
        raise ValueError("memory_limit_mb must be positive")
    if (hang_timeout_s is not None and trial_timeout_s is not None
            and hang_timeout_s <= trial_timeout_s):
        raise ValueError(
            "hang_timeout_s must exceed trial_timeout_s: the cooperative "
            "per-trial budget should fire before the preemptive one")


def run_campaign_parallel(
        program_factory: ProgramFactory,
        scheduler_factory: SchedulerFactory,
        trials: int = 100,
        base_seed: int = TrialConfig.base_seed,
        max_steps: int = TrialConfig.max_steps,
        jobs: int = 1,
        scheduler_name: Optional[str] = None,
        progress: Optional[Callable[[CampaignProgress], None]] = None,
        chunks_per_job: int = 4,
        trial_timeout_s: Optional[float] = None,
        checkpoint: Optional[str] = None,
        resume: bool = False,
        max_retries: int = 2,
        retry_backoff_s: float = 0.1,
        start_method: Optional[str] = None,
        sanitize: str = TrialConfig.sanitize,
        artifact_dir: Optional[str] = None,
        spin_threshold: int = TrialConfig.spin_threshold,
        model: str = TrialConfig.model,
        hang_timeout_s: Optional[float] = None,
        memory_limit_mb: Optional[float] = None,
        watchdog_stats: Optional[WatchdogStats] = None,
        watchdog_poll_s: Optional[float] = None,
        on_pool_change: Optional[Callable[[int], None]] = None,
) -> CampaignResult:
    """Run a campaign sharded over ``jobs`` worker processes.

    Bit-identical to :func:`run_campaign` for the same ``base_seed``:
    aggregate counts and the per-trial ``run_times_s`` ordering do not
    depend on ``jobs``, chunking, worker crashes, or checkpoint/resume
    (individual timings naturally vary; wall-clock ``trial_timeout_s``
    budgets are inherently timing-dependent).  With ``jobs <= 1`` — or
    fewer trials than workers, where pool startup would dominate — the
    campaign runs in-process, so callers can thread a jobs parameter
    through unconditionally.

    The per-trial settings (``base_seed``, ``max_steps``,
    ``trial_timeout_s``, ``sanitize``, ``artifact_dir``,
    ``spin_threshold``, ``model``) are those of
    :class:`~repro.harness.campaign.TrialConfig`; the campaign builds one
    and ships it to every worker.

    Fault tolerance:

    * ``trial_timeout_s`` — per-trial wall-clock budget, enforced inside
      the worker's step loop; over-budget trials are recorded as
      ``timeouts``, not hangs.
    * ``max_retries`` — how many times a shard lost to a dead worker is
      retried (with exponential backoff starting at ``retry_backoff_s``)
      before it degrades to in-process execution.
    * ``checkpoint``/``resume`` — durable JSONL trial journal; see
      :mod:`repro.harness.checkpoint`.  On SIGINT *or SIGTERM* the
      journal is flushed, an ``interrupt`` event appended, and the
      partial aggregates returned with ``interrupted=True``; without
      one, ``KeyboardInterrupt`` propagates at any ``jobs``.
    * ``hang_timeout_s`` — supervisor-side preemptive hang budget: warm
      workers stamp a shared heartbeat per trial boundary, and a
      watchdog thread hard-kills any worker whose *busy* heartbeat goes
      stale for longer than this, feeding the lost shard back into the
      retry path.  Must exceed ``trial_timeout_s`` (the cooperative
      budget should fire first for trials it *can* see).
    * ``memory_limit_mb`` — soft per-worker RSS ceiling; workers above
      it are recycled through the same kill/rebuild/retry path.  Both
      levers are seed-deterministic: retried trials are bit-identical.
    * ``watchdog_stats`` — a :class:`WatchdogStats` to observe scans and
      kills live (e.g. a daemon's liveness endpoint); the campaign also
      reports its own kill deltas on ``result.hang_preemptions`` /
      ``result.rss_recycles``.
    * ``on_pool_change`` — observer of leased pool-worker deltas: called
      ``+n`` when a round leases a pool of ``n`` workers and ``-n`` when
      it hands the pool back (or tears it down), letting a daemon meter
      live workers against its worker budget.
    * ``start_method`` — multiprocessing start method ("fork", "spawn",
      "forkserver"); defaults to ``$REPRO_START_METHOD`` or fork.
    * ``sanitize`` — audit trial graphs against the consistency axioms
      ("off" | "sampled" | "all"); sampling is by trial index, so the
      sanitized set is jobs-independent.
    * ``artifact_dir`` — failing trials write replayable bug artifacts
      here from inside the worker, so they survive worker death; only
      the paths cross the process boundary.
    * ``model`` — memory-model backend for every trial ("c11" | "tso");
      recorded in the checkpoint journal, so resuming a campaign under a
      different model is rejected as a config mismatch.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if resume and checkpoint is None:
        raise ValueError("resume=True requires a checkpoint path")
    check_watchdog_limits(trial_timeout_s, hang_timeout_s, memory_limit_mb)
    config = TrialConfig(
        program_factory, scheduler_factory, base_seed=base_seed,
        max_steps=max_steps, trial_timeout_s=trial_timeout_s,
        sanitize=sanitize, artifact_dir=artifact_dir,
        spin_threshold=spin_threshold, model=model)
    with _sigterm_as_interrupt() as term_seen:
        if (jobs <= 1 or trials < jobs) and checkpoint is None:
            # The module-global run_campaign, so one patched here (the
            # perf tracer's) sees serial campaigns too.
            result = run_campaign(trials=trials,
                                  scheduler_name=scheduler_name,
                                  **vars(config))
            if progress is not None:
                progress(CampaignProgress(trials, trials, result.elapsed_s))
            return result

        program_name, sched_name = resolve_campaign_names(
            config, scheduler_name)
        result = CampaignResult(
            program=program_name,
            scheduler=sched_name,
            trials=trials,
            jobs=jobs,
        )

        journal: Optional[TrialJournal] = None
        done: Dict[int, TrialRecord] = {}
        if checkpoint is not None:
            journal = TrialJournal(checkpoint)
            done = journal.start(
                {"program": program_name, "scheduler": sched_name,
                 "base_seed": base_seed, "trials": trials,
                 "max_steps": max_steps, "sanitize": sanitize,
                 "model": model},
                resume=resume,
            )
            done = {i: r for i, r in done.items() if i < trials}
        result.resumed_trials = len(done)

        remaining = [i for i in range(trials) if i not in done]
        shards = [
            tuple(remaining[start:stop])
            for start, stop in shard_bounds(len(remaining), max(jobs, 1),
                                            chunks_per_job)
            if stop > start
        ]

        start_time = time.perf_counter()
        completed_trials = len(done)
        wall_times: List[float] = []

        def on_progress(outcome: ShardResult) -> None:
            nonlocal completed_trials
            completed_trials += len(outcome.records)
            wall_times.append(outcome.wall_s)
            if progress is not None:
                progress(CampaignProgress(
                    completed_trials, trials,
                    time.perf_counter() - start_time,
                    list(wall_times),
                    resumed_trials=len(done),
                ))

        # Streaming, order-independent fold: resumed records seed the
        # accumulator, fresh shard records fold in as each shard
        # completes (inside the supervisor), and finalize() materializes
        # aggregates identical to a serial in-order campaign.
        accumulator = CampaignAccumulator()
        for record in done.values():
            accumulator.add(record)

        stats = watchdog_stats if watchdog_stats is not None \
            else WatchdogStats()
        # The stats object may be shared across campaigns (a daemon
        # exposes one fleet-wide instance); this campaign's own
        # preemption counts are the deltas across its run.
        hang_kills_before = stats.hang_kills
        rss_kills_before = stats.rss_kills

        supervisor = _ShardSupervisor(
            shards, jobs, _pool_context(start_method), max_retries,
            retry_backoff_s, journal, on_progress, accumulator, config,
            hang_timeout_s=hang_timeout_s, memory_limit_mb=memory_limit_mb,
            watchdog_stats=stats, watchdog_poll_s=watchdog_poll_s,
            on_pool_change=on_pool_change)
        try:
            if shards:
                supervisor.run()
            elif progress is not None:
                progress(CampaignProgress(
                    trials, trials, time.perf_counter() - start_time,
                    resumed_trials=len(done)))
        finally:
            if journal is not None:
                if supervisor.interrupted:
                    journal.append_event(
                        "interrupt",
                        signal=term_seen.get("signal", "SIGINT"),
                        completed=accumulator.completed)
                journal.close()
        if supervisor.interrupted and journal is None:
            # Unresumable partial counts would pass for a whole result.
            raise KeyboardInterrupt

        result.shard_times_s = [
            wall for _, wall in sorted(supervisor.shard_walls)]
        result.interrupted = supervisor.interrupted
        result.hang_preemptions = stats.hang_kills - hang_kills_before
        result.rss_recycles = stats.rss_kills - rss_kills_before
        result.elapsed_s = time.perf_counter() - start_time
        accumulator.finalize(result)
        return result
