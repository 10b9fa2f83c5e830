"""Supervisor-side watchdog: heartbeat board, hang and RSS preemption.

The per-trial wall-clock budget (``trial_timeout_s``) is enforced
*cooperatively* inside the executor's step loop, which means it can only
fire between scheduler steps.  A worker that wedges anywhere else — a
program factory stuck in native code, an OS-level stall, an unbounded
allocation — stops making steps and therefore can never time itself out;
without supervision it hangs the whole campaign forever.

This module closes that gap with a heartbeat protocol:

* **Workers stamp a shared heartbeat slot per trial boundary.**  The
  :class:`HeartbeatBoard` is a pair of ``multiprocessing`` shared arrays
  (monotonic stamps + the stamping worker's pid), one slot per pool
  worker, built with the pool and living as long as it does.  Slots
  claim themselves in the pool initializer, stamp on every trial start,
  and zero themselves when the worker goes idle — so an
  *idle* worker (waiting for its next shard) is never mistaken for a
  wedged one.
* **The supervisor runs a watchdog thread.**  :class:`Watchdog` samples
  the board at a fraction of the hang timeout; a slot that stays *busy*
  without a fresh stamp for longer than ``hang_timeout_s`` identifies a
  wedged worker, which is hard-killed (``SIGKILL``).  The kill breaks the
  worker pool, which the shard supervisor already knows how to survive:
  the lost shards re-enter the bounded-retry/backoff path, and because
  trial seeds derive from ``(base_seed, index)`` the retried results are
  bit-identical.  The net effect is that the trial wall-clock budget
  becomes *preemptive* — enforced from outside the wedged process.
* **RSS is sampled against a soft memory ceiling.**  With
  ``memory_limit_mb`` set, each live worker's resident set (read from
  ``/proc/<pid>/statm``) is checked every scan; a worker above the
  ceiling is recycled the same way (kill + pool rebuild + retry), bounding
  a leaking fleet's footprint without affecting results.

Everything here is observable: :class:`WatchdogStats` counts scans and
kills and records the most recent busy-slot heartbeat ages, which the
campaign service surfaces on its liveness endpoint.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from typing import Callable, List, Optional, Sequence, Tuple

__all__ = [
    "HeartbeatBoard",
    "Watchdog",
    "WatchdogStats",
    "WorkerHeartbeat",
    "read_rss_mb",
]

#: Heartbeat stamp meaning "this slot's worker is idle" (not running a
#: shard); idle workers are exempt from hang detection — they are parked
#: inside the pool's task loop, not inside campaign code.
IDLE = 0.0


class WatchdogStats:
    """Mutable watchdog counters, shared with whoever is observing.

    Plain attribute updates under the GIL: single-writer (the watchdog
    thread), any number of readers (liveness endpoints, final campaign
    accounting).  ``snapshot()`` returns a JSON-ready dict.
    """

    def __init__(self) -> None:
        #: Completed board scans.
        self.scans = 0
        #: Workers hard-killed for a stale busy heartbeat.
        self.hang_kills = 0
        #: Workers recycled for exceeding the RSS ceiling.
        self.rss_kills = 0
        #: ``time.monotonic()`` of the last completed scan (0 = never).
        self.last_scan_monotonic = 0.0
        #: Busy-slot heartbeat ages (seconds) observed by the last scan.
        self.busy_heartbeat_ages: List[float] = []
        #: Live worker RSS readings (MiB) from the last scan that
        #: sampled memory (empty when no ceiling is configured).
        self.worker_rss_mb: List[float] = []

    @property
    def preemptions(self) -> int:
        """Total workers the watchdog killed, for any reason."""
        return self.hang_kills + self.rss_kills

    def snapshot(self) -> dict:
        age = (time.monotonic() - self.last_scan_monotonic
               if self.last_scan_monotonic else None)
        return {
            "scans": self.scans,
            "hang_kills": self.hang_kills,
            "rss_kills": self.rss_kills,
            "last_scan_age_s": round(age, 3) if age is not None else None,
            "busy_heartbeat_ages_s": [round(a, 3)
                                      for a in self.busy_heartbeat_ages],
            "worker_rss_mb": [round(m, 1) for m in self.worker_rss_mb],
        }


class WorkerHeartbeat:
    """Worker-process handle to its claimed heartbeat slot."""

    __slots__ = ("_stamps", "slot")

    def __init__(self, stamps, slot: int):
        self._stamps = stamps
        self.slot = slot

    def beat(self) -> None:
        """Stamp the slot busy-and-alive (one shared float store)."""
        self._stamps[self.slot] = time.monotonic()

    def idle(self) -> None:
        """Mark the slot idle: exempt from hang detection until the
        next :meth:`beat`."""
        self._stamps[self.slot] = IDLE


class HeartbeatBoard:
    """Shared heartbeat slots for one worker pool lifetime.

    Built with its pool from the pool's multiprocessing context and
    shipped to workers through the pool initializer (shared ``ctypes``
    arrays pickle via fd passing under every start method).  One board
    serves exactly one pool, for as long as that pool lives — which may
    span many campaigns, since clean pools are reused (see
    :mod:`repro.harness.parallel`); each campaign's watchdog reads the
    board of the pool it leased.  Pools rebuilt after a crash get a
    fresh board, so a lingering worker of the torn-down pool can never
    stamp — and thereby mask — a slot belonging to its replacement.
    """

    def __init__(self, ctx, slots: int):
        if slots < 1:
            raise ValueError("a heartbeat board needs at least one slot")
        self.slots = slots
        self._next_slot = ctx.Value("i", 0)           # synchronized claim
        self._stamps = ctx.Array("d", slots, lock=False)
        self._pids = ctx.Array("l", slots, lock=False)

    # -- worker side ---------------------------------------------------------

    def claim(self) -> WorkerHeartbeat:
        """Claim the next free slot for this worker process.

        Called once, from the pool initializer.  The modulo is defensive:
        a pool never initializes more workers than it has slots.
        """
        with self._next_slot.get_lock():
            slot = self._next_slot.value % self.slots
            self._next_slot.value += 1
        self._pids[slot] = os.getpid()
        return WorkerHeartbeat(self._stamps, slot)

    # -- supervisor side -----------------------------------------------------

    def snapshot(self) -> List[Tuple[int, int, float]]:
        """Claimed slots as ``(slot, pid, stamp)``; stamp 0.0 = idle."""
        return [(i, self._pids[i], self._stamps[i])
                for i in range(self.slots) if self._pids[i]]


def read_rss_mb(pid: int) -> Optional[float]:
    """Resident set size of ``pid`` in MiB via ``/proc`` (None if
    unreadable — non-Linux platform, or the process already exited)."""
    try:
        with open(f"/proc/{pid}/statm", "rb") as fh:
            fields = fh.read().split()
        pages = int(fields[1])
    except (OSError, IndexError, ValueError):
        return None
    return pages * _PAGE_SIZE / (1024.0 * 1024.0)


try:
    _PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
except (AttributeError, ValueError, OSError):  # pragma: no cover
    _PAGE_SIZE = 4096


class Watchdog(threading.Thread):
    """Background thread that preempts wedged or bloated pool workers.

    ``live_pids`` narrows kills to processes the current pool actually
    owns — a recycled OS pid that happens to linger on the board can
    never be signalled.  Kills are ``SIGKILL`` on purpose: a wedged
    worker is by definition not running Python, so nothing gentler is
    guaranteed to be observed.
    """

    def __init__(self, board: HeartbeatBoard,
                 live_pids: Callable[[], Sequence[int]],
                 hang_timeout_s: Optional[float] = None,
                 memory_limit_mb: Optional[float] = None,
                 stats: Optional[WatchdogStats] = None,
                 poll_s: Optional[float] = None,
                 warn: Optional[Callable[[str], None]] = None):
        super().__init__(name="campaign-watchdog", daemon=True)
        if hang_timeout_s is None and memory_limit_mb is None:
            raise ValueError(
                "a watchdog needs a hang timeout or a memory ceiling")
        self.board = board
        self.live_pids = live_pids
        self.hang_timeout_s = hang_timeout_s
        self.memory_limit_mb = memory_limit_mb
        self.stats = stats if stats is not None else WatchdogStats()
        if poll_s is None:
            poll_s = 0.5 if hang_timeout_s is None \
                else min(max(hang_timeout_s / 4.0, 0.05), 0.5)
        self.poll_s = poll_s
        self._warn = warn or (lambda message: None)
        # NB: not ``_stop`` — Thread internals call ``self._stop()``.
        self._stop_event = threading.Event()

    def stop(self, join_timeout_s: float = 2.0) -> None:
        self._stop_event.set()
        self.join(timeout=join_timeout_s)

    def run(self) -> None:  # pragma: no cover - exercised via campaigns
        while not self._stop_event.wait(self.poll_s):
            self.scan()

    def scan(self) -> None:
        """One pass over the board: detect hangs, sample RSS, kill."""
        now = time.monotonic()
        try:
            live = set(self.live_pids() or ())
        except Exception:
            live = set()
        ages: List[float] = []
        rss_seen: List[float] = []
        for slot, pid, stamp in self.board.snapshot():
            if pid not in live:
                continue
            if stamp != IDLE:
                age = now - stamp
                ages.append(age)
                if self.hang_timeout_s is not None \
                        and age > self.hang_timeout_s:
                    if self._kill(pid):
                        self.stats.hang_kills += 1
                        self._warn(
                            f"watchdog: worker {pid} heartbeat stale "
                            f"{age:.1f}s (> {self.hang_timeout_s:.1f}s "
                            f"hang timeout); hard-killing it")
                    continue
            if self.memory_limit_mb is not None:
                rss = read_rss_mb(pid)
                if rss is None:
                    continue
                rss_seen.append(rss)
                if rss > self.memory_limit_mb:
                    if self._kill(pid):
                        self.stats.rss_kills += 1
                        self._warn(
                            f"watchdog: worker {pid} RSS {rss:.0f} MiB "
                            f"exceeds the {self.memory_limit_mb:.0f} MiB "
                            f"ceiling; recycling it")
        self.stats.busy_heartbeat_ages = ages
        if self.memory_limit_mb is not None:
            self.stats.worker_rss_mb = rss_seen
        self.stats.scans += 1
        self.stats.last_scan_monotonic = now

    @staticmethod
    def _kill(pid: int) -> bool:
        try:
            os.kill(pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            return False
        return True
