"""Recording and replaying test executions.

:func:`record_run` runs a program with the executor's decision log on
(:attr:`repro.runtime.executor.Executor.decisions`), the same log
campaigns use for the traces of their bug artifacts, and returns it as
a :class:`repro.replay.trace.Trace`; :class:`ReplayScheduler`
re-executes a trace deterministically.  Replay works because the
executor is deterministic given the decision sequence: the candidate
write lists a read chooses from are a pure function of the decisions
taken so far.

    result, trace = record_run(program_factory(), PCTWMScheduler(2, 10))
    again = replay_run(program_factory(), trace)
    assert again.bug_found == result.bug_found
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from ..memory.events import Event
from ..runtime.errors import ReplayDivergenceError, ReproError
from ..runtime.executor import Executor, RunResult, run_once
from ..runtime.program import Program
from ..runtime.scheduler import ReadContext, Scheduler
from .trace import READ, THREAD, Trace


class ReplayScheduler(Scheduler):
    """Feeds a recorded trace back to the executor, decision by decision."""

    name = "replay"

    def __init__(self, trace: Trace):
        super().__init__(seed=0)
        self._decisions = list(trace.decisions)
        self._cursor = 0

    def _next(self, expected_kind: str) -> int:
        if self._cursor >= len(self._decisions):
            raise ReproError(
                "trace exhausted: the replayed program diverged from the "
                "recorded one (more decisions needed)"
            )
        kind, value = self._decisions[self._cursor]
        if kind != expected_kind:
            raise ReproError(
                f"trace divergence at step {self._cursor}: recorded "
                f"{kind!r}, execution asked for {expected_kind!r}"
            )
        self._cursor += 1
        return value

    def choose_thread(self, state) -> int:
        return self._next(THREAD)

    def choose_read_from(self, state, ctx: ReadContext) -> Event:
        index = self._next(READ)
        if index >= len(ctx.candidates):
            raise ReproError(
                f"trace divergence: recorded candidate #{index} but only "
                f"{len(ctx.candidates)} are visible"
            )
        return ctx.candidates[index]

    @property
    def fully_consumed(self) -> bool:
        return self._cursor == len(self._decisions)

    @property
    def consumed(self) -> int:
        """How many recorded decisions the replay has used so far."""
        return self._cursor

    @property
    def remaining(self) -> int:
        return len(self._decisions) - self._cursor


def record_run(program: Program, scheduler: Scheduler,
               max_steps: int = 20000,
               spin_threshold: int = 8) -> Tuple[RunResult, Trace]:
    """Run once under ``scheduler`` while recording every decision.

    The trace remembers ``spin_threshold``: replaying under a different
    threshold changes the livelock heuristic's read promotions and can
    diverge silently, so :func:`replay_run` defaults to the recorded one.
    """
    trace = Trace(program=program.name, scheduler=scheduler.name,
                  spin_threshold=spin_threshold)
    executor = Executor(program, scheduler, max_steps=max_steps,
                        spin_threshold=spin_threshold)
    executor.decisions = trace.decisions
    return executor.run(), trace


def replay_run(program: Program, trace: Trace,
               max_steps: int = 20000,
               spin_threshold: Optional[int] = None,
               strict: bool = True,
               sanitize: bool = False) -> RunResult:
    """Deterministically re-execute a recorded trace.

    Runs under the trace's recorded ``spin_threshold`` unless overridden.
    With ``strict`` (the default), a run that finishes without consuming
    the whole trace raises :class:`ReplayDivergenceError` — leftover
    decisions mean the replayed program is not the recorded one, and the
    result would be misleading.
    """
    if spin_threshold is None:
        spin_threshold = trace.spin_threshold
    scheduler = ReplayScheduler(trace)
    result = run_once(program, scheduler, max_steps=max_steps,
                      spin_threshold=spin_threshold, sanitize=sanitize)
    if strict and not scheduler.fully_consumed:
        raise ReplayDivergenceError(
            f"replay finished after {scheduler.consumed} of "
            f"{len(trace)} recorded decisions; the replayed program "
            "diverged from the recorded one "
            f"({scheduler.remaining} decisions left over)"
        )
    return result


def find_and_record(program_factory: Callable[[], Program],
                    scheduler_factory: Callable[[int], Scheduler],
                    max_attempts: int = 1000, base_seed: int = 0,
                    max_steps: int = 20000,
                    spin_threshold: int = 8,
                    ) -> Optional[Tuple[int, RunResult, Trace]]:
    """Search seeds until a bug is found; return its replayable trace.

    Returns ``(seed, result, trace)`` for the first bug-finding run, or
    None when the attempt budget is exhausted.  ``spin_threshold`` is
    recorded in the trace so the replay runs under the same heuristic.
    """
    for attempt in range(max_attempts):
        seed = base_seed + attempt
        result, trace = record_run(program_factory(),
                                   scheduler_factory(seed),
                                   max_steps=max_steps,
                                   spin_threshold=spin_threshold)
        trace.seed = seed
        if result.bug_found:
            return seed, result, trace
    return None
