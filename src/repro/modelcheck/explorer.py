"""Systematic exploration of the execution space (CDSChecker-style).

The randomized algorithms *sample* executions; for tiny programs we can
instead *enumerate* them: a DFS over every scheduling choice and every
coherence-visible reads-from choice, realized by replaying decision
prefixes (stateless model checking, as in CDSChecker — the paper's
reference [38]).

This provides ground truth for the test suite: the exact set of reachable
behaviours, whether a bug is reachable at all, and the fraction of buggy
executions — the denominator the randomized testers are up against.

    report = explore(store_buffering)
    report.executions     # 20 for SB: interleavings x rf choices
    report.buggy          # how many violate the assertion
    report.signatures     # distinct reads-from behaviours

The same DFS can bound its schedules instead.  The paper's related work
(Section 7) surveys systematic testing with bounded schedules — notably
iterative context bounding [Musuvathi & Qadeer, PLDI 2007], which
explores only executions with at most ``c`` *preemptive* context
switches (switching away from a thread that is still enabled).
:func:`explore_bounded` combines that with exhaustive reads-from
enumeration: a weak-memory ICB whose scheduling dimension is
preemption-bounded while the rf dimension stays exhaustive.  Empirically
(and per the ICB paper's thesis), small preemption bounds already reach
most scheduling-dependent bugs; :func:`preemption_ladder` reports how the
reachable behaviour set grows with the bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..harness.coverage import Signature, execution_signature
from ..memory.events import Event
from ..runtime.executor import RunResult, run_once
from ..runtime.program import Program
from ..runtime.scheduler import ReadContext, Scheduler

#: A decision: ("t", index-into-sorted-enabled) or ("r", candidate index).
Decision = Tuple[str, int]


class _PrefixScheduler(Scheduler):
    """Prefix replay with preemption accounting.

    Follows a decision prefix, then takes the first option within budget,
    recording for every decision which options may be branched on.  A
    thread choice is *preemptive* when it switches away from the
    previously running thread while that thread is still enabled; with
    ``bound`` set, alternatives beyond the remaining preemption budget are
    not offered for branching.  With ``bound=None`` every option is.
    """

    name = "enumerate"

    def __init__(self, prefix: List[Decision], bound: Optional[int]):
        super().__init__(seed=0)
        self.prefix = prefix
        self.bound = bound
        self.taken: List[Decision] = []
        #: Per-decision list of *branchable* option indices (respecting
        #: the budget at that point).
        self.viable: List[List[int]] = []
        self._last_tid: Optional[int] = None
        self._preemptions = 0

    def _options_within_budget(self, enabled: List[int]) -> List[int]:
        if self.bound is None or self._last_tid not in enabled \
                or self._preemptions < self.bound:
            # No budget, no running thread to preempt, or budget left:
            # every choice is free.
            return list(range(len(enabled)))
        return [enabled.index(self._last_tid)]

    def _decide(self, kind: str, viable: List[int]) -> int:
        position = len(self.taken)
        if position < len(self.prefix):
            expected_kind, choice = self.prefix[position]
            if expected_kind != kind:
                raise RuntimeError(
                    f"exploration divergence at {position}: prefix has "
                    f"{expected_kind!r}, run asks {kind!r}"
                )
        else:
            choice = viable[0]
        self.taken.append((kind, choice))
        self.viable.append(viable)
        return choice

    def choose_thread(self, state) -> int:
        enabled = sorted(state.enabled_tids())
        tid = enabled[self._decide(
            "t", self._options_within_budget(enabled))]
        if self._last_tid in enabled and tid != self._last_tid:
            self._preemptions += 1
        self._last_tid = tid
        return tid

    def choose_read_from(self, state, ctx: ReadContext) -> Event:
        candidates = ctx.candidates
        return candidates[self._decide("r", list(range(len(candidates))))]


@dataclass
class ExplorationReport:
    """Summary of a program's explored execution space."""

    program: str = ""
    #: Preemption bound the schedules were limited to; None = exhaustive.
    bound: Optional[int] = None
    executions: int = 0
    buggy: int = 0
    signatures: Set[Signature] = field(default_factory=set)
    buggy_signatures: Set[Signature] = field(default_factory=set)
    #: True when exploration stopped at the execution budget.
    truncated: bool = False
    #: One witness result for a buggy execution, if any was found.
    witness: Optional[RunResult] = None

    @property
    def bug_reachable(self) -> bool:
        return self.buggy > 0

    @property
    def bug_fraction(self) -> float:
        return self.buggy / self.executions if self.executions else 0.0


def explore_bounded(program_factory: Callable[[], Program],
                    preemption_bound: Optional[int] = 2,
                    max_executions: int = 20000,
                    max_steps: int = 2000) -> ExplorationReport:
    """ICB exploration: schedules with ≤ ``preemption_bound`` preemptions
    (``None``: any number), exhaustive over reads-from choices.

    DFS by prefix replay: each completed run reports the branchable
    options of every decision beyond its prefix; unexplored alternatives
    are pushed as new prefixes.
    """
    if preemption_bound is not None and preemption_bound < 0:
        raise ValueError("preemption bound must be >= 0")
    report = ExplorationReport(bound=preemption_bound)
    stack: List[List[Decision]] = [[]]
    while stack:
        if report.executions >= max_executions:
            report.truncated = True
            break
        prefix = stack.pop()
        scheduler = _PrefixScheduler(prefix, preemption_bound)
        result = run_once(program_factory(), scheduler, max_steps=max_steps)
        report.program = result.program
        report.executions += 1
        signature = execution_signature(result.graph)
        report.signatures.add(signature)
        if result.bug_found:
            report.buggy += 1
            report.buggy_signatures.add(signature)
            if report.witness is None:
                report.witness = result
        # Branch on every post-prefix decision with unexplored options.
        for position in range(len(prefix), len(scheduler.taken)):
            kind, chosen = scheduler.taken[position]
            for alternative in scheduler.viable[position]:
                if alternative > chosen:
                    stack.append(
                        scheduler.taken[:position] + [(kind, alternative)])
    return report


def explore(program_factory: Callable[[], Program],
            max_executions: int = 20000,
            max_steps: int = 2000) -> ExplorationReport:
    """Enumerate every (schedule x reads-from) execution of a program.

    Suitable for litmus-sized programs — the space is the product of all
    choice arities.
    """
    return explore_bounded(program_factory, None,
                           max_executions=max_executions,
                           max_steps=max_steps)


def preemption_ladder(program_factory: Callable[[], Program],
                      max_bound: int = 3,
                      max_executions: int = 20000,
                      ) -> Dict[int, ExplorationReport]:
    """Reports for bounds 0..max_bound: ICB's iterative deepening."""
    return {
        bound: explore_bounded(program_factory, bound,
                               max_executions=max_executions)
        for bound in range(max_bound + 1)
    }
