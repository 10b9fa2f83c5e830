"""Test campaigns: repeated randomized runs with hit-rate accounting.

A *campaign* runs a program factory under a scheduler factory for N trials
(the paper uses 1000 trials for Tables 2-3 and 500 for Figure 6) and
reports the bug hitting rate plus timing, mirroring the artifact's metrics
(Bug Hitting Rate %, Average Running time, Throughput).

Trial ``i`` is seeded by ``derive_trial_seed(base_seed, i)`` — a
splitmix-style derivation that makes trial streams independent across
nearby base seeds and identical between the serial path here and the
sharded parallel path in :mod:`repro.harness.parallel`.

Fast path
    Campaign trials share far more than they differ in: the same program,
    the same scheduler family, the same engine configuration.
    :class:`TrialRunner` exploits that — one warm scheduler instance
    reseeded per trial (registry specs only), one program object
    re-instantiated per run, one pooled :class:`ExecutionState` reset in
    place between trials.  With an artifact directory the executor logs
    every trial's decisions as it runs, so a failing trial's artifact
    takes its trace from the first and only execution.  Aggregation
    streams through :class:`CampaignAccumulator`, whose fold is
    order-independent and memory-bounded.  All of it is seed-for-seed
    identical to the one-object-web-per-trial slow path; the equivalence
    suite pins this.

Replay
    A trial's run is a function of its live scheduler draws and of the
    change points it reached, and on small programs those repeat.  A
    runner records each clean run's outcome in a draw tree
    (:mod:`repro.runtime.draws`) and answers a trial that retraces a
    recorded path from the tree, without executing it.
"""

from __future__ import annotations

import gc
import heapq
import math
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..core.c11tester import C11TesterScheduler
from ..core.naive import NaiveRandomScheduler
from ..core.pct import PCTScheduler
from ..core.pctwm import PCTWMScheduler
from ..memory.model import resolve_model
from ..replay.trace import Trace
from ..runtime.draws import DrawRandom, DrawTree
from ..runtime.executor import ExecutionState, Executor, RunResult
from ..runtime.program import Program
from ..runtime.scheduler import Scheduler
from .seeding import derive_trial_seed, sample_rank

ProgramFactory = Callable[[], Program]
SchedulerFactory = Callable[[int], Scheduler]

#: How many error summaries a campaign keeps verbatim; further errors are
#: still counted but not sampled (long campaigns must stay bounded).
ERROR_SAMPLE_LIMIT = 8

#: How many per-trial times ``CampaignResult.run_times_s`` retains.  Up
#: to this many trials the sample is the full population; beyond it, a
#: deterministic uniform reservoir (bottom-k by :func:`sample_rank`).
#: Exact mean/RSD always come from the aggregate sums, never the sample.
RUN_TIME_SAMPLE_LIMIT = 1024

#: ``--sanitize sampled`` checks every Nth trial (indices 0, N, 2N, ...),
#: bounding the sanitizer's overhead while still auditing the campaign.
SANITIZE_SAMPLE_STRIDE = 10

#: Valid values for the campaign ``sanitize`` knob.
SANITIZE_MODES = ("off", "sampled", "all")

#: With the cyclic collector disabled during a campaign loop, collect the
#: youngest generation every this many trials to bound floating garbage.
#: Every object a trial allocates stays in generation 0 until then, so
#: ``gc.collect(0)`` reclaims the trials' cycles without traversing the
#: long-lived objects a full collection would; the collector is
#: re-enabled when the campaign ends.  Pool workers, whose collector
#: stays off for their whole life, collect fully at this stride.
GC_COLLECT_STRIDE = 512

#: Smallest meaningful per-trial wall-clock budget.  The executor
#: enforces ``trial_timeout_s`` cooperatively, checking the clock once
#: per scheduler step; budgets below one step quantum cannot distinguish
#: a slow trial from any trial at all and just time everything out, so
#: the CLI rejects them (the API keeps accepting any value — tests use
#: 0.0 to force deterministic immediate timeouts).
TRIAL_TIMEOUT_MIN_S = 0.001


def sanitize_this_trial(sanitize: str, index: int) -> bool:
    """Whether trial ``index`` runs under the consistency sanitizer.

    Sampling is by trial *index*, not by a counter, so serial and sharded
    parallel campaigns sanitize exactly the same trials.
    """
    if sanitize == "all":
        return True
    if sanitize == "sampled":
        return index % SANITIZE_SAMPLE_STRIDE == 0
    return False


@dataclass(frozen=True)
class TrialConfig:
    """The settings every trial of one campaign runs under.

    Declared once here; the campaign entry points, the job spec and the
    pool workers build or pass this object instead of copying its fields.
    It crosses the process boundary with every shard, so the factories
    must be picklable (registry specs or module-level callables), and
    workers compare it by value to decide whether their cached
    :class:`TrialRunner` still applies.
    """

    program_factory: ProgramFactory
    scheduler_factory: SchedulerFactory
    base_seed: int = 0
    max_steps: int = 20000
    #: Per-trial wall-clock budget, checked once per scheduler step.
    trial_timeout_s: Optional[float] = None
    #: Consistency auditing: one of :data:`SANITIZE_MODES`.
    sanitize: str = "off"
    #: Failing trials write replayable artifacts here when set.
    artifact_dir: Optional[str] = None
    spin_threshold: int = 8
    #: Memory-model backend (``"c11"`` or ``"tso"``).
    model: str = "c11"

    def __post_init__(self) -> None:
        if self.sanitize not in SANITIZE_MODES:
            raise ValueError(
                f"sanitize must be one of {SANITIZE_MODES}, got "
                f"{self.sanitize!r}")


@dataclass
class CampaignResult:
    """Aggregate outcome of N randomized test runs."""

    program: str
    scheduler: str
    trials: int
    hits: int = 0
    inconclusive: int = 0
    total_steps: int = 0
    total_events: int = 0
    elapsed_s: float = 0.0
    #: Bounded deterministic sample of per-run elapsed times, in trial
    #: order — the full population while ``completed`` stays within
    #: :data:`RUN_TIME_SAMPLE_LIMIT`, a uniform reservoir beyond it.
    #: Exact aggregate statistics live in ``time_sum_s``/``time_sq_sum_s``
    #: (see :attr:`avg_run_time_s` / :attr:`run_time_rsd_pct`).
    run_times_s: List[float] = field(default_factory=list)
    #: Exact sum of per-trial elapsed times over *all* completed trials.
    time_sum_s: float = 0.0
    #: Exact sum of squared per-trial elapsed times (for the RSD).
    time_sq_sum_s: float = 0.0
    #: Worker processes used (1 = serial execution).
    jobs: int = 1
    #: Wall time of each shard, in shard (= trial) order; empty when
    #: the campaign ran serially.
    shard_times_s: List[float] = field(default_factory=list)
    #: Trials whose workload/scheduler raised an unexpected exception.
    #: These are contained faults, not bugs: the campaign keeps going.
    errors: int = 0
    #: Trials that exhausted their per-trial wall-clock budget.
    timeouts: int = 0
    #: Up to :data:`ERROR_SAMPLE_LIMIT` verbatim error summaries, in
    #: trial order, for post-mortem triage.
    error_samples: List[str] = field(default_factory=list)
    #: Trials actually folded into the aggregate.  Equals ``trials``
    #: unless the campaign was interrupted (SIGINT) before finishing.
    completed: int = 0
    #: True when the campaign stopped early on operator interrupt; the
    #: aggregates then cover only ``completed`` trials.
    interrupted: bool = False
    #: Trials restored from a checkpoint journal rather than re-run.
    resumed_trials: int = 0
    #: Trials whose execution graph violated the C11 consistency axioms
    #: (only counted when the sanitizer ran on that trial).  A nonzero
    #: count means the *engine* is broken — the run's verdicts are suspect.
    inconsistent: int = 0
    #: Up to :data:`ERROR_SAMPLE_LIMIT` verbatim axiom-violation
    #: summaries, in trial order.
    violation_samples: List[str] = field(default_factory=list)
    #: Paths of bug artifacts written during the campaign, trial order.
    artifacts: List[str] = field(default_factory=list)
    #: Workers the supervisor watchdog hard-killed for stale heartbeats
    #: (a wedged trial preempted from outside the process).  Infra
    #: metrics, not trial outcomes: the lost shards were retried, so the
    #: deterministic aggregates above are unaffected.
    hang_preemptions: int = 0
    #: Workers the watchdog recycled for exceeding the RSS ceiling.
    rss_recycles: int = 0

    @property
    def hit_rate(self) -> float:
        """Bug hitting rate in percent (the paper's headline metric)."""
        return 100.0 * self.hits / self.trials if self.trials else 0.0

    @property
    def faults(self) -> int:
        """Contained faults: errored plus timed-out trials."""
        return self.errors + self.timeouts

    @property
    def avg_time_ms(self) -> float:
        return 1000.0 * self.elapsed_s / self.trials if self.trials else 0.0

    @property
    def avg_run_time_s(self) -> float:
        """Exact mean per-trial time, independent of the bounded sample."""
        return self.time_sum_s / self.completed if self.completed else 0.0

    @property
    def run_time_rsd_pct(self) -> float:
        """Relative standard deviation of per-trial times, in percent.

        Computed from the exact aggregate sums (population std / mean),
        so it covers every completed trial even when ``run_times_s`` is
        a bounded sample.
        """
        n = self.completed
        if n < 2:
            return 0.0
        mean = self.time_sum_s / n
        if mean <= 0.0:
            return 0.0
        variance = self.time_sq_sum_s / n - mean * mean
        if variance <= 0.0:
            return 0.0
        return 100.0 * math.sqrt(variance) / mean

    def __str__(self) -> str:  # pragma: no cover - reporting aid
        text = (
            f"{self.program} / {self.scheduler}: "
            f"{self.hit_rate:.1f}% over {self.trials} runs "
            f"({self.avg_time_ms:.2f} ms/run)"
        )
        if self.errors or self.timeouts:
            text += f" [{self.errors} errors, {self.timeouts} timeouts]"
        if self.interrupted:
            text += f" [interrupted at {self.completed}/{self.trials}]"
        return text


@dataclass
class TrialRecord:
    """Outcome of a single campaign trial, in aggregation-ready form.

    This is what worker processes ship back to the parent: small, picklable,
    and ordered by ``index`` so shard merges are deterministic.
    """

    index: int
    bug_found: bool
    limit_exceeded: bool
    steps: int
    k: int
    elapsed_s: float
    #: True when the trial exhausted its wall-clock budget.
    timed_out: bool = False
    #: ``"ExcType: message @ file:line"`` when the trial raised instead of
    #: completing; ``None`` for a clean run.  Errored trials report zero
    #: steps/events and never count as bugs.
    error: Optional[str] = None
    #: True when the sanitizer found the trial's graph axiom-inconsistent.
    inconsistent: bool = False
    #: The axiom violations behind ``inconsistent`` (strings, bounded).
    violations: List[str] = field(default_factory=list)
    #: Path of the bug artifact written for this trial, if any.
    artifact: Optional[str] = None


class CampaignAccumulator:
    """Order-independent, memory-bounded streaming fold of trial records.

    Counters and time sums are plain commutative additions; the bounded
    collections are deterministic functions of the record *set*:

    * ``run_times_s`` keeps the :data:`RUN_TIME_SAMPLE_LIMIT` trials with
      the smallest :func:`sample_rank` (a uniform reservoir);
    * error and violation samples keep the :data:`ERROR_SAMPLE_LIMIT`
      lowest-indexed offenders — exactly "the first N in trial order",
      however the records actually arrived.

    Folding the same records in any order therefore finalizes into the
    identical :class:`CampaignResult`, which is what keeps serial,
    sharded-parallel, retried, and checkpoint-resumed campaigns
    bit-identical while shard results stream in as they finish.
    """

    def __init__(self) -> None:
        self.completed = 0
        self.hits = 0
        self.inconclusive = 0
        self.total_steps = 0
        self.total_events = 0
        self.errors = 0
        self.timeouts = 0
        self.inconsistent = 0
        self.time_sum_s = 0.0
        self.time_sq_sum_s = 0.0
        #: Min-heap of ``(-rank, index, elapsed)``: the root is the
        #: largest-rank member, i.e. the one a better candidate evicts.
        self._times: list = []
        #: Min-heap of ``(-index, summary)``: root = highest index.
        self._error_samples: list = []
        #: Min-heap of ``(-index, violation tuple)`` per offending trial.
        self._violation_samples: list = []
        #: ``(index, path)`` pairs; sorted once at finalize.
        self._artifacts: list = []

    def add(self, record: TrialRecord) -> None:
        """Fold one trial record (any order, idempotent per index)."""
        self.completed += 1
        elapsed = record.elapsed_s
        self.time_sum_s += elapsed
        self.time_sq_sum_s += elapsed * elapsed
        entry = (-sample_rank(record.index), record.index, elapsed)
        if len(self._times) < RUN_TIME_SAMPLE_LIMIT:
            heapq.heappush(self._times, entry)
        elif entry > self._times[0]:
            heapq.heapreplace(self._times, entry)
        if record.artifact:
            self._artifacts.append((record.index, record.artifact))
        if record.error is not None:
            self.errors += 1
            sample = (-record.index, f"trial {record.index}: {record.error}")
            if len(self._error_samples) < ERROR_SAMPLE_LIMIT:
                heapq.heappush(self._error_samples, sample)
            elif sample > self._error_samples[0]:
                heapq.heapreplace(self._error_samples, sample)
            return
        if record.inconsistent:
            self.inconsistent += 1
            if record.violations:
                sample = (-record.index, tuple(record.violations))
                if len(self._violation_samples) < ERROR_SAMPLE_LIMIT:
                    heapq.heappush(self._violation_samples, sample)
                elif sample > self._violation_samples[0]:
                    heapq.heapreplace(self._violation_samples, sample)
        if record.bug_found:
            self.hits += 1
        if record.limit_exceeded:
            self.inconclusive += 1
        if record.timed_out:
            self.timeouts += 1
        self.total_steps += record.steps
        self.total_events += record.k

    def finalize(self, result: CampaignResult) -> None:
        """Materialize the aggregate into ``result`` (idempotent)."""
        result.completed = self.completed
        result.hits = self.hits
        result.inconclusive = self.inconclusive
        result.total_steps = self.total_steps
        result.total_events = self.total_events
        result.errors = self.errors
        result.timeouts = self.timeouts
        result.inconsistent = self.inconsistent
        result.time_sum_s = self.time_sum_s
        result.time_sq_sum_s = self.time_sq_sum_s
        result.run_times_s = [
            elapsed for _, _, elapsed
            in sorted(self._times, key=lambda entry: entry[1])
        ]
        result.error_samples = [
            text for _, text
            in sorted(self._error_samples, key=lambda entry: -entry[0])
        ]
        violations: List[str] = []
        for neg_index, texts in sorted(self._violation_samples,
                                       key=lambda entry: -entry[0]):
            for text in texts:
                if len(violations) >= ERROR_SAMPLE_LIMIT:
                    break
                violations.append(f"trial {-neg_index}: {text}")
        result.violation_samples = violations
        result.artifacts = [path for _, path in sorted(self._artifacts)]


def summarize_exception(exc: BaseException) -> str:
    """One-line fault summary: exception type, message, innermost frame."""
    site = ""
    tb = exc.__traceback__
    while tb is not None and tb.tb_next is not None:
        tb = tb.tb_next
    if tb is not None:
        filename = os.path.basename(tb.tb_frame.f_code.co_filename)
        site = f" @ {filename}:{tb.tb_lineno}"
    message = str(exc)
    if len(message) > 200:
        message = message[:197] + "..."
    return f"{type(exc).__name__}: {message}{site}"


class TrialRunner:
    """Executes campaign trials with warm, reusable per-worker state.

    One runner serves many trials of the same campaign and keeps the
    expensive invariants alive between them:

    * **Scheduler**: when the factory declares ``supports_reuse`` (true
      of registry :class:`~repro.core.factory.SchedulerSpec`), one
      instance is constructed and :meth:`~repro.runtime.scheduler
      .Scheduler.reseed`-ed per trial; otherwise a fresh instance per
      trial, exactly as before.
    * **Program**: factories declaring ``supports_reuse`` (registry
      :class:`~repro.workloads.registry.ProgramSpec`) build the program
      once; ``instantiate()`` re-primes fresh generator threads per run.
    * **Execution state**: the graph and trackers are pooled and reset
      in place between runs instead of reallocated (safe because
      campaigns never keep run graphs).
    * **Recording**: with an ``artifact_dir`` the executor's decision
      log is on, and a failing trial's artifact takes its trace from
      that log; without one nothing is logged.  The log consumes no
      randomness, so outcomes do not depend on it.
    * **Replay**: ``supports_reuse`` on both factories also promises that
      a run is a function of its live draws and of the change points it
      reached (see :mod:`repro.runtime.draws`).  The warm scheduler then
      draws through a :class:`~repro.runtime.draws.DrawRandom`, and a
      :class:`~repro.runtime.draws.DrawTree` maps every clean run's
      draws to its outcome.  A priority scheduler's plan is drawn before
      the walk, for the threads of the last executed run, and the tree
      answers its observations from it; a plan drawn for other threads
      makes the run draw its own and drops the tree.  A trial that
      retraces a recorded path returns that outcome without executing;
      ``replayed`` counts them.  Only trials whose outcome is all the caller wants are
      eligible: no sanitizer, no ``artifact_dir``, no
      ``trial_timeout_s``.  A program that turns out not to be a
      function of its draws loses its tree and runs plain from then on.

    Every reuse lever is seed-for-seed neutral: a runner's records match
    those of a fresh runner, field for field (timings aside).
    """

    def __init__(self, config: TrialConfig):
        self.config = config
        self._model = resolve_model(config.model)
        self._reuse_scheduler = bool(
            getattr(config.scheduler_factory, "supports_reuse", False))
        self._reuse_program = bool(
            getattr(config.program_factory, "supports_reuse", False))
        self._scheduler: Optional[Scheduler] = None
        self._program: Optional[Program] = None
        self._state: Optional[ExecutionState] = None
        self._executor: Optional[Executor] = None
        replayable = (self._reuse_scheduler and self._reuse_program
                      and config.artifact_dir is None
                      and config.trial_timeout_s is None)
        self._tree: Optional[DrawTree] = DrawTree() if replayable else None
        self._rng: Optional[DrawRandom] = DrawRandom() if replayable else None
        #: Trials answered from the draw tree instead of executed.
        self.replayed = 0

    # -- warm components -----------------------------------------------------

    def _checkout_scheduler(self, trial_seed: int) -> Scheduler:
        factory = self.config.scheduler_factory
        if not self._reuse_scheduler:
            return factory(trial_seed)
        if self._scheduler is None:
            self._scheduler = factory(trial_seed)
            if self._rng is not None:
                self._scheduler.rng = self._rng
                self._rng.seed(trial_seed)
                self._tree.planned = hasattr(self._scheduler, "draw_plan")
        else:
            self._scheduler.reseed(trial_seed)
        return self._scheduler

    def _checkout_program(self) -> Program:
        if not self._reuse_program:
            return self.config.program_factory()
        if self._program is None:
            self._program = self.config.program_factory()
        return self._program

    def _execute(self, program: Program, scheduler: Scheduler,
                 sanitize_run: bool, trace: Optional[Trace]) -> RunResult:
        config = self.config
        executor = self._executor
        if executor is None or executor.program is not program:
            executor = self._executor = self._model.make_executor(
                program, scheduler, max_steps=config.max_steps,
                spin_threshold=config.spin_threshold, keep_graph=False,
                wall_timeout_s=config.trial_timeout_s,
                sanitize=sanitize_run,
            )
        else:
            executor.scheduler = scheduler
            executor.sanitize = sanitize_run
        executor.decisions = None if trace is None else trace.decisions
        state = self._state
        if state is None or state.program is not program:
            state = self._state = self._model.make_state(
                program, config.spin_threshold, fast=True)
        else:
            state.reset(program)
        if trace is not None:
            # Named only once the run starts: a program whose threads
            # crash while being primed leaves an anonymous, empty trace.
            trace.program = program.name
        return executor.run(state)

    # -- one trial -----------------------------------------------------------

    def run(self, index: int) -> TrialRecord:
        """Run campaign trial ``index`` — the unit shared by serial and
        parallel campaigns, so both execute bit-identical work.

        Faults are *contained*: any exception escaping the workload, the
        scheduler, or the engine (``ReproError``,
        ``ProgramDefinitionError``, arbitrary workload crashes) becomes a
        :class:`TrialRecord` with ``error`` set instead of aborting the
        campaign.  ``KeyboardInterrupt`` and ``SystemExit`` still
        propagate — interrupting a campaign is an operator action, not a
        trial fault.

        With ``sanitize`` on (``"all"``, or ``"sampled"`` for every
        :data:`SANITIZE_SAMPLE_STRIDE`-th trial) the run additionally
        audits its execution graph against the C11 consistency axioms;
        violations mark the record ``inconsistent`` without aborting
        anything.  With ``artifact_dir`` set, any
        bug/error/timeout/inconsistent outcome is serialized as a
        replayable JSON artifact in that directory (written here, in the
        worker, so it survives the process boundary), its decision trace
        logged while the trial ran.

        Without either, and without a ``trial_timeout_s``, a trial whose
        scheduler draws retrace an earlier clean trial's returns that
        trial's outcome without executing (see :class:`TrialRunner`).
        """
        config = self.config
        trial_seed = derive_trial_seed(config.base_seed, index)
        sanitize_run = sanitize_this_trial(config.sanitize, index)
        tree = None
        rng = self._rng
        trace: Optional[Trace] = None
        run: Optional[RunResult] = None
        error: Optional[str] = None
        t0 = time.perf_counter()
        try:
            scheduler = self._checkout_scheduler(trial_seed)
            tree = None if sanitize_run else self._tree
            if tree is not None:
                counter = perm = None
                keys = ()
                if tree.planned:
                    counter = scheduler.plan_count
                    if scheduler.last_tids is not None:
                        perm, keys = rng.capture(scheduler.draw_plan,
                                                 scheduler.last_tids)
                leaf = tree.walk(rng._randbelow_with_getrandbits, perm, keys)
                if leaf is not None:
                    self.replayed += 1
                    return TrialRecord(index, *leaf,
                                       elapsed_s=time.perf_counter() - t0)
                # A planned run logs only a plan drawn ahead: the first
                # run of a runner draws its own.
                log = None if tree.full or (tree.planned and perm is None) \
                    else []
                rng.follow(tree.forced, log, counter)
            elif rng is not None:
                rng.follow()
            if config.artifact_dir is not None:
                trace = Trace(scheduler=scheduler.name)
            run = self._execute(self._checkout_program(), scheduler,
                                sanitize_run, trace)
        except Exception as exc:
            error = summarize_exception(exc)
            run = None
        elapsed = time.perf_counter() - t0
        if tree is not None:
            self._learn(tree, run, error)
        if error is not None:
            record = TrialRecord(
                index=index,
                bug_found=False,
                limit_exceeded=False,
                steps=0,
                k=0,
                elapsed_s=elapsed,
                error=error,
            )
        else:
            record = TrialRecord(
                index=index,
                bug_found=run.bug_found,
                limit_exceeded=run.limit_exceeded,
                steps=run.steps,
                k=run.k,
                elapsed_s=elapsed,
                timed_out=run.timed_out,
                inconsistent=run.inconsistent,
                violations=list(run.violations),
            )
        if config.artifact_dir is not None:
            record.artifact = self._emit_artifact(
                index, trial_seed, trace, run, error)
        return record

    def _learn(self, tree: DrawTree, run: Optional[RunResult],
               error: Optional[str]) -> None:
        """Record a clean run's outcome under the draws it took; drop
        the tree when the run shows the program is not a function of
        its draws."""
        rng = self._rng
        if rng.diverged:
            self._tree = None
        elif (error is None and rng.log is not None and not rng.continuous
                and not run.timed_out and not run.inconsistent):
            # TrialRecord's leading fields, in order (see run()).
            leaf = (run.bug_found, run.limit_exceeded, run.steps, run.k)
            if rng.counter is not None:
                rng.log.append(rng.counter())
            if not tree.insert(rng.log, leaf):
                self._tree = None

    # -- artifacts -----------------------------------------------------------

    def _emit_artifact(self, index: int, trial_seed: int,
                       trace: Optional[Trace], run: Optional[RunResult],
                       error: Optional[str]) -> Optional[str]:
        """Write the trial's replayable artifact, if its outcome merits one.

        Best-effort and outside the timed region: a full disk or an
        unwritable directory must not fail the trial.  A trial whose
        scheduler could not even be built has no trace and no artifact.
        """
        from .artifact import (BugArtifact, artifact_path, classify_outcome,
                               program_spec_dict, scheduler_spec_dict)

        outcome = classify_outcome(run, error)
        if trace is None or outcome is None:
            return None
        trace = self._record_failure(trace, trial_seed)
        config = self.config
        try:
            artifact = BugArtifact(
                outcome=outcome,
                program=trace.program
                or getattr(config.program_factory, "name", ""),
                scheduler=trace.scheduler,
                trial_index=index,
                trial_seed=trial_seed,
                base_seed=config.base_seed,
                max_steps=config.max_steps,
                spin_threshold=config.spin_threshold,
                model=config.model,
                trace=trace,
                steps=run.steps if run is not None else 0,
                bug_kind=run.bug_kind if run is not None else None,
                bug_message=run.bug_message if run is not None else None,
                error=error,
                violations=list(run.violations) if run is not None else [],
                diagnostics=run.diagnostics if run is not None else None,
                program_spec=program_spec_dict(config.program_factory),
                scheduler_spec=scheduler_spec_dict(config.scheduler_factory),
            )
            os.makedirs(config.artifact_dir, exist_ok=True)
            return artifact.save(artifact_path(config.artifact_dir, index))
        except Exception as exc:  # pragma: no cover - defensive
            print(f"warning: trial {index}: could not write artifact: "
                  f"{summarize_exception(exc)}", file=sys.stderr)
            return None

    def _record_failure(self, trace: Trace, trial_seed: int) -> Trace:
        """The failing trial's replayable trace, built from its log.

        The executor logged the decisions while the trial ran, up to
        where it stopped: a timeout at its last step, an error at the
        decision that raised.  Only the replay settings remain to stamp.
        """
        trace.seed = trial_seed
        trace.spin_threshold = self.config.spin_threshold
        return trace


def resolve_campaign_names(config: TrialConfig,
                           scheduler_name: Optional[str]) -> tuple:
    """The (program, scheduler) display names for a campaign result.

    Builds a throwaway probe scheduler only when the caller did not name
    the scheduler — factory specs carry their name statically.  A probe
    that *raises* is contained (the campaign must survive a crashing
    workload to report it as errors), falling back to the factory's own
    name.
    """
    program_factory = config.program_factory
    scheduler_factory = config.scheduler_factory
    if scheduler_name is None:
        scheduler_name = getattr(scheduler_factory, "scheduler_name", None)
    if scheduler_name is None:
        try:
            scheduler_name = scheduler_factory(
                derive_trial_seed(config.base_seed, 0)).name
        except Exception:
            scheduler_name = getattr(scheduler_factory, "__name__",
                                     "<scheduler>")
    try:
        program_name = program_factory().name
    except Exception:
        program_name = getattr(program_factory, "name", None) \
            or getattr(program_factory, "__name__", "<program>")
    return program_name, scheduler_name


def run_campaign(program_factory: ProgramFactory,
                 scheduler_factory: SchedulerFactory,
                 trials: int = 100,
                 base_seed: int = TrialConfig.base_seed,
                 max_steps: int = TrialConfig.max_steps,
                 scheduler_name: Optional[str] = None,
                 trial_timeout_s: Optional[float] = None,
                 sanitize: str = TrialConfig.sanitize,
                 artifact_dir: Optional[str] = None,
                 spin_threshold: int = TrialConfig.spin_threshold,
                 model: str = TrialConfig.model,
                 ) -> CampaignResult:
    """Run ``trials`` independent randomized tests and aggregate.

    The keyword settings are those of :class:`TrialConfig`.  Trials that
    raise are contained as ``errors``; trials that exhaust
    ``trial_timeout_s`` of wall clock are contained as ``timeouts`` —
    neither aborts the campaign (see :meth:`TrialRunner.run`).
    ``sanitize`` audits trial graphs against the consistency axioms
    (``"sampled"``: every :data:`SANITIZE_SAMPLE_STRIDE`-th trial;
    ``"all"``: every trial); ``artifact_dir`` makes failing trials emit
    replayable bug artifacts there.  ``model`` selects the memory-model
    backend every trial executes under (``"c11"`` default, ``"tso"``);
    artifacts record it so replay picks the same backend.

    Trials execute on one warm :class:`TrialRunner` with the cyclic
    garbage collector paused (generation 0 collected every
    :data:`GC_COLLECT_STRIDE` trials) — seed-for-seed identical
    outcomes to running each trial in isolation, at a fraction of the
    per-trial overhead.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    config = TrialConfig(
        program_factory, scheduler_factory, base_seed=base_seed,
        max_steps=max_steps, trial_timeout_s=trial_timeout_s,
        sanitize=sanitize, artifact_dir=artifact_dir,
        spin_threshold=spin_threshold, model=model)
    program_name, sched_name = resolve_campaign_names(config, scheduler_name)
    result = CampaignResult(
        program=program_name,
        scheduler=sched_name,
        trials=trials,
    )
    runner = TrialRunner(config)
    acc = CampaignAccumulator()
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    start = time.perf_counter()
    try:
        for i in range(trials):
            acc.add(runner.run(i))
            if (i + 1) % GC_COLLECT_STRIDE == 0:
                gc.collect(0)
    finally:
        if gc_was_enabled:
            gc.enable()
    result.elapsed_s = time.perf_counter() - start
    acc.finalize(result)
    return result


# -- convenience scheduler factories ------------------------------------------


def pctwm_factory(depth: int, k_com: int,
                  history: int = 1) -> SchedulerFactory:
    return lambda seed: PCTWMScheduler(depth, k_com, history, seed=seed)


def pct_factory(depth: int, k_events: int) -> SchedulerFactory:
    return lambda seed: PCTScheduler(depth, k_events, seed=seed)


def c11tester_factory() -> SchedulerFactory:
    return lambda seed: C11TesterScheduler(seed=seed)


def naive_factory() -> SchedulerFactory:
    return lambda seed: NaiveRandomScheduler(seed=seed)
