"""Campaign job specs: validated, serializable units of service work.

A :class:`JobSpec` is everything needed to run one hit-rate campaign —
the same knobs ``python -m repro campaign`` exposes, as one
JSON-serializable record.  The CLI and the campaign daemon share this
module so a spec rejected interactively is rejected identically over
HTTP (same messages, same rules), and a spec accepted by either runs
through the exact same :func:`repro.harness.run_campaign_parallel`
engine with the same seed-deterministic results.

Split of responsibilities:

* :meth:`JobSpec.validate` — cheap structural/registry checks, safe to
  run in an HTTP handler thread at submit time.
* :func:`resolve_factories` — turns a valid spec into picklable
  ``(ProgramSpec, SchedulerSpec)`` factories, running the scheduler
  parameter estimation (``estimate_parameters``) the CLI has always
  done.  Estimation executes the benchmark a few times, so the daemon
  defers it to the worker thread, not the submit path.
* :func:`run_job` — executes the campaign for a spec, wiring in the
  service's checkpoint journal and watchdog stats.
* :func:`result_summary` — the JSON projection of a
  :class:`~repro.harness.campaign.CampaignResult` stored on the job
  record and returned by the results endpoint.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Optional

from ..core.factory import SCHEDULER_REGISTRY
from ..harness.campaign import (
    SANITIZE_MODES,
    TRIAL_TIMEOUT_MIN_S,
    CampaignResult,
    TrialConfig,
)
from ..harness.options import (
    NONNEGATIVE_INT,
    POSITIVE_FLOAT,
    POSITIVE_INT,
    Bound,
    Choice,
    check_fields,
    option,
)
from ..harness.parallel import (
    CampaignProgress,
    check_watchdog_limits,
    run_campaign_parallel,
)
from ..harness.watchdog import WatchdogStats
from ..memory.model import available_models, resolve_model
from ..workloads import BENCHMARKS

__all__ = [
    "JobSpec",
    "resolve_factories",
    "result_summary",
    "run_job",
]

#: Values of the retired ``record_mode`` field.  Artifacts now always take
#: their trace from the first run, so both mean the same and
#: :meth:`JobSpec.from_dict` drops them from older job records.
_RETIRED_RECORD_MODES = ("on_failure", "always")


@dataclass
class JobSpec:
    """One campaign request; every field round-trips through JSON.

    Each field is declared once (:mod:`repro.harness.options`); the
    ``campaign``/``job submit`` flags and :meth:`validate` read it.
    """

    benchmark: str = option(
        rule=Choice("benchmark", BENCHMARKS, listed=False),
        help="benchmark program to test")
    scheduler: str = option(
        "pctwm", Choice("scheduler", SCHEDULER_REGISTRY, listed=False),
        help="scheduler under test, by registry name")
    trials: int = option(100, POSITIVE_INT, help="trials to run")
    seed: int = option(TrialConfig.base_seed, NONNEGATIVE_INT,
                       help="base of the per-trial seeds")
    jobs: int = option(1, POSITIVE_INT,
                       help="worker processes; results do not depend on it")
    depth: Optional[int] = option(
        None, NONNEGATIVE_INT,
        help="PCTWM bug depth d (default: the benchmark's calibrated one)")
    history: Optional[int] = option(
        None, POSITIVE_INT,
        help="PCTWM history depth h (default: the benchmark's best)")
    max_steps: int = option(TrialConfig.max_steps, POSITIVE_INT,
                            help="step budget per trial")
    trial_timeout_s: Optional[float] = option(
        None, Bound(float, TRIAL_TIMEOUT_MIN_S,
                    why=" (one scheduler-step quantum)"),
        flag="--trial-timeout", metavar="SECONDS",
        help="per-trial wall-clock budget; over-budget trials are "
             "recorded as timeouts, not hangs")
    hang_timeout_s: Optional[float] = option(
        None, POSITIVE_FLOAT, flag="--hang-timeout", metavar="SECONDS",
        help="preemptive hang budget: a pool worker whose heartbeat stays "
             "stale this long is hard-killed and its shard retried "
             "(bit-identically); must exceed --trial-timeout")
    memory_limit_mb: Optional[float] = option(
        None, POSITIVE_FLOAT, metavar="MIB",
        help="soft per-worker RSS ceiling; workers above it are recycled "
             "without affecting results")
    max_retries: int = option(
        2, NONNEGATIVE_INT,
        help="retries per shard lost to a dead worker before degrading "
             "to in-process execution")
    sanitize: str = option(
        TrialConfig.sanitize, Choice("sanitize mode", SANITIZE_MODES),
        help="audit execution graphs against the C11 consistency axioms "
             "(sampled = every 10th trial); violations are reported as "
             "'inconsistent', never aborts")
    model: str = option(
        TrialConfig.model, Choice("model", available_models()),
        help="memory-model backend to execute under (default: the C11 "
             "axiomatic engine; 'tso' runs the x86-TSO store-buffer "
             "backend)")
    artifact_dir: Optional[str] = option(
        None, flag="--artifacts", metavar="DIR",
        help="write a replayable JSON artifact here for every trial that "
             "finds a bug, errors, times out, or is flagged inconsistent")

    #: A ``record_mode`` value :meth:`from_dict` could not drop, kept for
    #: :meth:`validate` to reject.  Not a field, so never serialized.
    _bad_record_mode = None

    @classmethod
    def from_dict(cls, obj: dict) -> "JobSpec":
        """Build a spec from untrusted JSON; unknown keys are rejected.

        The retired ``record_mode`` key is dropped when it holds one of
        its old values, so job records persisted before its retirement
        still load; any other value fails :meth:`validate`.
        """
        if not isinstance(obj, dict):
            raise ValueError("job spec must be a JSON object")
        obj = dict(obj)
        record_mode = obj.pop("record_mode", None)
        unknown = sorted(set(obj) - set(cls.__dataclass_fields__))
        if unknown:
            raise ValueError(
                f"unknown job spec field(s): {', '.join(unknown)}")
        if "benchmark" not in obj:
            raise ValueError("job spec requires a 'benchmark'")
        spec = cls(**obj)
        if record_mode is not None \
                and record_mode not in _RETIRED_RECORD_MODES:
            spec._bad_record_mode = record_mode
        return spec

    def to_dict(self) -> dict:
        return asdict(self)

    def validate(self) -> None:
        """Raise ``ValueError`` on any invalid field: each against its
        declaration (type first), then the rules that span fields.  The
        CLI and the daemon both call this, so their messages match."""
        check_fields(self)
        model = resolve_model(self.model)
        if not model.supports_scheduler(self.scheduler):
            raise ValueError(
                f"scheduler {self.scheduler!r} is not supported under the "
                f"{model.name} memory model; supported: "
                + ", ".join(model.scheduler_allowlist))
        check_watchdog_limits(self.trial_timeout_s, self.hang_timeout_s,
                              self.memory_limit_mb)
        if self._bad_record_mode is not None:
            raise ValueError(
                f"unknown record mode {self._bad_record_mode!r}; the "
                "retired record_mode field accepts only "
                + ", ".join(_RETIRED_RECORD_MODES))


def resolve_factories(spec: JobSpec):
    """Picklable ``(program, scheduler)`` factories for a valid spec.

    Runs the per-benchmark parameter estimation (``k``/``k_com``) the
    schedulers need — a few real program executions, so call this from
    the thread that will run the campaign, not from a request handler.
    """
    from ..core.depth import estimate_parameters
    from ..core.factory import SchedulerSpec
    from ..workloads import BENCHMARKS, ProgramSpec

    info = BENCHMARKS[spec.benchmark]
    program = ProgramSpec(info.name)
    depth = spec.depth if spec.depth is not None else info.measured_depth
    history = spec.history if spec.history is not None \
        else info.best_history
    params = {}
    if spec.scheduler in ("pctwm", "pctwm-fullbag", "pctwm-eager",
                          "pctwm-nodelay"):
        est = estimate_parameters(info.build(), runs=3, seed=spec.seed,
                                  model=spec.model)
        params = {"depth": depth, "k_com": est.k_com, "history": history}
    elif spec.scheduler == "pctwm-nohistory":
        est = estimate_parameters(info.build(), runs=3, seed=spec.seed,
                                  model=spec.model)
        params = {"depth": depth, "k_com": est.k_com}
    elif spec.scheduler in ("pct", "ppct"):
        est = estimate_parameters(info.build(), runs=3, seed=spec.seed,
                                  model=spec.model)
        params = {"depth": max(depth, 1), "k_events": est.k}
    return program, SchedulerSpec(spec.scheduler, params)


def run_job(spec: JobSpec,
            checkpoint: Optional[str] = None,
            resume: bool = False,
            progress: Optional[Callable[[CampaignProgress], None]] = None,
            watchdog_stats: Optional[WatchdogStats] = None,
            start_method: Optional[str] = None,
            jobs_override: Optional[int] = None,
            on_pool_change: Optional[Callable[[int], None]] = None,
            ) -> CampaignResult:
    """Execute one campaign job; the service's single entry point.

    ``start_method`` matters in the daemon: it holds live HTTP threads,
    and forking a threaded process is unsafe, so the daemon passes
    ``forkserver``/``spawn`` explicitly rather than inheriting the
    fork default.

    ``jobs_override`` is the daemon's worker count: it runs this
    campaign with fewer workers than ``spec.jobs`` asked for when its
    ``--worker-budget`` is smaller.  Results are unaffected — campaign
    aggregates are bit-identical for any worker count.
    ``on_pool_change`` forwards pool-worker deltas (see
    :func:`run_campaign_parallel`) so the daemon can meter live workers
    against its budget.
    """
    program, scheduler = resolve_factories(spec)
    jobs = spec.jobs if jobs_override is None else jobs_override
    return run_campaign_parallel(
        program, scheduler,
        trials=spec.trials, base_seed=spec.seed,
        max_steps=spec.max_steps, jobs=jobs,
        progress=progress,
        trial_timeout_s=spec.trial_timeout_s,
        checkpoint=checkpoint, resume=resume,
        max_retries=spec.max_retries,
        start_method=start_method,
        sanitize=spec.sanitize,
        artifact_dir=spec.artifact_dir,
        model=spec.model,
        hang_timeout_s=spec.hang_timeout_s,
        memory_limit_mb=spec.memory_limit_mb,
        watchdog_stats=watchdog_stats,
        on_pool_change=on_pool_change,
    )


def result_summary(result: CampaignResult) -> dict:
    """JSON projection of a campaign result for job records and HTTP.

    Deliberately the deterministic aggregates plus operational metrics —
    not the bounded per-trial samples, which are a post-mortem aid the
    journal already holds in full.
    """
    return {
        "program": result.program,
        "scheduler": result.scheduler,
        "trials": result.trials,
        "completed": result.completed,
        "hits": result.hits,
        "hit_rate_pct": round(result.hit_rate, 3),
        "inconclusive": result.inconclusive,
        "total_steps": result.total_steps,
        "total_events": result.total_events,
        "errors": result.errors,
        "timeouts": result.timeouts,
        "inconsistent": result.inconsistent,
        "interrupted": result.interrupted,
        "resumed_trials": result.resumed_trials,
        "elapsed_s": round(result.elapsed_s, 3),
        "jobs": result.jobs,
        "hang_preemptions": result.hang_preemptions,
        "rss_recycles": result.rss_recycles,
        "artifacts": list(result.artifacts),
    }
