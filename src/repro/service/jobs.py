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

from ..harness.campaign import TRIAL_TIMEOUT_MIN_S, CampaignResult
from ..harness.parallel import CampaignProgress, run_campaign_parallel
from ..harness.watchdog import WatchdogStats

__all__ = [
    "JobSpec",
    "resolve_factories",
    "result_summary",
    "run_job",
]

_SANITIZE_CHOICES = ("off", "sampled", "all")
_MODEL_CHOICES = ("c11", "tso")
#: Values of the retired ``record_mode`` field.  Artifacts now always take
#: their trace from the first run, so both mean the same and
#: :meth:`JobSpec.from_dict` drops them from older job records.
_RETIRED_RECORD_MODES = ("on_failure", "always")


@dataclass
class JobSpec:
    """One campaign request; every field round-trips through JSON."""

    benchmark: str
    scheduler: str = "pctwm"
    trials: int = 100
    seed: int = 0
    jobs: int = 1
    depth: Optional[int] = None
    history: Optional[int] = None
    max_steps: int = 20000
    trial_timeout_s: Optional[float] = None
    hang_timeout_s: Optional[float] = None
    memory_limit_mb: Optional[float] = None
    max_retries: int = 2
    sanitize: str = "off"
    model: str = "c11"
    artifact_dir: Optional[str] = None

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
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        unknown = sorted(set(obj) - known)
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
        """Raise ``ValueError`` on any invalid field.

        Messages match what ``python -m repro campaign`` has always
        printed for the registry checks, so CLI output stays stable now
        that both paths share this method.
        """
        from ..core.factory import SCHEDULER_REGISTRY
        from ..memory.model import resolve_model
        from ..workloads import BENCHMARKS

        if self.scheduler not in SCHEDULER_REGISTRY:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; known: "
                + ", ".join(sorted(SCHEDULER_REGISTRY)))
        if self.model not in _MODEL_CHOICES:
            raise ValueError(
                f"unknown model {self.model!r}; known: "
                + ", ".join(_MODEL_CHOICES))
        model = resolve_model(self.model)
        if not model.supports_scheduler(self.scheduler):
            raise ValueError(
                f"scheduler {self.scheduler!r} is not supported under the "
                f"{model.name} memory model; supported: "
                + ", ".join(model.scheduler_allowlist))
        if self.benchmark not in BENCHMARKS:
            raise ValueError(
                f"unknown benchmark {self.benchmark!r}; known: "
                + ", ".join(sorted(BENCHMARKS)))
        if not isinstance(self.trials, int) or self.trials < 1:
            raise ValueError("trials must be an integer >= 1")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError("seed must be an integer >= 0")
        if not isinstance(self.jobs, int) or self.jobs < 1:
            raise ValueError("jobs must be an integer >= 1")
        if not isinstance(self.max_steps, int) or self.max_steps < 1:
            raise ValueError("max_steps must be an integer >= 1")
        if not isinstance(self.max_retries, int) or self.max_retries < 0:
            raise ValueError("max_retries must be an integer >= 0")
        if self.trial_timeout_s is not None \
                and self.trial_timeout_s < TRIAL_TIMEOUT_MIN_S:
            raise ValueError(
                f"trial_timeout_s must be >= {TRIAL_TIMEOUT_MIN_S} "
                f"(one scheduler-step quantum)")
        if self.hang_timeout_s is not None and self.hang_timeout_s <= 0:
            raise ValueError("hang_timeout_s must be positive")
        if self.memory_limit_mb is not None and self.memory_limit_mb <= 0:
            raise ValueError("memory_limit_mb must be positive")
        if (self.hang_timeout_s is not None
                and self.trial_timeout_s is not None
                and self.hang_timeout_s <= self.trial_timeout_s):
            raise ValueError(
                "hang_timeout_s must exceed trial_timeout_s: the "
                "cooperative per-trial budget should fire before the "
                "preemptive one")
        if self.sanitize not in _SANITIZE_CHOICES:
            raise ValueError(
                f"unknown sanitize mode {self.sanitize!r}; known: "
                + ", ".join(_SANITIZE_CHOICES))
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
