"""Replayable bug artifacts: a found failure that survives the process.

A campaign trial that finds something — a bug, an engine fault, a
wall-clock timeout, a consistency-sanitizer violation — used to die with
the worker process that ran it.  An *artifact* captures everything needed
to re-execute that exact trial anywhere:

* the recorded decision trace (which thread stepped, which write each
  read observed),
* the program and scheduler as registry *specs* (kind/name/params), so a
  fresh process can rebuild them without pickles or closures,
* the trial seed, step budget, spin threshold, and a config fingerprint
  that detects mismatched replays,
* the structured failure diagnostics (per-thread pending op, last-k
  events, thread-local views) collected at failure time.

Artifacts are JSON files written by the worker that observed the failure
(inside :class:`repro.harness.campaign.TrialRunner`), so they survive the
``ProcessPoolExecutor`` boundary, SIGKILL, and checkpoint/resume.  The
decision trace is the executor's log of the failing run itself, and
every other field describes that same run.  Each file is written to a
temporary name and renamed into place, so a worker killed mid-write
never leaves a truncated artifact behind.  The ``repro replay
<artifact>`` CLI re-executes one deterministically and verifies the
outcome matches the recording.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, List, Optional

from ..replay.trace import Trace
from ..runtime.executor import RunResult

__all__ = [
    "ARTIFACT_VERSION",
    "BugArtifact",
    "ReplayReport",
    "classify_outcome",
    "config_fingerprint",
    "load_artifact",
    "program_spec_dict",
    "replay_artifact",
    "scheduler_spec_dict",
]

ARTIFACT_VERSION = 1

#: Outcomes worth an artifact (``limit_exceeded`` alone is routine).
ARTIFACT_OUTCOMES = ("bug", "error", "timeout", "inconsistent")


def classify_outcome(run: Optional[RunResult],
                     error: Optional[str]) -> Optional[str]:
    """The artifact outcome kind of a finished trial, or None.

    An inconsistent graph outranks everything else: if the engine built a
    graph violating the consistency axioms, any bug/timeout verdict from
    that run is suspect.
    """
    if error is not None:
        return "error"
    if run is None:
        return None
    if run.violations:
        return "inconsistent"
    if run.bug_found:
        return "bug"
    if run.timed_out:
        return "timeout"
    return None


def program_spec_dict(factory: Any) -> Optional[dict]:
    """The registry spec of a program factory, when it carries one.

    :class:`repro.workloads.ProgramSpec` instances (the picklable
    factories parallel campaigns use) expose ``kind``/``name``/``params``;
    plain closures do not, and their trials produce spec-less artifacts
    that only replay with a caller-supplied factory.
    """
    kind = getattr(factory, "kind", None)
    name = getattr(factory, "name", None)
    if isinstance(kind, str) and isinstance(name, str):
        return {"kind": kind, "name": name,
                "params": dict(getattr(factory, "params", {}) or {})}
    return None


def scheduler_spec_dict(factory: Any) -> Optional[dict]:
    """The registry spec of a scheduler factory, when it carries one."""
    name = getattr(factory, "name", None)
    params = getattr(factory, "params", None)
    if isinstance(name, str) and params is not None:
        return {"name": name, "params": dict(params)}
    return None


def config_fingerprint(obj: dict) -> str:
    """Short stable hash over a config dict (canonical JSON, sha256)."""
    canonical = json.dumps(obj, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@dataclass
class BugArtifact:
    """A self-contained, replayable record of one failed trial."""

    outcome: str                  # "bug" | "error" | "timeout" | "inconsistent"
    program: str                  # display names, for humans
    scheduler: str
    trial_index: int
    trial_seed: int
    base_seed: int
    max_steps: int
    spin_threshold: int
    trace: Trace
    #: Memory-model backend the trial executed under ("c11" | "tso");
    #: replay re-executes on the same backend.
    model: str = "c11"
    steps: int = 0
    bug_kind: Optional[str] = None
    bug_message: Optional[str] = None
    error: Optional[str] = None
    violations: List[str] = field(default_factory=list)
    diagnostics: Optional[dict] = None
    #: Registry specs; None when the campaign ran on closures.
    program_spec: Optional[dict] = None
    scheduler_spec: Optional[dict] = None
    fingerprint: str = ""
    version: int = ARTIFACT_VERSION

    def __post_init__(self) -> None:
        if not self.fingerprint:
            self.fingerprint = config_fingerprint({
                "program_spec": self.program_spec,
                "scheduler_spec": self.scheduler_spec,
                "base_seed": self.base_seed,
                "trial_index": self.trial_index,
                "trial_seed": self.trial_seed,
                "max_steps": self.max_steps,
                "spin_threshold": self.spin_threshold,
                "model": self.model,
            })

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        obj = {
            "kind": "bug-artifact",
            "version": self.version,
            "outcome": self.outcome,
            "program": self.program,
            "scheduler": self.scheduler,
            "trial_index": self.trial_index,
            "trial_seed": self.trial_seed,
            "base_seed": self.base_seed,
            "max_steps": self.max_steps,
            "spin_threshold": self.spin_threshold,
            "model": self.model,
            "steps": self.steps,
            "bug_kind": self.bug_kind,
            "bug_message": self.bug_message,
            "error": self.error,
            "violations": self.violations,
            "diagnostics": self.diagnostics,
            "program_spec": self.program_spec,
            "scheduler_spec": self.scheduler_spec,
            "fingerprint": self.fingerprint,
            "trace": self.trace.to_obj(),
        }
        return json.dumps(obj, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "BugArtifact":
        raw = json.loads(text)
        if raw.get("kind") != "bug-artifact":
            raise ValueError("not a bug artifact (missing kind marker)")
        return cls(
            outcome=raw["outcome"],
            program=raw.get("program", ""),
            scheduler=raw.get("scheduler", ""),
            trial_index=int(raw["trial_index"]),
            trial_seed=int(raw["trial_seed"]),
            base_seed=int(raw.get("base_seed", 0)),
            max_steps=int(raw.get("max_steps", 20000)),
            spin_threshold=int(raw.get("spin_threshold", 8)),
            trace=Trace.from_obj(raw["trace"]),
            model=raw.get("model", "c11"),
            steps=int(raw.get("steps", 0)),
            bug_kind=raw.get("bug_kind"),
            bug_message=raw.get("bug_message"),
            error=raw.get("error"),
            violations=list(raw.get("violations") or []),
            diagnostics=raw.get("diagnostics"),
            program_spec=raw.get("program_spec"),
            scheduler_spec=raw.get("scheduler_spec"),
            fingerprint=raw.get("fingerprint", ""),
            version=int(raw.get("version", ARTIFACT_VERSION)),
        )

    def save(self, path: str) -> str:
        """Write atomically: readers see the whole file or none of it."""
        text = self.to_json()
        tmp = path + ".tmp"
        try:
            with open(tmp, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        return path


def load_artifact(path: str) -> BugArtifact:
    with open(path, "r") as fh:
        return BugArtifact.from_json(fh.read())


def artifact_path(directory: str, trial_index: int) -> str:
    return os.path.join(directory, f"trial-{trial_index:06d}.json")


# -- replay ----------------------------------------------------------------------


@dataclass
class ReplayReport:
    """Outcome of re-executing an artifact, compared to the recording."""

    artifact: BugArtifact
    outcome: str                       # outcome kind of the *replay*
    matched: bool
    result: Optional[RunResult] = None
    error: Optional[str] = None
    mismatch: Optional[str] = None     # why matched is False
    minimized: Optional[Trace] = None

    def render(self) -> str:
        lines = [
            f"artifact: {self.artifact.outcome} in "
            f"{self.artifact.program} / {self.artifact.scheduler} "
            f"(model {self.artifact.model}, "
            f"trial {self.artifact.trial_index}, "
            f"seed {self.artifact.trial_seed}, "
            f"fingerprint {self.artifact.fingerprint})",
            f"replay outcome: {self.outcome} -> "
            + ("MATCH" if self.matched else f"MISMATCH ({self.mismatch})"),
        ]
        if self.artifact.bug_message:
            lines.append(f"recorded bug: [{self.artifact.bug_kind}] "
                         f"{self.artifact.bug_message}")
        if self.error:
            lines.append(f"replay error: {self.error}")
        for violation in self.artifact.violations:
            lines.append(f"recorded violation: {violation}")
        if self.minimized is not None:
            lines.append(
                f"minimized trace: {len(self.artifact.trace)} -> "
                f"{len(self.minimized)} decisions"
            )
        return "\n".join(lines)


def _build_program_factory(artifact: BugArtifact, program_factory=None):
    if program_factory is not None:
        return program_factory
    if artifact.program_spec is None:
        raise ValueError(
            "artifact carries no program spec (the campaign ran on a "
            "closure); pass program_factory= explicitly"
        )
    from ..workloads.registry import ProgramSpec  # local: avoid cycle

    spec = artifact.program_spec
    return ProgramSpec(spec["name"], spec.get("kind", "benchmark"),
                       spec.get("params", {}))


def replay_artifact(artifact: BugArtifact, program_factory=None,
                    minimize: bool = False) -> ReplayReport:
    """Deterministically re-execute an artifact and verify the outcome.

    The replay drives the recorded decision trace through a fresh
    executor.  For ``timeout`` artifacts the step budget is pinned to the
    recorded step count — wall clocks do not replay, but the decision
    prefix does, so the replay stops at the same boundary (reported as
    ``limit_exceeded``) and is compared on steps executed.  With
    ``minimize=True`` a matching ``bug`` artifact's trace is additionally
    shrunk via :func:`repro.replay.minimize.minimize_trace`.
    """
    from ..memory.model import resolve_model
    from ..replay.recording import ReplayScheduler
    from .campaign import summarize_exception

    factory = _build_program_factory(artifact, program_factory)
    model = resolve_model(artifact.model)
    max_steps = artifact.max_steps
    if artifact.outcome == "timeout" and artifact.steps:
        max_steps = artifact.steps
    scheduler = ReplayScheduler(artifact.trace)
    result: Optional[RunResult] = None
    error: Optional[str] = None
    try:
        result = model.run_once(
            factory(), scheduler, max_steps=max_steps,
            spin_threshold=artifact.spin_threshold,
            sanitize=artifact.outcome == "inconsistent")
    except Exception as exc:
        error = summarize_exception(exc)
    outcome = classify_outcome(result, error)
    if outcome is None and result is not None and result.limit_exceeded:
        outcome = "limit"
    outcome = outcome or "clean"

    matched, mismatch = _verify(artifact, outcome, result, error, scheduler)
    report = ReplayReport(artifact=artifact, outcome=outcome,
                          matched=matched, result=result, error=error,
                          mismatch=mismatch)
    if minimize and matched and artifact.outcome == "bug":
        from ..replay.minimize import minimize_trace

        report.minimized = minimize_trace(factory, artifact.trace,
                                          max_steps=artifact.max_steps,
                                          model=artifact.model)
    return report


def _verify(artifact: BugArtifact, outcome: str,
            result: Optional[RunResult], error: Optional[str],
            scheduler) -> tuple:
    """Compare a replay against the recording; ``(matched, why_not)``."""
    if artifact.outcome == "bug":
        if outcome != "bug":
            return False, f"recorded a bug, replay was {outcome}"
        if (result.bug_kind, result.bug_message) != \
                (artifact.bug_kind, artifact.bug_message):
            return False, (
                f"bug differs: recorded [{artifact.bug_kind}] "
                f"{artifact.bug_message!r}, replayed [{result.bug_kind}] "
                f"{result.bug_message!r}"
            )
        if not scheduler.fully_consumed:
            return False, (f"{scheduler.remaining} recorded decisions "
                           "left unconsumed")
        return True, None
    if artifact.outcome == "error":
        if outcome != "error":
            return False, f"recorded an error, replay was {outcome}"
        if error != artifact.error:
            return False, (f"error differs: recorded {artifact.error!r}, "
                           f"replayed {error!r}")
        return True, None
    if artifact.outcome == "timeout":
        # Wall clocks don't replay; the decision prefix does.  The replay
        # ran with max_steps pinned to the recorded step count, so a
        # faithful replay stops at the same step on the step budget.
        if result is None:
            return False, f"recorded a timeout, replay was {outcome}"
        if artifact.steps and result.steps != artifact.steps:
            return False, (f"steps differ: recorded {artifact.steps}, "
                           f"replayed {result.steps}")
        return True, None
    if artifact.outcome == "inconsistent":
        if result is None or not result.violations:
            return False, ("recorded axiom violations did not reproduce "
                           "(engine fixed, or fault was environmental)")
        return True, None
    return False, f"unknown recorded outcome {artifact.outcome!r}"
