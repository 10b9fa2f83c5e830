"""Coverage-guided fuzz campaigns and the standing differential modes.

:func:`run_fuzz` is the ``generate → campaign → shrink → corpus``
pipeline behind ``repro fuzz``:

1. **generate** — derive one 64-bit generation seed per program from the
   base seed (same derivation as campaign trial seeds, so the stream is
   independent of count/jobs) and materialize its plan;
2. **steer** — estimate (k, k_com) via
   :func:`repro.core.depth.estimate_parameters`, then probe a small
   (d, h) grid in-process, scoring each candidate by bug hits, distinct
   rf/mo shapes, distinct execution signatures, and weak-read volume
   (:mod:`repro.harness.coverage`); ties prefer the smaller
   configuration, honouring the Section 5.4 sample-space bound;
3. **campaign** — run the winning configuration through
   :func:`repro.harness.parallel.run_campaign_parallel` with bug
   artifacts (warm-worker reuse applies: fuzz specs are registry
   specs);
4. **shrink → corpus** — dedupe findings by (outcome, bug kind), ddmin
   the decision trace and the plan itself
   (:mod:`repro.fuzz.shrink`), and pin each survivor as a corpus entry.

Everything reported is a pure function of (base seed, count, config,
scheduler, model, trials): probes run in-process on derived seeds and
campaigns are jobs-invariant, so ``repro fuzz`` output is bit-identical
across runs and across ``--jobs``.

The module also hosts the two standing differential modes the fuzzer
powers: :func:`engine_divergences` (fast vs reference, trace-exact,
under both models) and :func:`model_divergences` (TSO vs C11 final
state on generated race-free determinate programs).
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..core.depth import estimate_parameters
from ..core.factory import SchedulerSpec, make_scheduler
from ..harness.artifact import load_artifact
from ..harness.coverage import (
    behaviour_shape,
    execution_signature,
    weak_read_count,
)
from ..harness.parallel import run_campaign_parallel
from ..harness.seeding import derive_trial_seed
from ..memory.model import MemoryModel, resolve_model
from ..replay.minimize import minimize_trace
from ..runtime.errors import ReproError
from .corpus import entry_from_finding, replay_entry, save_entry
from .generator import (
    FuzzConfig,
    build_plan_program,
    expected_final_memory,
    generate_spec,
    plan_program,
    plan_stats,
    plan_step_bound,
)
from .shrink import shrink_plan

#: Probe trial indices start here so they never collide with campaign
#: trial indices (0..trials-1) in the per-program seed stream.
_PROBE_OFFSET = 1_000_000

#: The (depth, history) grid the steering probe searches for PCTWM.
_PCTWM_GRID: Tuple[Tuple[int, int], ...] = (
    (0, 1), (1, 1), (1, 2), (2, 1), (2, 2), (3, 2),
)

#: Depths probed for plain PCT.
_PCT_DEPTHS: Tuple[int, ...] = (0, 1, 2, 3)


# -- fingerprints and divergence dumps ----------------------------------------


def run_fingerprint(result) -> tuple:
    """A hashable trace-exact summary of one run (graph + verdicts).

    Mirrors the fast-vs-reference differential suite: per-event tuples
    over stable fields, per-location modification orders, the SC order,
    and the run's verdict fields.  Two runs with equal fingerprints made
    identical memory-model choices everywhere.
    """
    graph = result.graph
    events = tuple(
        (e.uid, e.tid, e.label.kind.name, int(e.label.order), e.label.loc,
         e.label.rval, e.label.wval, e.po_index, e.mo_index, e.sc_index,
         None if e.reads_from is None else e.reads_from.uid)
        for e in graph.events
    )
    mo = tuple(sorted(
        (loc, tuple(w.uid for w in writes))
        for loc, writes in graph.writes_by_loc.items()
    ))
    return (
        events, mo,
        result.bug_found, result.bug_kind, result.bug_message,
        tuple(sorted(str(r) for r in result.races)),
        tuple(sorted(result.thread_results.items())),
        tuple(result.violations),
    )


def write_divergence(dump_dir: str, divergence: Mapping[str, Any]) -> str:
    """Persist a replayable divergence record; returns its path."""
    os.makedirs(dump_dir, exist_ok=True)
    gen_seed = divergence.get("gen_seed", 0) & ((1 << 64) - 1)
    name = (f"{divergence.get('kind', 'divergence')}-"
            f"{gen_seed:016x}-{divergence.get('seed', 0)}.json")
    path = os.path.join(dump_dir, name)
    with open(path, "w") as fh:
        json.dump(divergence, fh, indent=2, sort_keys=True, default=repr)
        fh.write("\n")
    return path


def _divergence(kind: str, gen_seed: int, seed: int, model: str,
                scheduler_name: str, scheduler_params: Mapping[str, Any],
                plan: Mapping[str, Any], max_steps: int,
                detail: str, dump_dir: Optional[str]) -> Dict[str, Any]:
    record: Dict[str, Any] = {
        "kind": kind,
        "gen_seed": gen_seed,
        "seed": seed,
        "model": model,
        "scheduler": {"name": scheduler_name,
                      "params": dict(scheduler_params)},
        "program": {"kind": "fuzz", "name": plan.get("name", "fuzz"),
                    "params": {"plan": dict(plan)}},
        "max_steps": max_steps,
        "detail": detail,
    }
    if dump_dir is not None:
        record["artifact"] = write_divergence(dump_dir, record)
    return record


#: Scheduler configurations the differential modes exercise.  Both are
#: TSO-allowlisted; the PCTWM cell uses a fixed small configuration so
#: the sweep needs no per-program estimation.
DIFFERENTIAL_SCHEDULERS: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("naive", {}),
    ("pctwm", {"depth": 2, "k_com": 6, "history": 2}),
)


def engine_divergences(gen_seeds: Iterable[int],
                       config: Optional[FuzzConfig] = None,
                       models: Sequence[str] = ("c11", "tso"),
                       schedulers: Sequence[Tuple[str, Mapping[str, Any]]]
                       = DIFFERENTIAL_SCHEDULERS,
                       runs_per_seed: int = 2,
                       sanitize: bool = False,
                       dump_dir: Optional[str] = None) -> List[Dict[str, Any]]:
    """Fast-vs-reference trace equivalence over generated programs.

    For every generated program, scheduler cell, and derived run seed,
    executes once per engine and compares :func:`run_fingerprint`; with
    ``sanitize=True`` the runs also carry the online consistency
    sanitizer, whose violations land in the fingerprint.  Returns one
    record per divergence (empty list = engines agree everywhere).
    """
    config = config or FuzzConfig()
    divergences: List[Dict[str, Any]] = []
    for gen_seed in gen_seeds:
        plan = plan_program(gen_seed, config)
        program = build_plan_program(plan)
        bound = plan_step_bound(plan)
        for model_name in models:
            backend = resolve_model(model_name)
            for sched_name, sched_params in schedulers:
                if not backend.supports_scheduler(sched_name):
                    continue
                for j in range(runs_per_seed):
                    seed = derive_trial_seed(gen_seed, j)
                    prints = {}
                    for engine in ("fast", "reference"):
                        scheduler = make_scheduler(sched_name, sched_params,
                                                   seed=seed)
                        result = backend.run_once(
                            program, scheduler, max_steps=bound,
                            sanitize=sanitize, engine=engine)
                        prints[engine] = run_fingerprint(result)
                    if prints["fast"] != prints["reference"]:
                        divergences.append(_divergence(
                            "engine-mismatch", gen_seed, seed, model_name,
                            sched_name, sched_params, plan, bound,
                            "fast and reference engines produced different "
                            "trace fingerprints", dump_dir))
    return divergences


def model_divergences(gen_seeds: Iterable[int],
                      config: Optional[FuzzConfig] = None,
                      schedulers: Sequence[Tuple[str, Mapping[str, Any]]]
                      = DIFFERENTIAL_SCHEDULERS,
                      runs_per_seed: int = 2,
                      dump_dir: Optional[str] = None) -> List[Dict[str, Any]]:
    """TSO-vs-C11 agreement on generated race-free determinate programs.

    Programs come from the ``determinate`` profile, whose final memory
    state is interleaving- and model-invariant by construction; both
    backends must drive every location to
    :func:`~repro.fuzz.generator.expected_final_memory` on every seed,
    and must never report a bug (the programs are race- and
    assertion-free).
    """
    config = dataclasses.replace(config or FuzzConfig(),
                                 profile="determinate", oracle="off",
                                 allow_nonatomic=False)
    divergences: List[Dict[str, Any]] = []
    for gen_seed in gen_seeds:
        plan = plan_program(gen_seed, config)
        program = build_plan_program(plan)
        bound = plan_step_bound(plan)
        expected = expected_final_memory(plan)
        for sched_name, sched_params in schedulers:
            for j in range(runs_per_seed):
                seed = derive_trial_seed(gen_seed, j)
                for model_name in ("c11", "tso"):
                    backend = resolve_model(model_name)
                    if not backend.supports_scheduler(sched_name):
                        continue
                    scheduler = make_scheduler(sched_name, sched_params,
                                               seed=seed)
                    result = backend.run_once(program, scheduler,
                                              max_steps=bound)
                    if result.bug_found or result.limit_exceeded \
                            or result.timed_out:
                        divergences.append(_divergence(
                            "determinate-misrun", gen_seed, seed,
                            model_name, sched_name, sched_params, plan,
                            bound,
                            f"determinate program misbehaved: "
                            f"bug={result.bug_kind!r} "
                            f"limit={result.limit_exceeded} "
                            f"timeout={result.timed_out}", dump_dir))
                        continue
                    final = {loc: result.graph.mo_max(loc).wval
                             for loc in result.graph.locations()}
                    bad = {loc: (value, expected.get(loc))
                           for loc, value in final.items()
                           if expected.get(loc) != value}
                    if bad:
                        divergences.append(_divergence(
                            "model-final-state", gen_seed, seed,
                            model_name, sched_name, sched_params, plan,
                            bound,
                            f"final memory diverged from the unique "
                            f"determinate state: {bad}", dump_dir))
    return divergences


# -- coverage-steered (d, h) search -------------------------------------------


def _probe_batch(backend: MemoryModel, program, scheduler: str,
                 params: Mapping[str, Any], gen_seed: int, start_index: int,
                 trials: int, max_steps: int, spin_threshold: int,
                 sigs: set, shapes: set) -> Tuple[int, int, int, int]:
    """Run ``trials`` in-process probes; returns (hits, shapes, sigs, weak).

    Distinct counts are *per batch*; the shared ``sigs``/``shapes`` sets
    accumulate the program's overall probe coverage across batches.
    """
    batch_sigs: set = set()
    batch_shapes: set = set()
    hits = 0
    weak = 0
    for j in range(trials):
        seed = derive_trial_seed(gen_seed, start_index + j)
        scheduler_obj = make_scheduler(scheduler, params, seed=seed)
        try:
            result = backend.run_once(program, scheduler_obj,
                                      max_steps=max_steps,
                                      spin_threshold=spin_threshold)
        except ReproError:
            continue
        batch_sigs.add(execution_signature(result.graph))
        batch_shapes.add(behaviour_shape(result.graph))
        weak += weak_read_count(result.graph)
        hits += bool(result.bug_found)
    sigs |= batch_sigs
    shapes |= batch_shapes
    return hits, len(batch_shapes), len(batch_sigs), weak


def _search_params(backend: MemoryModel, program, scheduler: str, k: int,
                   k_com: int, gen_seed: int, probe_trials: int,
                   max_steps: int, spin_threshold: int,
                   sigs: set, shapes: set) -> Dict[str, Any]:
    """Pick the scheduler parameters the probes score best.

    Candidates are scored lexicographically by (bug hits, distinct
    rf/mo shapes, distinct signatures, weak reads); ties fall to the
    *smallest* (d, h) — the Section 5.4 sample space grows as
    ``C(k_com, d)·d!·h^d``, so among equally-diverse configurations the
    smallest concentrates probability hardest on each behaviour.
    """
    if scheduler == "pctwm":
        candidates = [{"depth": d, "k_com": k_com, "history": h}
                      for d, h in _PCTWM_GRID]
    elif scheduler == "pct":
        candidates = [{"depth": d, "k_events": max(1, k)}
                      for d in _PCT_DEPTHS]
    else:
        candidates = [{}]
    best_params: Dict[str, Any] = candidates[0]
    best_score: Optional[tuple] = None
    for index, params in enumerate(candidates):
        stats = _probe_batch(
            backend, program, scheduler, params, gen_seed,
            _PROBE_OFFSET + index * probe_trials, probe_trials,
            max_steps, spin_threshold, sigs, shapes)
        score = stats + (-params.get("depth", 0), -params.get("history", 0))
        if best_score is None or score > best_score:
            best_score = score
            best_params = params
    return best_params


# -- the generate → campaign → shrink → corpus pipeline ------------------------


@dataclass
class FuzzProgramReport:
    """Everything the pipeline learned about one generated program."""

    index: int
    gen_seed: int
    name: str
    threads: int
    ops: int
    locations: int
    k: int
    k_com: int
    scheduler: str
    scheduler_params: Dict[str, Any]
    max_steps: int
    trials: int
    hits: int
    errors: int
    timeouts: int
    inconsistent: int
    #: Probe-phase coverage (in-process, over all (d, h) candidates).
    distinct_signatures: int
    distinct_shapes: int
    weak_reads: int
    findings: List[Dict[str, Any]] = field(default_factory=list)

    def render(self) -> List[str]:
        params = self.scheduler_params
        dh = ""
        if "depth" in params:
            dh = f" d={params['depth']}"
            if "history" in params:
                dh += f" h={params['history']}"
        lines = [
            f"[{self.index:03d}] {self.name} threads={self.threads} "
            f"ops={self.ops} locs={self.locations} "
            f"k={self.k} k_com={self.k_com}{dh} "
            f"sigs={self.distinct_signatures} shapes={self.distinct_shapes} "
            f"weak={self.weak_reads} hits={self.hits}/{self.trials}"
        ]
        for finding in self.findings:
            kind = finding["outcome"]
            if finding.get("bug_kind"):
                kind += f"/{finding['bug_kind']}"
            if finding.get("corpus"):
                tail = (f"shrunk {finding['ops_before']}->"
                        f"{finding['ops_after']} ops, "
                        f"seed={finding['seed']}, "
                        f"corpus={finding['corpus']}")
            else:
                tail = finding.get("note", "not reproducible; dropped")
            lines.append(f"      {kind}: {tail}")
        return lines


@dataclass
class FuzzReport:
    """Deterministic aggregate of one ``repro fuzz`` invocation."""

    model: str
    scheduler: str
    base_seed: int
    count: int
    trials: int
    programs: List[FuzzProgramReport] = field(default_factory=list)
    corpus_paths: List[str] = field(default_factory=list)
    #: Programs skipped because the wall-clock budget ran out.
    truncated: int = 0

    @property
    def findings(self) -> List[Dict[str, Any]]:
        return [f for p in self.programs for f in p.findings]

    def render(self) -> List[str]:
        lines = [
            f"fuzz: model={self.model} scheduler={self.scheduler} "
            f"seed={self.base_seed} count={self.count} trials={self.trials}"
        ]
        for program in self.programs:
            lines.extend(program.render())
        total_hits = sum(p.hits for p in self.programs)
        pinned = sum(1 for f in self.findings if f.get("corpus"))
        lines.append(
            f"summary: programs={len(self.programs)} "
            f"truncated={self.truncated} hits={total_hits} "
            f"errors={sum(p.errors for p in self.programs)} "
            f"timeouts={sum(p.timeouts for p in self.programs)} "
            f"inconsistent={sum(p.inconsistent for p in self.programs)} "
            f"findings={len(self.findings)} corpus-entries={pinned}"
        )
        return lines


def _finding_name(model: str, scheduler: str, outcome: str,
                  bug_kind: Optional[str], gen_seed: int) -> str:
    parts = [model, scheduler, outcome]
    if bug_kind:
        parts.append(bug_kind.replace(" ", "-"))
    parts.append(f"{gen_seed & ((1 << 64) - 1):016x}")
    return "-".join(parts)


def run_fuzz(base_seed: int = 0, count: int = 20, model: str = "c11",
             scheduler: str = "pctwm", trials: int = 100,
             probe_trials: int = 16, jobs: int = 1,
             config: Optional[FuzzConfig] = None,
             corpus_dir: Optional[str] = None,
             budget_s: Optional[float] = None,
             sanitize: str = "sampled", spin_threshold: int = 8,
             max_steps: Optional[int] = None,
             minimize_traces: bool = True,
             seed_attempts: int = 8) -> FuzzReport:
    """The full pipeline (see module docstring).  Deterministic output.

    ``budget_s`` is a soft wall-clock cap checked *between* programs, so
    a budgeted run may truncate the program list but never produces
    different per-program results — only fewer of them.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    backend = resolve_model(model)
    if not backend.supports_scheduler(scheduler):
        raise ValueError(
            f"scheduler {scheduler!r} is not supported by model {model!r}")
    config = config or FuzzConfig()
    deadline = None if budget_s is None else time.monotonic() + budget_s
    report = FuzzReport(model=backend.name, scheduler=scheduler,
                        base_seed=base_seed, count=count, trials=trials)

    for index in range(count):
        if deadline is not None and time.monotonic() > deadline:
            report.truncated = count - index
            break
        gen_seed = derive_trial_seed(base_seed, index)
        plan = plan_program(gen_seed, config)
        program = build_plan_program(plan)
        stats = plan_stats(plan)
        bound = max_steps if max_steps is not None else plan_step_bound(plan)

        estimate = estimate_parameters(program, runs=3, seed=gen_seed,
                                       max_steps=bound, model=backend.name)
        k = max(1, estimate.k)
        k_com = max(1, estimate.k_com)

        sigs: set = set()
        shapes: set = set()
        weak_total = 0
        params = _search_params(backend, program, scheduler, k, k_com,
                                gen_seed, probe_trials, bound,
                                spin_threshold, sigs, shapes)
        # One extra pass at the chosen configuration for the weak-read
        # tally reported per program (batch tallies vary per candidate).
        _hits, _, _, weak_total = _probe_batch(
            backend, program, scheduler, params, gen_seed,
            _PROBE_OFFSET - probe_trials, probe_trials, bound,
            spin_threshold, sigs, shapes)

        spec = generate_spec(gen_seed, config)
        sched_spec = SchedulerSpec(scheduler, params)
        with tempfile.TemporaryDirectory(prefix="fuzz-artifacts-") as tmp:
            result = run_campaign_parallel(
                spec, sched_spec, trials=trials, base_seed=gen_seed,
                max_steps=bound, jobs=jobs, scheduler_name=scheduler,
                sanitize=sanitize, artifact_dir=tmp,
                spin_threshold=spin_threshold, model=backend.name)
            artifacts = [load_artifact(path)
                         for path in sorted(result.artifacts)]

        program_report = FuzzProgramReport(
            index=index, gen_seed=gen_seed, name=plan["name"],
            threads=stats["threads"], ops=stats["ops"],
            locations=stats["locations"], k=k, k_com=k_com,
            scheduler=scheduler, scheduler_params=dict(params),
            max_steps=bound, trials=result.completed, hits=result.hits,
            errors=result.errors, timeouts=result.timeouts,
            inconsistent=result.inconsistent,
            distinct_signatures=len(sigs), distinct_shapes=len(shapes),
            weak_reads=weak_total)

        seen_keys = set()
        for artifact in artifacts:
            key = (artifact.outcome, artifact.bug_kind)
            if key in seen_keys or artifact.outcome == "timeout":
                continue
            seen_keys.add(key)
            finding: Dict[str, Any] = {
                "outcome": artifact.outcome,
                "bug_kind": artifact.bug_kind,
                "bug_message": artifact.bug_message,
                "trial_index": artifact.trial_index,
                "corpus": None,
            }
            trace_len = None
            if minimize_traces and artifact.outcome == "bug":
                try:
                    minimized = minimize_trace(spec, artifact.trace,
                                               max_steps=bound,
                                               model=backend.name)
                    trace_len = len(minimized.decisions)
                except (ReproError, ValueError):
                    trace_len = None
            shrunk = shrink_plan(
                plan, scheduler, params, artifact.trial_seed, key,
                backend, bound, spin_threshold=spin_threshold,
                seed_attempts=seed_attempts)
            if shrunk is None:
                finding["note"] = "not reproducible within seed sweep"
                program_report.findings.append(finding)
                continue
            name = _finding_name(backend.name, scheduler,
                                 artifact.outcome, artifact.bug_kind,
                                 gen_seed)
            entry = entry_from_finding(shrunk, name, provenance={
                "gen_seed": gen_seed,
                "base_seed": base_seed,
                "trial_index": artifact.trial_index,
                "trial_seed": artifact.trial_seed,
                "config": config.to_params(),
                "minimized_trace_len": trace_len,
            })
            finding.update({
                "corpus": name,
                "seed": shrunk.seed,
                "ops_before": shrunk.ops_before,
                "ops_after": shrunk.ops_after,
                "bug_message": shrunk.bug_message,
                "scheduler_params": dict(shrunk.scheduler_params),
                "replays": shrunk.replays,
                "entry": entry,
            })
            replay = replay_entry(entry)
            if not replay.ok:  # pragma: no cover - defensive
                finding["corpus"] = None
                finding["note"] = f"entry failed replay: {replay.got}"
            elif corpus_dir is not None:
                report.corpus_paths.append(save_entry(corpus_dir, entry))
            program_report.findings.append(finding)
        report.programs.append(program_report)
    return report
