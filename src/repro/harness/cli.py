"""Command-line interface: regenerate any table or figure of the paper.

Mirrors the artifact's ``result_pctwm.sh`` / ``run_all.sh`` scripts
(``python -m repro table2 --trials 1000`` is paper scale), plus utility
commands (``depth``, ``hunt``, ``litmus``, ``campaign``, ``replay``,
``fuzz``, ``report``) and the campaign service (``serve``,
``job submit|status|result|cancel|drain``); ``python -m repro --help``
lists them, and docs/usage.md walks through them.  Each subparser names
its handler as its ``run`` default, and the campaign, hunt and fuzz
generator flags are built from :class:`JobSpec`'s and
:class:`FuzzConfig`'s field declarations.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from typing import List, Optional

from ..fuzz.generator import FuzzConfig
from ..service.jobs import JobSpec, resolve_factories
from ..workloads.registry import benchmark_info, select_benchmarks
from .campaign import SANITIZE_MODES
from .charts import bar_chart, line_charts
from .figures import figure5, figure6, render_figure5, render_figure6
from .options import NONNEGATIVE_INT, POSITIVE_FLOAT, POSITIVE_INT, add_flags
from .tables import (
    render_table1,
    render_table2,
    render_table3,
    render_table4,
    table1,
    table2,
    table3,
    table4,
)

#: ``campaign``/``job submit`` flags; only ``campaign`` takes a local path.
_JOB_FLAGS = tuple(f.name for f in fields(JobSpec) if f.name != "artifact_dir")

#: The :class:`FuzzConfig` fields ``fuzz`` takes as flags.
_FUZZ_FLAGS = ("max_threads", "max_ops", "max_locations", "profile",
               "oracle", "allow_nonatomic")


def add_campaign_flags(cmd: argparse.ArgumentParser,
                       names=_JOB_FLAGS) -> None:
    """:class:`JobSpec` flags from its field declarations; a flag left
    out sets nothing, so the spec's own field default applies."""
    add_flags(cmd, JobSpec, names, default=argparse.SUPPRESS)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the PCTWM paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, help_text: str, within=sub):
        cmd = within.add_parser(name, help=help_text)
        cmd.set_defaults(run=run)
        return cmd

    def add(name: str, help_text: str, *sections):
        cmd = command(name, _print_sections(*sections), help_text)
        cmd.add_argument("--trials", type=POSITIVE_INT, default=100,
                         help="runs per configuration (paper: 1000/500)")
        cmd.add_argument("--seed", type=NONNEGATIVE_INT, default=0)
        cmd.add_argument("--benchmarks", nargs="*", default=None)
        cmd.add_argument("--jobs", type=POSITIVE_INT, default=1,
                         help="worker processes per campaign (1 = serial; "
                              "results are identical for any value)")
        add_flags(cmd, JobSpec, ["sanitize"])
        return cmd

    t1 = command("table1", _print_sections(_table1),
                 "benchmark characteristics (k, k_com, d)")
    t1.add_argument("--seed", type=NONNEGATIVE_INT, default=0)
    t1.add_argument("--benchmarks", nargs="*", default=None)
    add("table2", "PCTWM hit rates for d, d+1, d+2", _table2)
    add("table3", "PCTWM hit rates for h = 1..4", _table3)
    t4 = command("table4", _print_sections(_table4),
                  "application performance overhead")
    t4.add_argument("--runs", type=POSITIVE_INT, default=10)
    t4.add_argument("--scale", type=POSITIVE_INT, default=1)
    t4.add_argument("--seed", type=NONNEGATIVE_INT, default=0)
    add("figure5", "highest hit rates: C11Tester vs PCT vs PCTWM", _figure5)
    add("figure6", "hit rate vs inserted relaxed writes", _figure6)
    everything = add("all", "run every table and figure", _table1, _table2,
                     _table3, _table4, _figure5, _figure6)
    everything.add_argument("--runs", type=POSITIVE_INT, default=10)

    depth_cmd = command("depth", _cmd_depth,
                        "estimate k, k_com and the empirical bug depth")
    depth_cmd.add_argument("benchmark")
    depth_cmd.add_argument("--trials", type=POSITIVE_INT, default=150)
    depth_cmd.add_argument("--max-depth", type=POSITIVE_INT, default=4)
    depth_cmd.add_argument("--seed", type=NONNEGATIVE_INT, default=0)

    hunt_cmd = command("hunt", _cmd_hunt,
                       "find a bug with PCTWM and save a replayable trace")
    hunt_cmd.add_argument("benchmark")
    hunt_cmd.add_argument("--attempts", type=POSITIVE_INT, default=1000)
    add_flags(hunt_cmd, JobSpec, ["depth", "history"])
    hunt_cmd.add_argument("--seed", type=NONNEGATIVE_INT, default=0)
    hunt_cmd.add_argument("--out", default=None,
                          help="write the trace JSON here")

    campaign_cmd = command(
        "campaign", _cmd_campaign,
        "run one hit-rate campaign, optionally sharded over workers")
    add_campaign_flags(campaign_cmd)
    campaign_cmd.add_argument("--progress", action="store_true",
                              help="print per-shard progress to stderr")
    campaign_cmd.add_argument("--checkpoint", default=None, metavar="PATH",
                              help="append completed trials to this JSONL "
                                   "journal as shards finish")
    campaign_cmd.add_argument("--resume", action="store_true",
                              help="skip trials already in --checkpoint")
    campaign_cmd.add_argument("--start-method", default=None,
                              choices=("fork", "spawn", "forkserver"),
                              help="multiprocessing start method "
                                   "(default: $REPRO_START_METHOD or fork)")
    add_campaign_flags(campaign_cmd, ["artifact_dir"])

    serve_cmd = command("serve", _cmd_serve,
                        "run the campaign-job daemon (local HTTP/JSON API)")
    serve_cmd.add_argument("--state-dir", default=".repro-service",
                           metavar="DIR",
                           help="job records and checkpoint journals "
                                "live here; restarting with the same "
                                "dir resumes interrupted jobs")
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument("--port", type=NONNEGATIVE_INT, default=None,
                           help="listen port (default 8642; 0 picks an "
                                "ephemeral port, advertised in "
                                "STATE_DIR/endpoint.json)")
    serve_cmd.add_argument("--rate", type=POSITIVE_FLOAT, default=2.0,
                           help="sustained job submissions accepted "
                                "per second (token bucket)")
    serve_cmd.add_argument("--burst", type=POSITIVE_INT, default=10,
                           help="submission burst size before 429s")
    serve_cmd.add_argument("--start-method", default=None,
                           choices=("fork", "spawn", "forkserver"),
                           help="campaign pool start method (default: "
                                "forkserver — the daemon holds HTTP "
                                "threads, so fork is unsafe)")
    serve_cmd.add_argument("--worker-budget", type=POSITIVE_INT,
                           default=None, metavar="N",
                           help="cap on a job's campaign pool workers; "
                                "jobs run one at a time, each with "
                                "min(--jobs, N) workers "
                                "(default: max(4, cpu count))")
    serve_cmd.add_argument("--quiet", action="store_true",
                           help="suppress per-job log lines")

    job_cmd = sub.add_parser(
        "job", help="submit/inspect jobs on a running campaign daemon")
    job_sub = job_cmd.add_subparsers(dest="job_command", required=True)

    def job(name: str, run, help_text: str):
        def with_client(args) -> int:
            from ..service.client import ServiceClient, ServiceError

            try:
                return run(ServiceClient(args.url), args)
            except ServiceError as exc:  # a daemon's refusal
                print(f"error: {exc.message}")
                return 2
        return command(name, with_client, help_text, within=job_sub)

    submit_cmd = job("submit", _job_submit,
                     "queue one campaign on the daemon")
    add_campaign_flags(submit_cmd)
    submit_cmd.add_argument("--wait", action="store_true",
                            help="block until the job finishes and "
                                 "print its result")
    submit_cmd.add_argument("--idempotency-key", default=None,
                            metavar="KEY",
                            help="resubmitting the same key returns the "
                                 "existing job instead of a duplicate "
                                 "(default: auto-generated per submit)")

    status_cmd = job("status", _job_status,
                     "one job's record, or all jobs without an id")
    status_cmd.add_argument("job_id", nargs="?", default=None)

    result_cmd = job("result", _job_result,
                     "a finished job's result summary")
    result_cmd.add_argument("job_id")
    result_cmd.add_argument("--wait", action="store_true",
                            help="poll until the job finishes")
    result_cmd.add_argument("--timeout", type=POSITIVE_FLOAT,
                            default=None, metavar="SECONDS",
                            help="give up waiting after this long")

    cancel_cmd = job("cancel", _job_cancel,
                     "cancel a queued or running job")
    cancel_cmd.add_argument("job_id")

    job("drain", _job_drain,
        "ask the daemon to finish its current job, keep the queue, and exit")
    for cmd in job_sub.choices.values():
        cmd.add_argument("--url", default=None,
                         help="daemon base URL (default: "
                              "$REPRO_SERVICE_URL or "
                              "http://127.0.0.1:8642)")

    litmus_cmd = command("litmus", _cmd_litmus,
                         "run the litmus gallery under every scheduler")
    litmus_cmd.add_argument("--trials", type=POSITIVE_INT, default=200)
    litmus_cmd.add_argument("--seed", type=NONNEGATIVE_INT, default=0)
    add_flags(litmus_cmd, JobSpec, ["sanitize", "model"])

    fuzz_cmd = command(
        "fuzz", _cmd_fuzz,
        "seeded program fuzzing: generate -> campaign -> shrink "
        "-> corpus (deterministic for a given seed)")
    fuzz_cmd.add_argument("--seed", type=NONNEGATIVE_INT, default=0)
    fuzz_cmd.add_argument("--count", type=POSITIVE_INT, default=20,
                          help="generated programs to campaign over")
    fuzz_cmd.add_argument("--trials", type=POSITIVE_INT, default=100,
                          help="campaign trials per generated program")
    fuzz_cmd.add_argument("--probe-trials", type=POSITIVE_INT, default=16,
                          help="in-process probe runs per (d, h) candidate "
                               "during coverage steering")
    fuzz_cmd.add_argument("--scheduler", default="pctwm",
                          help="campaign scheduler; pctwm/pct get an "
                               "adaptive parameter search, others run "
                               "with defaults")
    fuzz_cmd.add_argument("--jobs", type=POSITIVE_INT, default=1,
                          help="worker processes per campaign (output is "
                               "identical for any value)")
    fuzz_cmd.add_argument("--budget", type=POSITIVE_FLOAT, default=None,
                          metavar="SECONDS",
                          help="soft wall-clock cap, checked between "
                               "programs; a budgeted run may truncate the "
                               "program list but never changes per-program "
                               "results")
    fuzz_cmd.add_argument("--corpus-dir", default=None, metavar="DIR",
                          help="write minimized, replay-validated corpus "
                               "entries here (one JSON per finding)")
    add_flags(fuzz_cmd, FuzzConfig, _FUZZ_FLAGS)
    fuzz_cmd.add_argument("--differential", default="none",
                          choices=("none", "engine", "model", "both"),
                          help="also sweep the generated seeds through "
                               "fast-vs-reference ('engine') and/or "
                               "TSO-vs-C11 on determinate programs "
                               "('model'); exits nonzero on divergence")
    fuzz_cmd.add_argument(
        "--sanitize", default="sampled",
        choices=SANITIZE_MODES,
        help="campaign-trial consistency auditing (default: sampled)")
    add_flags(fuzz_cmd, JobSpec, ["model"])

    replay_cmd = command("replay", _cmd_replay,
                         "re-execute a bug artifact and verify the outcome")
    replay_cmd.add_argument("artifact", help="artifact JSON path (written "
                                             "by campaign --artifacts)")
    replay_cmd.add_argument("--minimize", action="store_true",
                            help="shrink the decision trace while "
                                 "preserving the bug (bug artifacts only)")
    replay_cmd.add_argument("--out", default=None, metavar="PATH",
                            help="write the minimized trace JSON here")

    report_cmd = command("report", _cmd_report,
                         "regenerate the full evaluation as markdown")
    report_cmd.add_argument("--trials", type=POSITIVE_INT, default=100)
    report_cmd.add_argument("--runs", type=POSITIVE_INT, default=10)
    report_cmd.add_argument("--seed", type=NONNEGATIVE_INT, default=0)
    report_cmd.add_argument("--scale", type=POSITIVE_INT, default=1)
    report_cmd.add_argument("--jobs", type=POSITIVE_INT, default=1)
    report_cmd.add_argument("--out", default="evaluation_report.md")
    add_flags(report_cmd, JobSpec, ["sanitize"])
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command.  Ctrl-C exits 130 (only a campaign with a
    checkpoint has a partial result to print first)."""
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


# -- tables and figures --------------------------------------------------------


def _print_sections(*sections):
    """A command printing each section, each followed by a blank line;
    a bad ``--benchmarks`` selection is a usage error before any runs."""
    def run(args) -> int:
        try:
            select_benchmarks(getattr(args, "benchmarks", None))
        except ValueError as exc:
            print(f"error: {exc}")
            return 2
        for section in sections:
            section(args)
            print()
        return 0
    return run


def _table1(args) -> None:
    print("== Table 1: benchmark characteristics ==")
    print(render_table1(table1(seed=args.seed, benchmarks=args.benchmarks)))


def _table4(args) -> None:
    print("== Table 4: application performance ==")
    print(render_table4(table4(runs=args.runs, seed=args.seed,
                               scale=getattr(args, "scale", 1))))


def _sweep(heading: str, build, render):
    """A table section sweeping one PCTWM parameter over benchmarks."""
    def section(args) -> None:
        print(f"== {heading} ==")
        print(render(build(trials=args.trials, seed=args.seed,
                           benchmarks=args.benchmarks, jobs=args.jobs,
                           sanitize=args.sanitize)))
    return section


def _figure(heading: str, build, render, chart):
    """A figure section: its numbers, then their ASCII chart."""
    def section(args) -> None:
        print(f"== {heading} ==")
        data = build(trials=args.trials, seed=args.seed,
                     benchmarks=args.benchmarks, jobs=args.jobs)
        print(render(data))
        print()
        print(chart(data))
    return section


_table2 = _sweep("Table 2: hit rate vs bug depth", table2, render_table2)
_table3 = _sweep("Table 3: hit rate vs history depth", table3, render_table3)
_figure5 = _figure("Figure 5: highest observed hit rates", figure5,
                   render_figure5, bar_chart)
_figure6 = _figure("Figure 6: inserted relaxed writes", figure6,
                   render_figure6, line_charts)


def _cmd_report(args) -> int:
    from .report import write_report

    path = write_report(args.out, trials=args.trials, runs=args.runs,
                        seed=args.seed, scale=args.scale, jobs=args.jobs,
                        sanitize=args.sanitize)
    print(f"report written to {path}")
    return 0


# -- other commands ------------------------------------------------------------


def _cmd_depth(args) -> int:
    from ..core.depth import empirical_bug_depth, estimate_parameters

    try:
        info = benchmark_info(args.benchmark)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    est = estimate_parameters(info.build(), runs=5, seed=args.seed)
    print(f"{info.name}: {est}")
    depth = empirical_bug_depth(info.build(), max_depth=args.max_depth,
                                trials=args.trials, seed=args.seed,
                                k_com=est.k_com)
    paper = info.paper_depth
    print(f"empirical bug depth: {depth} (paper: {paper}, "
          f"calibrated: {info.measured_depth})")
    return 0


def _cmd_hunt(args) -> int:
    from ..analysis import format_trace
    from ..replay import find_and_record

    spec = JobSpec(args.benchmark, depth=args.depth, history=args.history,
                   seed=args.seed)
    try:
        spec.validate()
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    program, scheduler = resolve_factories(spec)
    print(f"hunting {program.name} with PCTWM(d={scheduler.params['depth']}, "
          f"k_com={scheduler.params['k_com']}, "
          f"h={scheduler.params['history']})...")
    found = find_and_record(program, scheduler, max_attempts=args.attempts,
                            base_seed=args.seed)
    if found is None:
        print(f"no bug found in {args.attempts} attempts")
        return 1
    seed, result, trace = found
    print(f"found at seed {seed}: {result.bug_message}")
    print(format_trace(result.graph))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(trace.to_json())
        print(f"trace saved to {args.out} "
              f"(replay with repro.replay.replay_run)")
    return 0


def _args_to_job_spec(args):
    """A validated-later :class:`JobSpec` from CLI campaign/submit
    arguments: the fields whose flags were given."""
    return JobSpec(**{f.name: getattr(args, f.name) for f in fields(JobSpec)
                      if hasattr(args, f.name)})


def _cmd_campaign(args) -> int:
    from ..service.jobs import run_job
    from .parallel import print_progress

    spec = _args_to_job_spec(args)
    try:
        spec.validate()
    except ValueError as exc:
        print(str(exc))
        return 2
    try:
        result = run_job(
            spec,
            checkpoint=args.checkpoint,
            resume=args.resume,
            progress=print_progress if args.progress else None,
            start_method=args.start_method,
        )
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    print(result)
    print(f"  hits={result.hits} inconclusive={result.inconclusive} "
          f"steps={result.total_steps} events={result.total_events} "
          f"errors={result.errors} timeouts={result.timeouts}"
          + (f" inconsistent={result.inconsistent}"
             if spec.sanitize != "off" else ""))
    for sample in result.error_samples:
        print(f"  error sample: {sample}")
    for sample in result.violation_samples:
        print(f"  SANITIZER violation: {sample}")
    if result.artifacts:
        print(f"  {len(result.artifacts)} artifact(s) in "
              f"{spec.artifact_dir} "
              f"(replay with: python -m repro replay "
              f"{result.artifacts[0]})")
    if result.resumed_trials:
        print(f"  resumed {result.resumed_trials} trials from "
              f"{args.checkpoint}")
    if result.jobs > 1:
        shard_s = " ".join(f"{t:.2f}" for t in result.shard_times_s)
        print(f"  jobs={result.jobs} wall={result.elapsed_s:.2f}s "
              f"shard walls: {shard_s}")
    if result.hang_preemptions or result.rss_recycles:
        print(f"  watchdog: {result.hang_preemptions} hang "
              f"preemption(s), {result.rss_recycles} RSS recycle(s) "
              f"(shards retried; results unaffected)")
    if result.interrupted:
        print(f"  interrupted: {result.completed}/{result.trials} trials "
              f"aggregated above")
        if args.checkpoint:
            print(f"  resume with: --checkpoint {args.checkpoint} --resume")
        return 130
    return 0


def _cmd_serve(args) -> int:
    from ..service.daemon import DEFAULT_PORT, CampaignDaemon

    port = args.port if args.port is not None else DEFAULT_PORT
    try:
        daemon = CampaignDaemon(
            args.state_dir, host=args.host, port=port,
            rate_per_s=args.rate, burst=args.burst,
            start_method=args.start_method, quiet=args.quiet,
            worker_budget=args.worker_budget)
    except (OSError, ValueError) as exc:
        # An unusable state dir: an operator typo, not a crash.
        print(f"error: {exc}")
        return 2
    daemon.serve_forever()
    return 0


def _render_job(job: dict) -> str:
    spec = job.get("spec") or {}
    line = (f"{job['id']}: {job['status']} "
            f"{spec.get('benchmark')}/{spec.get('scheduler')} "
            f"x{spec.get('trials')}")
    if job.get("progress_trials"):
        line += f" ({job['progress_trials']} trials journaled)"
    if job.get("error"):
        line += f" error: {job['error']}"
    return line


def _print_service_summary(health: dict) -> None:
    """One-look service load: queue depth, current job, live workers."""
    workers = health.get("workers") or {}
    line = (f"daemon {health.get('status', '?')}: "
            f"queue depth {health.get('queue_depth', 0)}, "
            f"running {health.get('current_job') or 'nothing'}")
    if workers:
        line += (f", workers {workers.get('live', 0)}"
                 f"/{workers.get('budget', '?')} live")
    print(line)


def _print_job_result(job: dict) -> int:
    print(_render_job(job))
    if job.get("result") is not None:
        print(json.dumps(job["result"], indent=2, sort_keys=True))
    status = job["status"]
    if status == "done":
        return 0
    return 130 if status in ("cancelled", "interrupted") else 1


def _job_submit(client, args) -> int:
    spec = {k: v for k, v in _args_to_job_spec(args).to_dict().items()
            if v is not None}
    job = client.submit(spec, idempotency_key=args.idempotency_key)
    print(_render_job(job))
    if not args.wait:
        return 0
    return _print_job_result(client.wait(job["id"]))


def _job_status(client, args) -> int:
    if args.job_id is None:
        _print_service_summary(client.health())
        jobs = client.list_jobs()
        if not jobs:
            print("no jobs")
        for job in jobs:
            print(_render_job(job))
        return 0
    print(json.dumps(client.status(args.job_id), indent=2, sort_keys=True))
    return 0


def _job_result(client, args) -> int:
    if args.wait:
        return _print_job_result(
            client.wait(args.job_id, timeout_s=args.timeout))
    return _print_job_result(client.status(args.job_id))


def _job_cancel(client, args) -> int:
    print(_render_job(client.cancel(args.job_id)))
    return 0


def _job_drain(client, args) -> int:
    client.drain()
    print("daemon draining: it will finish the current job, "
          "keep the queue, and exit")
    return 0


def _cmd_litmus(args) -> int:
    from ..core import (
        C11TesterScheduler,
        NaiveRandomScheduler,
        PCTScheduler,
        PCTWMScheduler,
    )
    from ..core.depth import estimate_parameters
    from ..core.pos import POSScheduler
    from ..litmus import ALL_LITMUS
    from ..memory.model import resolve_model
    from .campaign import sanitize_this_trial

    model = resolve_model(args.model)
    if model.name == "tso":
        # The C11Tester baseline manipulates rf nondeterminism, which
        # TSO does not have; POS takes its column.
        columns = [
            ("naive", lambda est: lambda s: NaiveRandomScheduler(seed=s)),
            ("pos", lambda est: lambda s: POSScheduler(seed=s)),
            ("pct", lambda est: lambda s: PCTScheduler(2, est.k, seed=s)),
            ("pctwm",
             lambda est: lambda s: PCTWMScheduler(2, est.k_com, 2, seed=s)),
        ]
    else:
        columns = [
            ("naive", lambda est: lambda s: NaiveRandomScheduler(seed=s)),
            ("c11tester", lambda est: lambda s: C11TesterScheduler(seed=s)),
            ("pct", lambda est: lambda s: PCTScheduler(2, est.k, seed=s)),
            ("pctwm",
             lambda est: lambda s: PCTWMScheduler(2, est.k_com, 2, seed=s)),
        ]
    header = f"{'litmus':10s} " + " ".join(
        f"{label:>9s}" for label, _ in columns)
    print(f"model: {model.name}")
    print(header)
    print("-" * len(header))
    inconsistent = 0
    violation_samples: List[str] = []
    for name, factory in ALL_LITMUS.items():
        est = estimate_parameters(factory(), runs=3, seed=args.seed,
                                  model=model.name)
        rates = []
        for _, make_factory in columns:
            make = make_factory(est)
            hits = 0
            for i in range(args.trials):
                run = model.run_once(
                    factory(), make(args.seed + i), keep_graph=False,
                    sanitize=sanitize_this_trial(args.sanitize, i))
                hits += run.bug_found
                if run.inconsistent:
                    inconsistent += 1
                    if len(violation_samples) < 8:
                        violation_samples.extend(
                            f"{name}[{run.scheduler} trial {i}]: {v}"
                            for v in run.violations[:2])
            rates.append(100.0 * hits / args.trials)
        print(f"{name:10s} " + " ".join(f"{r:8.1f}%" for r in rates))
    if args.sanitize != "off":
        print(f"\nsanitizer ({args.sanitize}): "
              f"{inconsistent} inconsistent run(s)")
        for sample in violation_samples:
            print(f"  {sample}")
        if inconsistent:
            return 1
    return 0


def _cmd_fuzz(args) -> int:
    import time as _time

    from ..fuzz import engine_divergences, model_divergences, run_fuzz
    from .seeding import derive_trial_seed

    # Flags hold their declared bounds; min_ops follows a low --max-ops.
    config = FuzzConfig(min_ops=min(FuzzConfig.min_ops, args.max_ops),
                        **{name: getattr(args, name) for name in _FUZZ_FLAGS})
    started = _time.monotonic()
    try:
        report = run_fuzz(
            base_seed=args.seed, count=args.count, model=args.model,
            scheduler=args.scheduler, trials=args.trials,
            probe_trials=args.probe_trials, jobs=args.jobs,
            config=config, corpus_dir=args.corpus_dir,
            budget_s=args.budget, sanitize=args.sanitize)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Timings go to stderr: stdout is bit-identical across runs and jobs.
    print("\n".join(report.render()))
    status = 0
    seeds = [derive_trial_seed(args.seed, i) for i in range(args.count)]
    if args.differential in ("engine", "both"):
        divergences = engine_divergences(seeds, config,
                                         dump_dir=args.corpus_dir)
        print(f"differential engine: {len(divergences)} divergence(s) "
              f"over {len(seeds)} seeds")
        for record in divergences:
            print(f"  {record['kind']} gen_seed={record['gen_seed']} "
                  f"seed={record['seed']} model={record['model']}: "
                  f"{record['detail']}")
        status = status or (1 if divergences else 0)
    if args.differential in ("model", "both"):
        divergences = model_divergences(seeds, config,
                                        dump_dir=args.corpus_dir)
        print(f"differential model: {len(divergences)} divergence(s) "
              f"over {len(seeds)} seeds")
        for record in divergences:
            print(f"  {record['kind']} gen_seed={record['gen_seed']} "
                  f"seed={record['seed']} model={record['model']}: "
                  f"{record['detail']}")
        status = status or (1 if divergences else 0)
    print(f"fuzz: {_time.monotonic() - started:.1f}s", file=sys.stderr)
    return status


def _cmd_replay(args) -> int:
    from ..runtime.errors import render_diagnostics
    from .artifact import load_artifact, replay_artifact

    try:
        artifact = load_artifact(args.artifact)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot load artifact {args.artifact!r}: {exc}")
        return 2
    try:
        report = replay_artifact(artifact, minimize=args.minimize)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    print(report.render())
    if artifact.diagnostics:
        print()
        print(render_diagnostics(artifact.diagnostics))
    if report.minimized is not None and args.out:
        with open(args.out, "w") as fh:
            fh.write(report.minimized.to_json())
        print(f"minimized trace saved to {args.out}")
    return 0 if report.matched else 1
