"""Command-line interface: regenerate any table or figure of the paper.

Mirrors the artifact's ``result_pctwm.sh`` / ``run_all.sh`` scripts:

    python -m repro table1
    python -m repro table2 --trials 1000          # paper-scale
    python -m repro table3 --benchmarks dekker seqlock
    python -m repro table4 --runs 10
    python -m repro figure5 --trials 500
    python -m repro figure6 --trials 500
    python -m repro all --trials 100

plus utility commands beyond the artifact:

    python -m repro depth mpmcqueue               # estimate k/k_com/d
    python -m repro hunt seqlock --out trace.json # find a bug, save trace
    python -m repro litmus --trials 200           # run the litmus gallery
    python -m repro campaign msqueue --sanitize sampled --artifacts art/
    python -m repro replay art/trial-000007.json --minimize
    python -m repro bench                         # write BENCH_engine.json
    python -m repro bench --quick --check         # CI perf smoke gate

and the campaign service (see repro.service):

    python -m repro serve --state-dir svc/        # campaign-job daemon
    python -m repro job submit seqlock --trials 500 --jobs 4
    python -m repro job result job-000001 --wait
    python -m repro job drain
"""

from __future__ import annotations

import argparse
from dataclasses import fields
from typing import List, Optional

from ..memory.model import available_models
from .campaign import SANITIZE_MODES
from .figures import figure5, figure6, render_figure5, render_figure6
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


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _trial_timeout(text: str) -> float:
    """A ``--trial-timeout`` value: positive and at least the quantum.

    The budget is checked once per scheduler step, so values below one
    step quantum cannot distinguish a slow trial from any trial at all.
    """
    from .campaign import TRIAL_TIMEOUT_MIN_S

    value = _positive_float(text)
    if value < TRIAL_TIMEOUT_MIN_S:
        raise argparse.ArgumentTypeError(
            f"must be >= {TRIAL_TIMEOUT_MIN_S}s (one scheduler-step "
            f"quantum), got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the PCTWM paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model(cmd: argparse.ArgumentParser, default="c11") -> None:
        cmd.add_argument("--model", default=default,
                         choices=available_models(),
                         help="memory-model backend to execute under "
                              "(default: the C11 axiomatic engine; 'tso' "
                              "runs the x86-TSO store-buffer backend)")

    def add_sanitize(cmd: argparse.ArgumentParser, default="off") -> None:
        cmd.add_argument("--sanitize", default=default,
                         choices=SANITIZE_MODES,
                         help="audit execution graphs against the C11 "
                              "consistency axioms (sampled = every 10th "
                              "trial); violations are reported as "
                              "'inconsistent', never aborts")

    def add_campaign_flags(cmd: argparse.ArgumentParser) -> None:
        """The :class:`repro.service.jobs.JobSpec` flags shared by
        ``campaign`` and ``job submit``.  Each flag's dest is the field it
        sets, and a flag left out sets nothing, so the spec's own field
        defaults apply."""
        unset = argparse.SUPPRESS
        cmd.add_argument("benchmark")
        cmd.add_argument("--scheduler", default=unset)
        cmd.add_argument("--trials", type=_positive_int, default=unset)
        cmd.add_argument("--seed", type=_nonnegative_int, default=unset)
        cmd.add_argument("--jobs", type=_positive_int, default=unset)
        cmd.add_argument("--depth", type=int, default=unset)
        cmd.add_argument("--history", type=int, default=unset)
        cmd.add_argument("--max-steps", type=_positive_int, default=unset)
        cmd.add_argument("--trial-timeout", type=_trial_timeout,
                         default=unset, dest="trial_timeout_s",
                         metavar="SECONDS",
                         help="per-trial wall-clock budget; over-budget "
                              "trials are recorded as timeouts, not hangs")
        cmd.add_argument("--hang-timeout", type=_positive_float,
                         default=unset, dest="hang_timeout_s",
                         metavar="SECONDS",
                         help="preemptive hang budget: a pool worker "
                              "whose heartbeat stays stale this long is "
                              "hard-killed and its shard retried "
                              "(bit-identically); must exceed "
                              "--trial-timeout")
        cmd.add_argument("--memory-limit-mb", type=_positive_float,
                         default=unset, metavar="MIB",
                         help="soft per-worker RSS ceiling; workers above "
                              "it are recycled without affecting results")
        cmd.add_argument("--max-retries", type=_nonnegative_int,
                         default=unset,
                         help="retries per shard lost to a dead worker "
                              "before degrading to in-process execution")
        add_sanitize(cmd, unset)
        add_model(cmd, unset)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--trials", type=_positive_int, default=100,
                         help="runs per configuration (paper: 1000/500)")
        cmd.add_argument("--seed", type=_nonnegative_int, default=0)
        cmd.add_argument("--benchmarks", nargs="*", default=None)
        cmd.add_argument("--jobs", type=_positive_int, default=1,
                         help="worker processes per campaign (1 = serial; "
                              "results are identical for any value)")
        add_sanitize(cmd)
        return cmd

    add("table1", "benchmark characteristics (k, k_com, d)")
    add("table2", "PCTWM hit rates for d, d+1, d+2")
    add("table3", "PCTWM hit rates for h = 1..4")
    t4 = sub.add_parser("table4", help="application performance overhead")
    t4.add_argument("--runs", type=_positive_int, default=10)
    t4.add_argument("--scale", type=_positive_int, default=1)
    t4.add_argument("--seed", type=_nonnegative_int, default=0)
    add("figure5", "highest hit rates: C11Tester vs PCT vs PCTWM")
    add("figure6", "hit rate vs inserted relaxed writes")
    everything = add("all", "run every table and figure")
    everything.add_argument("--runs", type=_positive_int, default=10)

    depth_cmd = sub.add_parser(
        "depth", help="estimate k, k_com and the empirical bug depth")
    depth_cmd.add_argument("benchmark")
    depth_cmd.add_argument("--trials", type=_positive_int, default=150)
    depth_cmd.add_argument("--max-depth", type=_positive_int, default=4)
    depth_cmd.add_argument("--seed", type=_nonnegative_int, default=0)

    hunt_cmd = sub.add_parser(
        "hunt", help="find a bug with PCTWM and save a replayable trace")
    hunt_cmd.add_argument("benchmark")
    hunt_cmd.add_argument("--attempts", type=_positive_int, default=1000)
    hunt_cmd.add_argument("--depth", type=int, default=None)
    hunt_cmd.add_argument("--history", type=int, default=None)
    hunt_cmd.add_argument("--seed", type=_nonnegative_int, default=0)
    hunt_cmd.add_argument("--out", default=None,
                          help="write the trace JSON here")

    campaign_cmd = sub.add_parser(
        "campaign",
        help="run one hit-rate campaign, optionally sharded over workers")
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
    campaign_cmd.add_argument("--artifacts", default=argparse.SUPPRESS,
                              dest="artifact_dir", metavar="DIR",
                              help="write a replayable JSON artifact here "
                                   "for every trial that finds a bug, "
                                   "errors, times out, or is flagged "
                                   "inconsistent")

    serve_cmd = sub.add_parser(
        "serve",
        help="run the campaign-job daemon (local HTTP/JSON API)")
    serve_cmd.add_argument("--state-dir", default=".repro-service",
                           metavar="DIR",
                           help="job records and checkpoint journals "
                                "live here; restarting with the same "
                                "dir resumes interrupted jobs")
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument("--port", type=_nonnegative_int, default=None,
                           help="listen port (default 8642; 0 picks an "
                                "ephemeral port, advertised in "
                                "STATE_DIR/endpoint.json)")
    serve_cmd.add_argument("--rate", type=_positive_float, default=2.0,
                           help="sustained job submissions accepted "
                                "per second (token bucket)")
    serve_cmd.add_argument("--burst", type=_positive_int, default=10,
                           help="submission burst size before 429s")
    serve_cmd.add_argument("--start-method", default=None,
                           choices=("fork", "spawn", "forkserver"),
                           help="campaign pool start method (default: "
                                "forkserver — the daemon holds HTTP "
                                "threads, so fork is unsafe)")
    serve_cmd.add_argument("--worker-budget", type=_positive_int,
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

    def add_url(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("--url", default=None,
                         help="daemon base URL (default: "
                              "$REPRO_SERVICE_URL or "
                              "http://127.0.0.1:8642)")

    submit_cmd = job_sub.add_parser(
        "submit", help="queue one campaign on the daemon")
    add_campaign_flags(submit_cmd)
    submit_cmd.add_argument("--wait", action="store_true",
                            help="block until the job finishes and "
                                 "print its result")
    submit_cmd.add_argument("--idempotency-key", default=None,
                            metavar="KEY",
                            help="resubmitting the same key returns the "
                                 "existing job instead of a duplicate "
                                 "(default: auto-generated per submit)")
    add_url(submit_cmd)

    status_cmd = job_sub.add_parser(
        "status", help="one job's record, or all jobs without an id")
    status_cmd.add_argument("job_id", nargs="?", default=None)
    add_url(status_cmd)

    result_cmd = job_sub.add_parser(
        "result", help="a finished job's result summary")
    result_cmd.add_argument("job_id")
    result_cmd.add_argument("--wait", action="store_true",
                            help="poll until the job finishes")
    result_cmd.add_argument("--timeout", type=_positive_float,
                            default=None, metavar="SECONDS",
                            help="give up waiting after this long")
    add_url(result_cmd)

    cancel_cmd = job_sub.add_parser(
        "cancel", help="cancel a queued or running job")
    cancel_cmd.add_argument("job_id")
    add_url(cancel_cmd)

    drain_cmd = job_sub.add_parser(
        "drain", help="ask the daemon to finish its current job, "
                      "keep the queue, and exit")
    add_url(drain_cmd)

    litmus_cmd = sub.add_parser(
        "litmus", help="run the litmus gallery under every scheduler")
    litmus_cmd.add_argument("--trials", type=_positive_int, default=200)
    litmus_cmd.add_argument("--seed", type=_nonnegative_int, default=0)
    add_sanitize(litmus_cmd)
    add_model(litmus_cmd)

    fuzz_cmd = sub.add_parser(
        "fuzz",
        help="seeded program fuzzing: generate -> campaign -> shrink "
             "-> corpus (deterministic for a given seed)")
    fuzz_cmd.add_argument("--seed", type=_nonnegative_int, default=0)
    fuzz_cmd.add_argument("--count", type=_positive_int, default=20,
                          help="generated programs to campaign over")
    fuzz_cmd.add_argument("--trials", type=_positive_int, default=100,
                          help="campaign trials per generated program")
    fuzz_cmd.add_argument("--probe-trials", type=_positive_int, default=16,
                          help="in-process probe runs per (d, h) candidate "
                               "during coverage steering")
    fuzz_cmd.add_argument("--scheduler", default="pctwm",
                          help="campaign scheduler; pctwm/pct get an "
                               "adaptive parameter search, others run "
                               "with defaults")
    fuzz_cmd.add_argument("--jobs", type=_positive_int, default=1,
                          help="worker processes per campaign (output is "
                               "identical for any value)")
    fuzz_cmd.add_argument("--budget", type=_positive_float, default=None,
                          metavar="SECONDS",
                          help="soft wall-clock cap, checked between "
                               "programs; a budgeted run may truncate the "
                               "program list but never changes per-program "
                               "results")
    fuzz_cmd.add_argument("--corpus-dir", default=None, metavar="DIR",
                          help="write minimized, replay-validated corpus "
                               "entries here (one JSON per finding)")
    fuzz_cmd.add_argument("--max-threads", type=_positive_int, default=3)
    fuzz_cmd.add_argument("--max-ops", type=_positive_int, default=6,
                          help="per-thread operation bound (incl. any "
                               "embedded oracle)")
    fuzz_cmd.add_argument("--max-locations", type=_positive_int, default=4)
    fuzz_cmd.add_argument("--profile", default="mixed",
                          choices=("mixed", "determinate"),
                          help="'determinate' generates race-free programs "
                               "with an interleaving-invariant final state")
    fuzz_cmd.add_argument("--oracle", default="auto",
                          choices=("off", "auto", "always"),
                          help="embed a message-passing assertion oracle")
    fuzz_cmd.add_argument("--allow-nonatomic", action="store_true",
                          help="generate non-atomic (racy) accesses too")
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
    add_model(fuzz_cmd)

    replay_cmd = sub.add_parser(
        "replay", help="re-execute a bug artifact and verify the outcome")
    replay_cmd.add_argument("artifact", help="artifact JSON path (written "
                                             "by campaign --artifacts)")
    replay_cmd.add_argument("--minimize", action="store_true",
                            help="shrink the decision trace while "
                                 "preserving the bug (bug artifacts only)")
    replay_cmd.add_argument("--out", default=None, metavar="PATH",
                            help="write the minimized trace JSON here")

    bench_cmd = sub.add_parser(
        "bench",
        help="measure engine events/sec and write BENCH_engine.json")
    bench_cmd.add_argument("--quick", action="store_true",
                           help="small batches for CI smoke runs")
    bench_cmd.add_argument("--check", action="store_true",
                           help="compare engine and campaign throughput "
                                "against the committed trajectory and "
                                "fail on regressions")
    bench_cmd.add_argument("--out", default=None, metavar="PATH",
                           help="write the JSON trajectory here "
                                "(default: BENCH_engine.json unless "
                                "--check)")
    bench_cmd.add_argument("--baseline", default="BENCH_engine.json",
                           metavar="PATH",
                           help="committed trajectory --check compares "
                                "against")
    bench_cmd.add_argument("--tolerance", type=_positive_float,
                           default=0.30,
                           help="allowed fractional slowdown for --check")
    bench_cmd.add_argument("--seed", type=_nonnegative_int, default=0)
    bench_cmd.add_argument("--model", default="all",
                           choices=("all", "c11", "tso"),
                           help="which memory-model engine cells to "
                                "measure (default: all)")

    report_cmd = sub.add_parser(
        "report", help="regenerate the full evaluation as markdown")
    report_cmd.add_argument("--trials", type=_positive_int, default=100)
    report_cmd.add_argument("--runs", type=_positive_int, default=10)
    report_cmd.add_argument("--seed", type=_nonnegative_int, default=0)
    report_cmd.add_argument("--scale", type=_positive_int, default=1)
    report_cmd.add_argument("--jobs", type=_positive_int, default=1)
    report_cmd.add_argument("--out", default="evaluation_report.md")
    add_sanitize(report_cmd)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    command = args.command
    jobs = getattr(args, "jobs", 1)
    if command == "depth":
        return _cmd_depth(args)
    if command == "hunt":
        return _cmd_hunt(args)
    if command == "campaign":
        return _cmd_campaign(args)
    if command == "serve":
        return _cmd_serve(args)
    if command == "job":
        return _cmd_job(args)
    if command == "litmus":
        return _cmd_litmus(args)
    if command == "fuzz":
        return _cmd_fuzz(args)
    if command == "replay":
        return _cmd_replay(args)
    if command == "bench":
        from .bench import bench_command

        out = args.out
        if out is None and not args.check:
            out = "BENCH_engine.json"
        return bench_command(out=out, quick=args.quick, check=args.check,
                             baseline_path=args.baseline, seed=args.seed,
                             tolerance=args.tolerance, model=args.model)
    if command == "report":
        from .report import write_report

        path = write_report(args.out, trials=args.trials, runs=args.runs,
                            seed=args.seed, scale=args.scale, jobs=jobs,
                            sanitize=args.sanitize)
        print(f"report written to {path}")
        return 0
    if command in ("table1", "all"):
        print("== Table 1: benchmark characteristics ==")
        print(render_table1(table1(seed=args.seed)))
        print()
    sanitize = getattr(args, "sanitize", "off")
    if command in ("table2", "all"):
        print("== Table 2: hit rate vs bug depth ==")
        print(render_table2(table2(trials=args.trials, seed=args.seed,
                                   benchmarks=args.benchmarks, jobs=jobs,
                                   sanitize=sanitize)))
        print()
    if command in ("table3", "all"):
        print("== Table 3: hit rate vs history depth ==")
        print(render_table3(table3(trials=args.trials, seed=args.seed,
                                   benchmarks=args.benchmarks, jobs=jobs,
                                   sanitize=sanitize)))
        print()
    if command in ("table4", "all"):
        print("== Table 4: application performance ==")
        runs = getattr(args, "runs", 10)
        scale = getattr(args, "scale", 1)
        print(render_table4(table4(runs=runs, seed=args.seed, scale=scale)))
        print()
    if command in ("figure5", "all"):
        from .charts import bar_chart

        print("== Figure 5: highest observed hit rates ==")
        bars = figure5(trials=args.trials, seed=args.seed,
                       benchmarks=args.benchmarks, jobs=jobs)
        print(render_figure5(bars))
        print()
        print(bar_chart(bars))
        print()
    if command in ("figure6", "all"):
        from .charts import line_charts

        print("== Figure 6: inserted relaxed writes ==")
        series = figure6(trials=args.trials, seed=args.seed,
                         benchmarks=args.benchmarks, jobs=jobs)
        print(render_figure6(series))
        print()
        print(line_charts(series))
        print()
    return 0


def _cmd_depth(args) -> int:
    from ..core.depth import empirical_bug_depth, estimate_parameters
    from ..workloads import BENCHMARKS

    info = BENCHMARKS[args.benchmark]
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
    from ..core.depth import estimate_parameters
    from ..core.pctwm import PCTWMScheduler
    from ..replay import find_and_record
    from ..workloads import BENCHMARKS

    info = BENCHMARKS[args.benchmark]
    est = estimate_parameters(info.build(), runs=3, seed=args.seed)
    depth = args.depth if args.depth is not None else info.measured_depth
    history = args.history if args.history is not None \
        else info.best_history
    print(f"hunting {info.name} with PCTWM(d={depth}, k_com={est.k_com}, "
          f"h={history})...")
    found = find_and_record(
        info.build,
        lambda seed: PCTWMScheduler(depth, est.k_com, history, seed=seed),
        max_attempts=args.attempts, base_seed=args.seed,
    )
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
    """A validated-later :class:`repro.service.jobs.JobSpec` from CLI
    campaign/submit arguments: the fields whose flags were given."""
    from ..service.jobs import JobSpec

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
    except KeyboardInterrupt:
        print("interrupted before any trial completed")
        return 130
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
    import json as _json

    print(_render_job(job))
    if job.get("result") is not None:
        print(_json.dumps(job["result"], indent=2, sort_keys=True))
    status = job["status"]
    if status == "done":
        return 0
    return 130 if status in ("cancelled", "interrupted") else 1


def _cmd_job(args) -> int:
    import json as _json

    from ..service.client import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        if args.job_command == "submit":
            spec = {k: v for k, v in _args_to_job_spec(args)
                    .to_dict().items() if v is not None}
            job = client.submit(spec,
                                idempotency_key=args.idempotency_key)
            print(_render_job(job))
            if not args.wait:
                return 0
            return _print_job_result(client.wait(job["id"]))
        if args.job_command == "status":
            if args.job_id is None:
                _print_service_summary(client.health())
                jobs = client.list_jobs()
                if not jobs:
                    print("no jobs")
                for job in jobs:
                    print(_render_job(job))
                return 0
            print(_json.dumps(client.status(args.job_id),
                              indent=2, sort_keys=True))
            return 0
        if args.job_command == "result":
            if args.wait:
                return _print_job_result(
                    client.wait(args.job_id, timeout_s=args.timeout))
            return _print_job_result(client.status(args.job_id))
        if args.job_command == "cancel":
            print(_render_job(client.cancel(args.job_id)))
            return 0
        if args.job_command == "drain":
            client.drain()
            print("daemon draining: it will finish the current job, "
                  "keep the queue, and exit")
            return 0
    except ServiceError as exc:
        print(f"error: {exc.message}")
        return 2
    raise AssertionError(f"unhandled job command {args.job_command!r}")


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
    import sys
    import time as _time

    from ..fuzz import (
        FuzzConfig,
        engine_divergences,
        model_divergences,
        run_fuzz,
    )
    from .seeding import derive_trial_seed

    try:
        config = FuzzConfig(
            min_threads=min(2, args.max_threads),
            max_threads=args.max_threads,
            min_ops=min(2, args.max_ops),
            max_ops=args.max_ops,
            max_locations=args.max_locations,
            profile=args.profile,
            oracle=args.oracle,
            allow_nonatomic=args.allow_nonatomic,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
