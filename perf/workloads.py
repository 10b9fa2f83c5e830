"""The benchmark's four workloads, and the process that measures one.

``perf/run.py`` starts this file once per workload, in a fresh process::

    python3 perf/workloads.py --workload silo-c11 --seed 0 --seconds 20 \\
        --trace 0 --work DIR --result FILE

Each workload is a closed loop with one client: the next request is sent
only after the previous one completes.  A request is one call into a
public entry point of ``repro`` (``run_campaign``, the daemon's
``ServiceClient.submit`` + status polls + ``result``, or ``run_fuzz``),
timed from outside.  Inputs are generated from ``--seed``; the program
sees only them.

The process prints ``ready`` once set-up (imports, specs, daemon start,
one warm-up request) is done, so the parent can time set-up, then runs
the timed loop, then the correctness checks, and writes its findings to
``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.core.factory import SchedulerSpec
from repro.fuzz import driver as fuzz_driver
from repro.fuzz.corpus import corpus_files, load_entry, replay_entry
from repro.harness import campaign
from repro.harness.artifact import load_artifact, replay_artifact
from repro.harness.seeding import derive_trial_seed
from repro.memory.model import resolve_model
from repro.service.client import (TERMINAL_STATUSES, ServiceClient,
                                  ServiceError)
from repro.service.jobs import JobSpec, result_summary, run_job
from repro.workloads import BENCHMARK_ORDER, BENCHMARKS, ProgramSpec

from tracing import Tracer


def request_seed(workload: str, seed: int, index: int) -> int:
    """The ``base_seed`` of request ``index``: a function of the run seed."""
    return random.Random(f"{workload}/{seed}/{index}").getrandbits(31)


def percentile(values: List[float], pct: int) -> float:
    """Inclusive ``pct``-th percentile (0 for no samples)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


@dataclass
class Outcome:
    """One request: its latency, digest and what the checks need."""

    seconds: float
    digest: str
    trials: int
    programs: int
    failed: bool
    hits: int = 0
    events: int = 0
    steps: int = 0
    info: Dict = field(default_factory=dict)


def counts_digest(hits, events, steps) -> str:
    return f"hits={hits} events={events} steps={steps}"


class Workload:
    """A request generator plus the client that sends the requests."""

    name = ""
    #: Requests the trace run sends untraced, then again traced.
    trace_requests = 0

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        self._calls = 0

    def inputs(self, index: int) -> dict:
        """The generated inputs of request ``index`` (JSON-safe)."""
        raise NotImplementedError

    def call(self, index: int) -> Outcome:
        """Send request ``index`` and wait for its result."""
        raise NotImplementedError

    def setup(self) -> None:
        self.call(-1)  # warm-up request, outside the sequence

    def checks(self, outcomes: List[Outcome]) -> List[dict]:
        return []

    def close(self) -> None:
        """Stop what :meth:`setup` started."""

    def extra_rss_mb(self) -> float:
        return 0.0

    def layer_metrics(self, untraced: List[Outcome],
                      count: int) -> Dict[str, float]:
        """Workload-specific per-layer metrics, taken before tracing."""
        return {}

    def after_traced(self, tracer: Tracer, count: int) -> None:
        """Extra traced work after the traced requests."""

    def _fresh_dir(self, prefix: str) -> str:
        self._calls += 1
        return os.path.join(self.work_dir, f"{prefix}-{self._calls}")


def check(name: str, ok: bool, detail: str = "") -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


# -- in-process campaigns -----------------------------------------------------


class Cell(NamedTuple):
    program: ProgramSpec
    scheduler: SchedulerSpec
    model: str
    trials: int
    max_steps: int


class CampaignWorkload(Workload):
    """Requests are serial ``run_campaign`` calls, one cell each."""

    #: Requests re-run trial by trial on the reference engine.
    REFERENCE_REQUESTS = 2

    def cell(self, inputs: dict) -> Cell:
        raise NotImplementedError

    def call(self, index: int) -> Outcome:
        inputs = self.inputs(index)
        cell = self.cell(inputs)
        start = time.perf_counter()
        result = campaign.run_campaign(
            cell.program, cell.scheduler, trials=cell.trials,
            base_seed=inputs["base_seed"], max_steps=cell.max_steps,
            model=cell.model)
        return Outcome(
            seconds=time.perf_counter() - start,
            digest=counts_digest(result.hits, result.total_events,
                                 result.total_steps),
            trials=result.completed, programs=1,
            failed=bool(result.errors or result.timeouts
                        or result.inconsistent
                        or result.completed != result.trials),
            hits=result.hits, events=result.total_events,
            steps=result.total_steps)

    def checks(self, outcomes: List[Outcome]) -> List[dict]:
        found = []
        for index, outcome in enumerate(
                outcomes[:self.REFERENCE_REQUESTS]):
            inputs = self.inputs(index)
            cell = self.cell(inputs)
            backend = resolve_model(cell.model)
            program = cell.program.build()
            hits = events = steps = 0
            for trial in range(cell.trials):
                run = backend.run_once(
                    program,
                    cell.scheduler(derive_trial_seed(inputs["base_seed"],
                                                     trial)),
                    max_steps=cell.max_steps, keep_graph=False,
                    engine="reference")
                hits += run.bug_found
                events += run.k
                steps += run.steps
            got = (outcome.hits, outcome.events, outcome.steps)
            found.append(check(
                f"reference-engine[{index}]", got == (hits, events, steps),
                f"campaign {got} vs reference {(hits, events, steps)}"))
        return found


class SiloC11(CampaignWorkload):
    name = "silo-c11"
    trace_requests = 20
    CELL = Cell(ProgramSpec("silo", "app", {"workers": 3, "transactions": 6}),
                SchedulerSpec("pctwm", {"depth": 2, "k_com": 100,
                                        "history": 2}),
                "c11", 130, 20000)

    def inputs(self, index: int) -> dict:
        return {"base_seed": request_seed(self.name, self.seed, index)}

    def cell(self, inputs: dict) -> Cell:
        return self.CELL


class LitmusGrid(CampaignWorkload):
    name = "litmus-grid"
    trace_requests = 48
    #: Litmus shapes whose weak outcome x86-TSO forbids.
    TSO_FORBIDDEN = ("MP", "LB", "IRIW")
    GRID = [(litmus, model, depth, history)
            for litmus in ("SB", "MP", "LB", "IRIW")
            for model in ("c11", "tso")
            for depth in (1, 2, 3)
            for history in (1, 2)]

    def inputs(self, index: int) -> dict:
        litmus, model, depth, history = self.GRID[index % len(self.GRID)]
        return {"litmus": litmus, "model": model, "depth": depth,
                "history": history,
                "base_seed": request_seed(self.name, self.seed, index)}

    def cell(self, inputs: dict) -> Cell:
        return Cell(ProgramSpec(inputs["litmus"], "litmus"),
                    SchedulerSpec("pctwm", {"depth": inputs["depth"],
                                            "k_com": 8,
                                            "history": inputs["history"]}),
                    inputs["model"], 1200, 2000)

    def checks(self, outcomes: List[Outcome]) -> List[dict]:
        found = super().checks(outcomes)
        weak = [(index, outcome.hits)
                for index, outcome in enumerate(outcomes)
                if self.inputs(index)["model"] == "tso"
                and self.inputs(index)["litmus"] in self.TSO_FORBIDDEN
                and outcome.hits]
        found.append(check("tso-forbids-mp-lb-iriw", not weak,
                           f"requests with TSO-forbidden hits: {weak}"))
        return found


# -- the campaign daemon ------------------------------------------------------


class BughuntDaemon(Workload):
    """Jobs sent to a ``python -m repro serve`` process over HTTP."""

    name = "bughunt-daemon"
    trace_requests = 9
    TRIALS = 150
    JOBS = min(2, os.cpu_count() or 1)
    POLL_S = 0.01
    #: Every this many requests, one job is re-run in-process.
    SAMPLE_EVERY = 25

    def __init__(self, seed: int, work_dir: str):
        super().__init__(seed, work_dir)
        self.state_dir = os.path.join(work_dir, "daemon")
        self.proc: Optional[subprocess.Popen] = None
        self.client: Optional[ServiceClient] = None
        #: benchmark -> an artifact directory kept for the replay check.
        self.kept_artifacts: Dict[str, str] = {}

    def inputs(self, index: int) -> dict:
        info = BENCHMARKS[BENCHMARK_ORDER[index % len(BENCHMARK_ORDER)]]
        return {"benchmark": info.name, "depth": info.measured_depth,
                "history": info.best_history, "trials": self.TRIALS,
                "seed": request_seed(self.name, self.seed, index),
                "jobs": self.JOBS, "sanitize": "sampled"}

    def setup(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--state-dir",
             self.state_dir, "--port", "0", "--rate", "1000", "--burst",
             "1000", "--quiet"], stdout=subprocess.DEVNULL)
        endpoint = os.path.join(self.state_dir, "endpoint.json")
        deadline = time.monotonic() + 60
        while not os.path.exists(endpoint):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("campaign daemon did not start")
            time.sleep(0.005)
        with open(endpoint) as fh:
            self.client = ServiceClient(json.load(fh)["url"])
        self.client.health()
        super().setup()

    def call(self, index: int) -> Outcome:
        client = self.client
        artifact_dir = self._fresh_dir("artifacts")
        spec = dict(self.inputs(index), artifact_dir=artifact_dir)
        start = time.perf_counter()
        job_id = client.submit(spec)["id"]
        submitted = time.perf_counter()
        polls = 0
        while True:
            job = client.status(job_id)
            polls += 1
            if job["status"] in TERMINAL_STATUSES:
                break
            time.sleep(self.POLL_S)
        done = time.perf_counter()
        result = client.result(job_id)["result"] \
            if job["status"] == "done" else {}
        end = time.perf_counter()
        artifacts = sorted(os.listdir(artifact_dir)) \
            if os.path.isdir(artifact_dir) else []
        info = {
            "submit_s": submitted - start,
            "result_s": end - done,
            "polls": polls,
            "queue_wait_s": (job["started_at"] or 0) - job["submitted_at"],
            "run_s": (job["finished_at"] or 0) - (job["started_at"] or 0),
            "summary": {key: result.get(key) for key in SUMMARY_KEYS},
            "journal_bytes": _size(os.path.join(
                self.state_dir, "journals", f"{job_id}.jsonl")),
        }
        if artifacts and spec["benchmark"] not in self.kept_artifacts:
            self.kept_artifacts[spec["benchmark"]] = os.path.join(
                artifact_dir, artifacts[0])
        else:
            shutil.rmtree(artifact_dir, ignore_errors=True)
        return Outcome(
            seconds=end - start,
            digest=counts_digest(result.get("hits"),
                                 result.get("total_events"),
                                 result.get("total_steps")),
            trials=result.get("completed", 0), programs=1,
            failed=(job["status"] != "done" or bool(
                result["errors"] or result["timeouts"]
                or result["inconsistent"])),
            hits=result.get("hits", 0), events=result.get("total_events", 0),
            steps=result.get("total_steps", 0), info=info)

    def replica(self, index: int, jobs: int) -> float:
        """Run request ``index``'s job spec in-process; returns seconds.

        ``jobs=1`` is the serial campaign; more is the daemon's own call,
        with a checkpoint journal and forkserver pool workers.
        """
        spec = JobSpec(**dict(self.inputs(index), jobs=jobs,
                              artifact_dir=self._fresh_dir("replica")))
        checkpoint = None
        if jobs > 1:
            checkpoint = self._fresh_dir("journal") + ".jsonl"
        start = time.perf_counter()
        run_job(spec, checkpoint=checkpoint,
                start_method="forkserver" if jobs > 1 else None)
        return time.perf_counter() - start

    def layer_metrics(self, untraced: List[Outcome],
                      count: int) -> Dict[str, float]:
        """What the client sees of the daemon, plus in-process replicas."""
        def p50(key):
            return percentile([o.info[key] for o in untraced], 50)

        self.replica(-1, self.JOBS)  # starts this process's forkserver
        parallel = [self.replica(i, self.JOBS) for i in range(count)]
        serial = [self.replica(i, 1) for i in range(count)]
        parallel_p50 = percentile(parallel, 50)
        return {
            "harness.serial.request_s_p50": percentile(serial, 50),
            "harness.parallel.request_s_p50": parallel_p50,
            "harness.journal.bytes": sum(o.info["journal_bytes"]
                                         for o in untraced),
            "service.submit_s_p50": p50("submit_s"),
            "service.polls_per_job": _ratio(
                sum(o.info["polls"] for o in untraced), len(untraced)),
            "service.queue_wait_s_p50": p50("queue_wait_s"),
            "service.run_s_p50": p50("run_s"),
            "service.result_s_p50": p50("result_s"),
            "service.overhead_s_p50": percentile(
                [o.seconds for o in untraced], 50) - parallel_p50,
        }

    def after_traced(self, tracer: Tracer, count: int) -> None:
        # Jobs run in the daemon's processes, out of the recorders' reach;
        # the serial replica of each job shows its layers in this one.
        for index in range(count):
            with tracer.span("replica"):
                self.replica(index, 1)

    def checks(self, outcomes: List[Outcome]) -> List[dict]:
        found = []
        for index in range(0, len(outcomes), self.SAMPLE_EVERY):
            spec = JobSpec(**dict(self.inputs(index), jobs=1))
            local = result_summary(run_job(spec))
            expected = {key: local[key] for key in SUMMARY_KEYS}
            got = outcomes[index].info["summary"]
            found.append(check(f"daemon-equals-in-process[{index}]",
                               got == expected,
                               f"daemon {got} vs in-process {expected}"))
        for benchmark, path in sorted(self.kept_artifacts.items()):
            report = replay_artifact(load_artifact(path))
            found.append(check(f"artifact-replays[{benchmark}]",
                               report.matched, report.mismatch or ""))
        return found

    def extra_rss_mb(self) -> float:
        """The daemon's peak resident set (``VmHWM``), in MB."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        return 0.0

    def close(self) -> None:
        if self.proc is not None:
            try:
                if self.client is not None:
                    self.client.drain()
                self.proc.wait(timeout=30)
            except (ServiceError, subprocess.TimeoutExpired):
                self.proc.terminate()
                try:
                    self.proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
        _stop_forkserver()


#: Job-result fields the daemon-vs-in-process check compares.
SUMMARY_KEYS = ("completed", "hits", "total_events", "total_steps",
                "errors", "timeouts", "inconsistent")


def _size(path: str) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _stop_forkserver() -> None:
    """Stop (and wait for) the forkserver the replicas may have started."""
    import multiprocessing.forkserver as forkserver

    server = getattr(forkserver, "_forkserver", None)
    if server is not None and hasattr(server, "_stop"):
        server._stop()


# -- the fuzz pipeline --------------------------------------------------------


class FuzzPipeline(Workload):
    name = "fuzz-pipeline"
    trace_requests = 20
    COUNT = 3

    def inputs(self, index: int) -> dict:
        return {"base_seed": request_seed(self.name, self.seed, index),
                "model": ("c11", "tso")[index % 2], "count": self.COUNT}

    def call(self, index: int) -> Outcome:
        inputs = self.inputs(index)
        corpus_dir = self._fresh_dir("corpus")
        start = time.perf_counter()
        report = fuzz_driver.run_fuzz(corpus_dir=corpus_dir, **inputs)
        seconds = time.perf_counter() - start
        programs = report.programs
        text = "\n".join(report.render())
        return Outcome(
            seconds=seconds,
            digest=hashlib.sha256(text.encode()).hexdigest()[:16],
            trials=sum(p.trials for p in programs),
            programs=len(programs),
            # An inconsistent trial is a finding the pipeline shrinks into
            # a corpus entry (checked by replay), not a failed request.
            failed=bool(report.truncated or any(
                p.errors or p.timeouts for p in programs)),
            hits=sum(p.hits for p in programs),
            info={"corpus_dir": corpus_dir,
                  "corpus_entries": len(report.corpus_paths)})

    def checks(self, outcomes: List[Outcome]) -> List[dict]:
        bad, total = [], 0
        for outcome in outcomes:
            for path in corpus_files(outcome.info["corpus_dir"]):
                total += 1
                replay = replay_entry(load_entry(path))
                if not replay.ok:
                    bad.append(replay.render())
        return [check("corpus-entries-replay", not bad,
                      f"{total} entries; failures: {bad}")]


WORKLOADS = {cls.name: cls for cls in (SiloC11, LitmusGrid, BughuntDaemon,
                                       FuzzPipeline)}


# -- measuring ----------------------------------------------------------------


def run_requests(workload: Workload, count: Optional[int],
                 seconds: Optional[float]) -> Tuple[List[Outcome], float]:
    """The closed loop: requests 0, 1, ... until ``count`` or ``seconds``.

    Returns the outcomes and the loop's wall time.
    """
    outcomes: List[Outcome] = []
    start = time.perf_counter()
    while (count is None or len(outcomes) < count) and \
            (seconds is None or time.perf_counter() - start < seconds):
        outcomes.append(workload.call(len(outcomes)))
    return outcomes, time.perf_counter() - start


def end_to_end_metrics(workload: Workload, outcomes: List[Outcome],
                       wall_s: float) -> Dict[str, float]:
    """Every end-to-end metric but ``setup_s``, which the parent times.

    Throughputs are work completed ÷ ``wall_s``, the wall time of the
    timed loop, so time between requests counts against them.
    """
    latencies = [o.seconds for o in outcomes]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "trials_per_s": sum(o.trials for o in outcomes) / wall_s,
        "programs_per_s": sum(o.programs for o in outcomes) / wall_s,
        "request_s_p50": percentile(latencies, 50),
        "request_s_p90": percentile(latencies, 90),
        "peak_rss_mb": rss_kb / 1024 + workload.extra_rss_mb(),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(workload: Workload, tracer: Tracer,
                  untraced: List[Outcome], traced_wall_s: float,
                  extra: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of a trace run (see perf/README.md)."""
    trials = sum(o.trials for o in untraced)
    untraced_s = sum(o.seconds for o in untraced)
    trial_count = tracer.count("harness.trial")
    metrics = {
        "harness.trial.count": trial_count,
        "harness.trial.self_us": _ratio(
            tracer.self_s("harness.trial") * 1e6, trial_count),
        "harness.campaign.self_s": tracer.self_s("harness.campaign"),
        "harness.hit_ratio": _ratio(sum(o.hits for o in untraced), trials),
        "harness.artifact.count": tracer.count("harness.artifact"),
        "harness.artifact.bytes": tracer.artifact_bytes,
        "runtime.events_per_s": _ratio(sum(o.events for o in untraced),
                                       untraced_s),
        "runtime.events_per_trial": _ratio(sum(o.events for o in untraced),
                                           trials),
        "runtime.steps_per_trial": _ratio(sum(o.steps for o in untraced),
                                          trials),
        "fuzz.finding_ratio": _ratio(
            sum(o.info.get("corpus_entries", 0) for o in untraced),
            sum(o.programs for o in untraced)),
        "trace.overhead_ratio": _ratio(traced_wall_s, untraced_s),
    }
    for name in ("runtime.read_context", "workloads.thread_advance",
                 "core.choose_thread", "core.choose_read_from",
                 "core.on_event_executed", "memory.graph", "memory.races",
                 "memory.sanitizer", "tso.enabled", "replay.record",
                 "replay.minimize"):
        metrics[f"{name}.count"] = tracer.count(name)
        metrics[f"{name}.self_s"] = tracer.self_s(name)
    for name in ("runtime.run", "runtime.state_reset", "core.run_start",
                 "tso.run", "fuzz.generate", "fuzz.estimate", "fuzz.probe",
                 "fuzz.campaign", "fuzz.shrink", "fuzz.corpus"):
        metrics[f"{name}.self_s"] = tracer.self_s(name)
    metrics.update(extra)
    return metrics


#: Zeros for the per-layer metrics only the daemon workload measures.
DAEMON_ONLY = dict.fromkeys((
    "harness.serial.request_s_p50", "harness.parallel.request_s_p50",
    "harness.journal.bytes", "service.submit_s_p50", "service.polls_per_job",
    "service.queue_wait_s_p50", "service.run_s_p50", "service.result_s_p50",
    "service.overhead_s_p50"), 0.0)


def measure_trace(workload: Workload, count: int, spans_path: str) -> dict:
    """Send ``count`` requests untraced, then the same ``count`` traced."""
    untraced, _ = run_requests(workload, count, None)
    extra = dict(DAEMON_ONLY, **workload.layer_metrics(untraced, count))
    tracer = Tracer()
    tracer.install()
    traced: List[Outcome] = []
    start = time.perf_counter()
    try:
        for index in range(count):
            with tracer.span("request"):
                traced.append(workload.call(index))
        traced_requests_s = time.perf_counter() - start
        workload.after_traced(tracer, count)
    finally:
        traced_wall_s = time.perf_counter() - start
        tracer.uninstall()
    tracer.write_spans(spans_path)
    same = [o.digest for o in untraced] == [o.digest for o in traced]
    return {
        "outcomes": untraced + traced,
        "digests": [o.digest for o in untraced],
        "checks": [check("traced-equals-untraced", same,
                         "digests of the traced requests")],
        "metrics": layer_metrics(workload, tracer, untraced,
                                 traced_requests_s, extra),
        "self_s": tracer.self_times_s(),
        "traced_wall_s": traced_wall_s,
    }


def pinned_checks(path: str, name: str, digests: List[str]) -> List[dict]:
    with open(path) as fh:
        pins = json.load(fh).get(name, [])
    bad = [index for index, (got, want) in enumerate(zip(digests, pins))
           if got != want]
    return [check("pinned-seed0-digests", not bad,
                  f"{min(len(digests), len(pins))} compared; "
                  f"mismatched requests: {bad}")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--requests", type=int, default=None,
                        help="stop after this many requests")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--pins", help="JSON file of expected digests")
    parser.add_argument("--work", required=True)
    parser.add_argument("--result")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    if not args.setup_only and args.requests is None \
            and args.seconds is None:
        parser.error("give --seconds or --requests")

    workload = WORKLOADS[args.workload](args.seed, args.work)
    try:
        workload.setup()
        print("ready", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            found = measure_trace(
                workload, args.requests or workload.trace_requests,
                args.spans)
        else:
            outcomes, wall_s = run_requests(workload, args.requests,
                                            args.seconds)
            found = {"outcomes": outcomes,
                     "digests": [o.digest for o in outcomes], "checks": [],
                     "metrics": end_to_end_metrics(workload, outcomes,
                                                   wall_s)}
        outcomes = found.pop("outcomes")
        found["checks"] += workload.checks(outcomes[:len(found["digests"])])
    finally:
        workload.close()
    if args.pins:
        found["checks"] += pinned_checks(args.pins, workload.name,
                                         found["digests"])
    failed = [index for index, o in enumerate(outcomes) if o.failed]
    # The workloads are chosen so that no request fails.
    found["checks"].append(check("no-failed-requests", not failed,
                                 f"failed requests: {failed}"))
    found.update({
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "attempted": len(outcomes), "failed": len(failed),
        "inputs": [workload.inputs(i) for i in range(len(found["digests"]))],
    })
    with open(args.result, "w") as fh:
        json.dump(found, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
