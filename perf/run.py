"""The repo benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perf/run.py                          # all workloads, seed 0
    python3 perf/run.py --workload silo-c11 --seed 3 --seconds 25 --trace 0
    python3 perf/run.py --trace                  # per-layer metrics
    python3 perf/run.py --repeat 10 --out runs.json
    python3 perf/run.py --pin                    # rewrite perf/expected/

Each workload runs in a fresh subprocess (``perf/workloads.py``) that
imports ``repro`` from ``src/`` of this checkout.  Every metric is
printed by name with its unit, every correctness check is printed, and
the last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when any
check fails, and 2 when the checkout has no ``src/repro`` to measure.

Metric names, units, bounds and the run length come from
``BENCHMARK.json`` at the root.  The benchmark's command line is
``run.py --workload W --seed N --seconds S --trace 0|1``; ``S`` is
``run_seconds`` there, and is also the default, so that every
measurement of a commit runs equally long.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
SRC = os.path.join(ROOT, "src")
#: Scratch space for the workload processes (daemon state, artifacts,
#: corpora, temp files) and the span files of trace runs.
WORK_ROOT = os.path.join(ROOT, ".perf-work")
#: Digests of seed 0's first :data:`PIN_REQUESTS` requests per workload,
#: checked on every seed-0 run and rewritten only by ``--pin``.
PINS_PATH = os.path.join(PERF_DIR, "expected", "seed0.json")
PIN_REQUESTS = 48

#: Set-up is timed this many times per untraced run; the median is kept.
SETUP_RUNS = 7
#: Requests per workload in ``--smoke`` mode.
SMOKE_REQUESTS = 3
#: A workload process that takes longer than this is killed.
CHILD_TIMEOUT_S = 900


class ChildFailed(RuntimeError):
    pass


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def child_env(work: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # Temp files, forkserver sockets and fuzz artifact directories stay
    # inside the checkout.
    env["TMPDIR"] = work
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: List[str], work: str) -> float:
    """Run one workload process; returns seconds until it was ready."""
    os.makedirs(work, exist_ok=True)
    cmd = [sys.executable, os.path.join(PERF_DIR, "workloads.py"),
           "--work", work] + args
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                            env=child_env(work), text=True)
    try:
        line = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"workload process timed out: {' '.join(args)}")
    finally:
        if proc.poll() is None:  # timed out or interrupted
            proc.kill()
            proc.communicate()
    if line.strip() != "ready" or proc.returncode != 0:
        raise ChildFailed(f"workload process failed (exit "
                          f"{proc.returncode}): {' '.join(args)}")
    return ready_s


def measure(bench: dict, workload: str, seed: int, trace: int,
            seconds: float, requests: Optional[int], setup_runs: int,
            pins: bool = True) -> dict:
    """One run of one workload; returns its record (see ``--out``)."""
    # Short: forkserver socket paths under it must fit in 107 bytes.
    work = os.path.join(WORK_ROOT, f"w{os.getpid()}")
    base = ["--workload", workload, "--seed", str(seed)]
    result_path = os.path.join(work, "result.json")
    spans_path = os.path.join(WORK_ROOT, f"spans-{workload}-{seed}.jsonl")
    args = base + ["--trace", str(trace), "--seconds", str(seconds),
                   "--result", result_path, "--spans", spans_path]
    if requests is not None:
        args += ["--requests", str(requests)]
    if pins and seed == 0:
        args += ["--pins", PINS_PATH]

    def setup_only() -> float:
        try:
            return run_child(base + ["--setup-only"], work)
        finally:
            shutil.rmtree(work, ignore_errors=True)

    # Half the extra set-ups run before the measured process and half
    # after it, so one slow spell of the machine seldom covers them all.
    before = (setup_runs - 1) // 2
    try:
        setups = [setup_only() for _ in range(before)]
        setups.append(run_child(args, work))
        with open(result_path) as fh:
            record = json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups += [setup_only() for _ in range(setup_runs - 1 - before)]
    values = record.pop("metrics")
    if not trace:
        values["setup_s"] = statistics.median(setups)
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise ChildFailed(f"{workload}: metrics not emitted: {missing}")
    record["metrics"] = {m["name"]: {"value": values[m["name"]],
                                     "unit": m["unit"]} for m in declared}
    record["correct"] = all(c["ok"] for c in record["checks"])
    if trace:
        record["spans"] = os.path.relpath(spans_path, ROOT)
    return record


def print_record(record: dict) -> None:
    attempted, failed = record["attempted"], record["failed"]
    print(f"{record['workload']} seed={record['seed']} "
          f"{'trace' if record['trace'] else 'untraced'}: "
          f"{len(record['digests'])} requests measured, "
          f"failed_ratio {failed / attempted:.4f} "
          f"({failed} failed / {attempted} attempted)")
    for name, metric in record["metrics"].items():
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']}")
    for found in record["checks"]:
        status = "ok  " if found["ok"] else "FAIL"
        line = f"  check {status} {found['name']}"
        if not found["ok"]:
            line += f": {found['detail']}"
        print(line)


def summary_line(records: List[dict], metrics: Dict[str, dict],
                 correct: bool) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    })


def quartiles(values: List[float]) -> tuple:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def repeat_report(bench: dict, workload: str, records: List[dict],
                  trace: int) -> tuple:
    """Print each metric's median and quartiles; returns (stable, medians)."""
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    stable = True
    medians = {}
    print(f"{workload}: {len(records)} runs, seeds "
          f"{records[0]['seed']}..{records[-1]['seed']}")
    for name, metric in records[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in records]
        q1, median, q3 = quartiles(values)
        medians[name] = {"value": median, "unit": metric["unit"]}
        share = spread(values)
        verdict = ""
        bound = None if trace else bounds.get(name)
        if bound is not None:
            verdict = f"bound {bound:.2f}"
            if share > bound:
                verdict += " EXCEEDED"
                stable = False
        print(f"  {name:34s} median {median:12.6g} q1 {q1:12.6g} "
              f"q3 {q3:12.6g} spread {share:7.2%} {verdict}")
    return stable, medians


def pin(bench: dict, names: List[str]) -> bool:
    """Record the digests of seed 0's first requests in :data:`PINS_PATH`."""
    pins = {}
    ok = True
    for name in names:
        record = measure(bench, name, 0, 0, float("inf"), PIN_REQUESTS, 1,
                         pins=False)
        print_record(record)
        ok = ok and record["correct"]
        pins[name] = record["digests"]
    if ok:
        with open(PINS_PATH, "w") as fh:
            json.dump(pins, fh, indent=1)
            fh.write("\n")
        print(f"pinned {sum(map(len, pins.values()))} digests in "
              f"{os.path.relpath(PINS_PATH, ROOT)}")
    return ok


def main(argv=None) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(
        description="Run the repo benchmark (see perf/README.md).")
    parser.add_argument("--workload", choices=names, action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"],
                        help="length of the timed loop (default and "
                             "benchmark value: run_seconds in "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report per-layer metrics from a traced run")
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="run each workload N times, seeds SEED.."
                             "SEED+N-1, and report medians and quartiles")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_REQUESTS} requests per workload, "
                             f"set-up timed once")
    parser.add_argument("--out", metavar="FILE",
                        help="write every run's record to FILE as JSON")
    parser.add_argument("--pin", action="store_true",
                        help="rewrite perf/expected/seed0.json")
    args = parser.parse_args(argv)

    if not os.path.exists(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    selected = args.workload or names
    try:
        if args.pin:
            return 0 if pin(bench, selected) else 1
        requests = SMOKE_REQUESTS if args.smoke else None
        seconds = float("inf") if args.smoke else args.seconds
        setup_runs = 1 if args.smoke or args.trace else SETUP_RUNS
        records: List[dict] = []
        metrics: Dict[str, dict] = {}
        correct = True
        for name in selected:
            runs = []
            for n in range(args.repeat):
                record = measure(bench, name, args.seed + n, args.trace,
                                 seconds, requests, setup_runs)
                print_record(record)
                correct = correct and record["correct"]
                runs.append(record)
            if args.repeat > 1:
                stable, found = repeat_report(bench, name, runs, args.trace)
                correct = correct and stable
            else:
                found = runs[0]["metrics"]
            prefix = "" if len(selected) == 1 else f"{name}/"
            metrics.update({prefix + key: value
                            for key, value in found.items()})
            records += runs
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"runs": records}, fh, indent=1)
    print(summary_line(records, metrics, correct))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
