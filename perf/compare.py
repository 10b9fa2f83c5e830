"""A/B comparison of two commits on the repo benchmark.

Collect alternating pairs, then compare::

    python3 perf/compare.py --collect PARENT_ROOT CHANGE_ROOT --pairs 10 \\
        --out-parent parent.json --out-change change.json
    python3 perf/compare.py parent.json change.json

``--collect`` runs ``perf/run.py`` of each checkout once per pair, on the
same seed and with the parent's ``run_seconds``, alternating which side
runs first.  The comparison pairs runs by workload and seed and prints
one row per workload and metric:

* ``gain``: the change wins at least 9 of 10 pairs (ties count for
  neither side) and the medians differ by more than the parent's
  interquartile range;
* ``unresolved``: either side's spread (interquartile range over median)
  exceeds the metric's bound, and not every change run beats every
  parent run;
* ``REGRESSION``: the change's median is worse than the parent's by more
  than the bound ``BENCHMARK.json`` fixes;
* ``within bound`` otherwise.  Per-layer metrics have no bound: they
  read ``gain`` or ``-``.

Each workload also gets a ``failed`` row: failed ÷ attempted requests
over its paired runs.  When the change fails more often than the parent,
that row is a ``REGRESSION`` and the workload's gains read ``gain
refused``.  The exit code is 1 when any row is a regression.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from typing import Dict, List

from run import WORK_ROOT, load_benchmark, quartiles

#: Share of pairs the change must win to claim a gain.
WIN_SHARE = 0.9


def collect(parent_root: str, change_root: str, pairs: int, seed: int,
            extra: List[str]) -> Dict[str, List[dict]]:
    """Run ``pairs`` alternating parent/change pairs; returns their runs."""
    runs: Dict[str, List[dict]] = {"parent": [], "change": []}
    roots = {"parent": parent_root, "change": change_root}
    with open(os.path.join(parent_root, "BENCHMARK.json")) as fh:
        extra = extra + ["--seconds", str(json.load(fh)["run_seconds"])]
    os.makedirs(WORK_ROOT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
        for pair in range(pairs):
            order = ("parent", "change") if pair % 2 == 0 \
                else ("change", "parent")
            for side in order:
                out = os.path.join(tmp, f"{side}-{pair}.json")
                proc = subprocess.run(
                    [sys.executable, os.path.join("perf", "run.py"),
                     "--seed", str(seed + pair), "--out", out] + extra,
                    cwd=roots[side], stdout=subprocess.DEVNULL)
                if proc.returncode != 0:
                    raise SystemExit(f"{side} run of pair {pair} failed "
                                     f"(exit {proc.returncode})")
                with open(out) as fh:
                    for record in json.load(fh)["runs"]:
                        record["pair_order"] = order.index(side)
                        runs[side].append(record)
    return runs


def verdict(parent: List[float], change: List[float], better: str,
            bound) -> tuple:
    """``(verdict, wins)`` for paired values of one metric."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gain = sign * (c_med - p_med)
    if wins >= WIN_SHARE * len(parent) and gain > p_q3 - p_q1:
        return "gain", wins
    if bound is None:
        return "-", wins
    spread = max((p_q3 - p_q1) / p_med if p_med else 0.0,
                 (c_q3 - c_q1) / c_med if c_med else 0.0)
    all_better = (min(change) > max(parent) if sign > 0
                  else max(change) < min(parent))
    if spread > bound and not all_better:
        return "unresolved", wins
    if -gain > bound * abs(p_med):
        return "REGRESSION", wins
    return "within bound", wins


def failures(runs) -> tuple:
    """``(failed, attempted)`` requests summed over ``runs``."""
    runs = list(runs)
    return (sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))


def compare(parent_runs: List[dict], change_runs: List[dict]) -> bool:
    """Print the comparison table; returns False on any regression."""
    bench = load_benchmark()
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    change_by_key = {(r["workload"], r["seed"], r["trace"]): r
                     for r in change_runs}
    by_workload: Dict[str, List[tuple]] = defaultdict(list)
    for record in parent_runs:
        key = (record["workload"], record["seed"], record["trace"])
        if key in change_by_key:
            by_workload[record["workload"]].append(
                (record, change_by_key[key]))
    ok = True
    print(f"{'workload':16s} {'metric':32s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'vs parent':>9s} "
          f"{'wins':>6s}  verdict")
    for workload, pairs in by_workload.items():
        # A gain does not count when more requests fail than at the parent.
        p_failed, p_attempted = failures(p for p, _ in pairs)
        c_failed, c_attempted = failures(c for _, c in pairs)
        more_failures = c_failed * p_attempted > p_failed * c_attempted
        ok = ok and not more_failures
        print(f"{workload:16s} {'failed':32s} "
              f"{f'{p_failed}/{p_attempted}':>34s} "
              f"{f'{c_failed}/{c_attempted}':>34s} {'':>9s} {'':>6s}  "
              f"{'REGRESSION' if more_failures else 'no increase'}")
        for name in pairs[0][0]["metrics"]:
            parent = [p["metrics"][name]["value"] for p, _ in pairs]
            change = [c["metrics"][name]["value"] for _, c in pairs]
            metric = declared[name]
            found, wins = verdict(parent, change, metric["better"],
                                  metric.get("bound"))
            if found == "gain" and more_failures:
                found = "gain refused"
            ok = ok and found != "REGRESSION"
            p_q1, p_med, p_q3 = quartiles(parent)
            c_q1, c_med, c_q3 = quartiles(change)
            relative = f"{(c_med - p_med) / p_med:+.1%}" if p_med else "n/a"
            print(f"{workload:16s} {name:32s} "
                  f"{p_med:12.6g} [{p_q1:9.4g}, {p_q3:9.4g}] "
                  f"{c_med:12.6g} [{c_q1:9.4g}, {c_q3:9.4g}] "
                  f"{relative:>9s} {wins:>2d}/{len(pairs):<3d}  {found}")
    return ok


def load_runs(path: str) -> List[dict]:
    with open(path) as fh:
        return json.load(fh)["runs"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", metavar="RUNS.json",
                        help="parent runs, then change runs")
    parser.add_argument("--collect", nargs=2,
                        metavar=("PARENT_ROOT", "CHANGE_ROOT"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out-parent", default="parent.json")
    parser.add_argument("--out-change", default="change.json")
    args = parser.parse_args(argv)
    if args.collect:
        extra = [arg for name in args.workload
                 for arg in ("--workload", name)]
        if args.trace:
            extra.append("--trace")
        runs = collect(*args.collect, args.pairs, args.seed, extra)
        for side, path in (("parent", args.out_parent),
                           ("change", args.out_change)):
            with open(path, "w") as fh:
                json.dump({"runs": runs[side]}, fh, indent=1)
        parent_runs, change_runs = runs["parent"], runs["change"]
    elif len(args.files) == 2:
        parent_runs, change_runs = map(load_runs, args.files)
    else:
        parser.error("give PARENT.json CHANGE.json, or --collect")
    return 0 if compare(parent_runs, change_runs) else 1


if __name__ == "__main__":
    sys.exit(main())
