"""Regeneration of the paper's Tables 1-4.

Each ``table*`` function computes the structured rows; each ``render_*``
formats them in the layout of the paper so the output can be compared
side by side.  Trial counts default to modest values so the benchmark
suite stays fast; pass ``trials=1000`` (Tables 2-3) to match the paper.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..core.depth import estimate_parameters
from ..core.factory import SchedulerSpec
from ..runtime.executor import run_once
from ..workloads.apps import APPLICATIONS, silo_operations
from ..workloads.registry import ProgramSpec, select_benchmarks
from .campaign import CampaignResult, c11tester_factory, pctwm_factory
from .parallel import run_campaign_parallel
from .stats import relative_stdev_pct


# -- Table 1: benchmark characteristics -----------------------------------------


@dataclass
class Table1Row:
    benchmark: str
    paper_loc: int
    paper_k: int
    paper_k_com: int
    paper_depth: int
    measured_k: int
    measured_k_com: int
    measured_depth: int


def table1(estimation_runs: int = 5, seed: int = 0,
           benchmarks: Optional[Sequence[str]] = None) -> List[Table1Row]:
    """Measure k / k_com per benchmark alongside the paper's estimates."""
    rows = []
    for info in select_benchmarks(benchmarks):
        est = estimate_parameters(info.build(), runs=estimation_runs,
                                  seed=seed)
        rows.append(Table1Row(
            benchmark=info.name,
            paper_loc=info.paper_loc,
            paper_k=info.paper_k,
            paper_k_com=info.paper_k_com,
            paper_depth=info.paper_depth,
            measured_k=est.k,
            measured_k_com=est.k_com,
            measured_depth=info.measured_depth,
        ))
    return rows


def render_table1(rows: Sequence[Table1Row]) -> str:
    header = (
        f"{'Benchmark':14s} {'LOC(p)':>7s} {'k(p)':>6s} {'kcom(p)':>8s} "
        f"{'d(p)':>5s} | {'k':>5s} {'kcom':>6s} {'d':>3s}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.benchmark:14s} {r.paper_loc:7d} {r.paper_k:6d} "
            f"{r.paper_k_com:8d} {r.paper_depth:5d} | {r.measured_k:5d} "
            f"{r.measured_k_com:6d} {r.measured_depth:3d}"
        )
    return "\n".join(lines)


# -- Table 2: hit rate vs bug depth ------------------------------------------------


@dataclass
class Table2Row:
    benchmark: str
    depth: int
    #: hit-rate (%) and best history per depth offset 0, +1, +2.
    rates: Dict[int, float] = field(default_factory=dict)
    histories: Dict[int, int] = field(default_factory=dict)
    #: Contained faults across every campaign behind this row (trials
    #: that raised / exhausted their wall-clock budget), plus trials
    #: whose graphs the sanitizer flagged as axiom-inconsistent.
    errors: int = 0
    timeouts: int = 0
    inconsistent: int = 0


def table2(trials: int = 100, histories: Sequence[int] = (1, 2, 3, 4),
           offsets: Sequence[int] = (0, 1, 2), seed: int = 0,
           benchmarks: Optional[Sequence[str]] = None,
           jobs: int = 1, sanitize: str = "off") -> List[Table2Row]:
    """PCTWM hit rates for d, d+1, d+2 at the best history depth."""
    rows = []
    for info in select_benchmarks(benchmarks):
        est = estimate_parameters(info.build(), runs=3, seed=seed)
        program = ProgramSpec(info.name)
        row = Table2Row(info.name, info.measured_depth)
        for offset in offsets:
            depth = info.measured_depth + offset
            best_rate, best_h = -1.0, histories[0]
            for h in histories:
                campaign = run_campaign_parallel(
                    program,
                    SchedulerSpec("pctwm", {"depth": depth,
                                            "k_com": est.k_com,
                                            "history": h}),
                    trials=trials,
                    base_seed=seed + 1000 * offset + 100 * h,
                    jobs=jobs,
                    sanitize=sanitize,
                )
                row.errors += campaign.errors
                row.timeouts += campaign.timeouts
                row.inconsistent += campaign.inconsistent
                if campaign.hit_rate > best_rate:
                    best_rate, best_h = campaign.hit_rate, h
            row.rates[offset] = best_rate
            row.histories[offset] = best_h
        rows.append(row)
    return rows


def render_table2(rows: Sequence[Table2Row]) -> str:
    header = (
        f"{'Benchmark':14s} {'d':>3s} {'Rate(d)':>12s} {'Rate(d+1)':>12s} "
        f"{'Rate(d+2)':>12s} {'err':>5s} {'t/o':>5s} {'inc':>5s}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        cells = [
            f"{r.rates.get(o, 0.0):5.1f} (h:{r.histories.get(o, 1)})"
            for o in (0, 1, 2)
        ]
        lines.append(
            f"{r.benchmark:14s} {r.depth:3d} "
            + " ".join(f"{c:>12s}" for c in cells)
            + f" {r.errors:5d} {r.timeouts:5d} {r.inconsistent:5d}"
        )
    return "\n".join(lines)


# -- Table 3: hit rate vs history depth ----------------------------------------------


@dataclass
class Table3Row:
    benchmark: str
    k_com: int
    depth: int
    rates: Dict[int, float] = field(default_factory=dict)
    #: Contained faults across every campaign behind this row.
    errors: int = 0
    timeouts: int = 0
    inconsistent: int = 0


def table3(trials: int = 100, histories: Sequence[int] = (1, 2, 3, 4),
           seed: int = 0,
           benchmarks: Optional[Sequence[str]] = None,
           jobs: int = 1, sanitize: str = "off") -> List[Table3Row]:
    """PCTWM hit rates for h = 1..4 at the benchmark's measured depth."""
    rows = []
    for info in select_benchmarks(benchmarks):
        est = estimate_parameters(info.build(), runs=3, seed=seed)
        program = ProgramSpec(info.name)
        row = Table3Row(info.name, est.k_com, info.measured_depth)
        for h in histories:
            campaign = run_campaign_parallel(
                program,
                SchedulerSpec("pctwm", {"depth": info.measured_depth,
                                        "k_com": est.k_com,
                                        "history": h}),
                trials=trials,
                base_seed=seed + 10 * h,
                jobs=jobs,
                sanitize=sanitize,
            )
            row.rates[h] = campaign.hit_rate
            row.errors += campaign.errors
            row.timeouts += campaign.timeouts
            row.inconsistent += campaign.inconsistent
        rows.append(row)
    return rows


def render_table3(rows: Sequence[Table3Row]) -> str:
    hs = sorted({h for r in rows for h in r.rates})
    header = (
        f"{'Benchmark':14s} {'kcom':>5s} {'d':>3s} "
        + " ".join(f"{'h:' + str(h):>7s}" for h in hs)
        + f" {'err':>5s} {'t/o':>5s} {'inc':>5s}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        cells = " ".join(f"{r.rates.get(h, 0.0):7.1f}" for h in hs)
        lines.append(f"{r.benchmark:14s} {r.k_com:5d} {r.depth:3d} {cells}"
                     f" {r.errors:5d} {r.timeouts:5d} {r.inconsistent:5d}")
    return "\n".join(lines)


# -- Table 4: application performance -----------------------------------------------


@dataclass
class Table4Row:
    application: str
    metric: str  # "ops/sec" or "time/s"
    cores: str   # "single" | "multiple"
    c11tester: float
    c11tester_rsd: float
    pctwm: float
    pctwm_rsd: float
    c11tester_races: int
    pctwm_races: int
    runs: int


def table4(runs: int = 10, seed: int = 0,
           scale: int = 1) -> List[Table4Row]:
    """Performance of C11Tester vs PCTWM on the application models.

    ``scale`` multiplies workload sizes for more stable timing.  Like the
    paper's framework, the runtime executes one thread at a time, so the
    single/multiple core rows exercise identical schedules; both are
    reported for fidelity with Table 4's layout.
    """
    rows: List[Table4Row] = []
    sizes = {
        "iris": dict(producers=2, messages=6 * scale),
        "mabain": dict(writers=2, readers=1, inserts=4 * scale),
        "silo": dict(workers=3, transactions=5 * scale),
    }
    for name, factory in APPLICATIONS.items():
        for cores_label, cores in (("single", 1), ("multiple", 4)):
            def build(n=name, c=cores):
                return factory(cores=c, **sizes[n])

            per_algo = {}
            for algo_label, sched_factory in (
                ("c11tester", c11tester_factory()),
                ("pctwm", None),
            ):
                if sched_factory is None:
                    est = estimate_parameters(build(), runs=2, seed=seed)
                    sched_factory = pctwm_factory(2, est.k_com, 3)
                times, races, ops = [], 0, 0
                for i in range(runs):
                    t0 = time.perf_counter()
                    run = run_once(build(), sched_factory(seed + i),
                                   keep_graph=False, max_steps=200000)
                    times.append(time.perf_counter() - t0)
                    races += 1 if run.races else 0
                    ops += silo_operations(run.thread_results) \
                        if name == "silo" else 0
                per_algo[algo_label] = (times, races, ops)

            c_times, c_races, c_ops = per_algo["c11tester"]
            p_times, p_races, p_ops = per_algo["pctwm"]
            if name == "silo":
                metric = "ops/sec"
                c_val = c_ops / sum(c_times) if sum(c_times) else 0.0
                p_val = p_ops / sum(p_times) if sum(p_times) else 0.0
            else:
                metric = "time/s"
                c_val = sum(c_times)
                p_val = sum(p_times)
            rows.append(Table4Row(
                application=name, metric=metric, cores=cores_label,
                c11tester=c_val, c11tester_rsd=relative_stdev_pct(c_times),
                pctwm=p_val, pctwm_rsd=relative_stdev_pct(p_times),
                c11tester_races=c_races, pctwm_races=p_races, runs=runs,
            ))
    return rows


def render_table4(rows: Sequence[Table4Row]) -> str:
    header = (
        f"{'Application':12s} {'metric':>8s} {'cores':>9s} "
        f"{'C11Tester':>12s} {'(RSD%)':>8s} {'PCTWM':>12s} {'(RSD%)':>8s} "
        f"{'races':>11s}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.application:12s} {r.metric:>8s} {r.cores:>9s} "
            f"{r.c11tester:12.2f} {r.c11tester_rsd:7.2f}% "
            f"{r.pctwm:12.2f} {r.pctwm_rsd:7.2f}% "
            f"{r.c11tester_races:4d}/{r.pctwm_races:d} of {r.runs}"
        )
    return "\n".join(lines)
