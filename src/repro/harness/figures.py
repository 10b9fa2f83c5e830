"""Regeneration of the paper's Figures 5 and 6 (as data series).

The paper plots these; we produce the series (and an ASCII rendering) so
the benchmark harness can print the same comparison.

* **Figure 5** — the highest observed bug-hitting rate per benchmark for
  C11Tester, PCT, and PCTWM (each bounded algorithm searches its parameter
  grid for its best configuration, as the paper's "highest bug hitting
  rates observed" implies).
* **Figure 6** — bug-hitting rate as benign relaxed writes are inserted
  into four benchmarks: PCT (uniform rf sampling) degrades, PCTWM stays
  stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core.depth import estimate_parameters
from ..core.factory import SchedulerSpec
from ..workloads.registry import BENCHMARKS, ProgramSpec, select_benchmarks
from .parallel import run_campaign_parallel


@dataclass
class Figure5Bar:
    benchmark: str
    c11tester: float
    pct: float
    pctwm: float
    pct_config: str = ""
    pctwm_config: str = ""


def figure5(trials: int = 100, seed: int = 0,
            pctwm_depth_offsets: Sequence[int] = (0, 1, 2),
            pct_depths: Sequence[int] = (1, 2, 3, 4),
            histories: Sequence[int] = (1, 2, 3),
            benchmarks: Optional[Sequence[str]] = None,
            jobs: int = 1) -> List[Figure5Bar]:
    """Highest observed hit rate per benchmark and algorithm."""
    bars = []
    for info in select_benchmarks(benchmarks):
        est = estimate_parameters(info.build(), runs=3, seed=seed)
        program = ProgramSpec(info.name)
        c11 = run_campaign_parallel(program, SchedulerSpec("c11tester"),
                                    trials=trials, base_seed=seed,
                                    jobs=jobs)

        best_pct, pct_cfg = -1.0, ""
        for d in pct_depths:
            campaign = run_campaign_parallel(
                program,
                SchedulerSpec("pct", {"depth": d, "k_events": est.k}),
                trials=trials, base_seed=seed + 17 * d, jobs=jobs)
            if campaign.hit_rate > best_pct:
                best_pct, pct_cfg = campaign.hit_rate, f"d={d}"

        best_wm, wm_cfg = -1.0, ""
        for offset in pctwm_depth_offsets:
            depth = info.measured_depth + offset
            for h in histories:
                campaign = run_campaign_parallel(
                    program,
                    SchedulerSpec("pctwm", {"depth": depth,
                                            "k_com": est.k_com,
                                            "history": h}),
                    trials=trials, base_seed=seed + 31 * depth + 7 * h,
                    jobs=jobs,
                )
                if campaign.hit_rate > best_wm:
                    best_wm, wm_cfg = campaign.hit_rate, f"d={depth},h={h}"

        bars.append(Figure5Bar(info.name, c11.hit_rate, best_pct, best_wm,
                               pct_cfg, wm_cfg))
    return bars


def render_figure5(bars: Sequence[Figure5Bar]) -> str:
    header = (
        f"{'Benchmark':14s} {'C11Tester':>10s} {'PCT':>10s} {'PCTWM':>10s}"
        f"   (best configs)"
    )
    lines = [header, "-" * len(header)]
    for b in bars:
        lines.append(
            f"{b.benchmark:14s} {b.c11tester:9.1f}% {b.pct:9.1f}% "
            f"{b.pctwm:9.1f}%   pct[{b.pct_config}] pctwm[{b.pctwm_config}]"
        )
    avg = (
        sum(b.c11tester for b in bars) / len(bars),
        sum(b.pct for b in bars) / len(bars),
        sum(b.pctwm for b in bars) / len(bars),
    )
    lines.append("-" * len(header))
    lines.append(
        f"{'average':14s} {avg[0]:9.1f}% {avg[1]:9.1f}% {avg[2]:9.1f}%"
    )
    return "\n".join(lines)


@dataclass
class Figure6Series:
    benchmark: str
    inserted: List[int] = field(default_factory=list)
    c11tester: List[float] = field(default_factory=list)
    pct: List[float] = field(default_factory=list)
    pctwm: List[float] = field(default_factory=list)


def figure6(trials: int = 100, seed: int = 0,
            insert_counts: Sequence[int] = (0, 2, 4, 6, 8, 10),
            benchmarks: Optional[Sequence[str]] = None,
            jobs: int = 1) -> Dict[str, Figure6Series]:
    """Hit rate vs number of inserted relaxed writes (Figure 6)."""
    selected = ([info for info in BENCHMARKS.values() if info.in_figure6]
                if benchmarks is None else select_benchmarks(benchmarks))
    out = {}
    for info in selected:
        name = info.name
        series = Figure6Series(name)
        for n in insert_counts:
            program = ProgramSpec(name, params={"inserted_writes": n})
            est = estimate_parameters(program.build(), runs=3, seed=seed)
            depth = info.measured_depth
            series.inserted.append(n)
            series.c11tester.append(
                run_campaign_parallel(program, SchedulerSpec("c11tester"),
                                      trials=trials, base_seed=seed + n,
                                      jobs=jobs).hit_rate
            )
            series.pct.append(
                run_campaign_parallel(
                    program,
                    SchedulerSpec("pct", {"depth": max(depth, 1) + 1,
                                          "k_events": est.k}),
                    trials=trials, base_seed=seed + n + 1,
                    jobs=jobs).hit_rate
            )
            series.pctwm.append(
                run_campaign_parallel(
                    program,
                    SchedulerSpec("pctwm", {"depth": depth,
                                            "k_com": est.k_com,
                                            "history": info.best_history}),
                    trials=trials, base_seed=seed + n + 2,
                    jobs=jobs,
                ).hit_rate
            )
        out[name] = series
    return out


def render_figure6(series: Dict[str, Figure6Series]) -> str:
    lines = []
    for name, s in series.items():
        lines.append(f"{name} — inserting relaxed writes")
        lines.append(
            f"  {'inserted':>9s} " + " ".join(f"{n:>6d}" for n in s.inserted)
        )
        for label, values in (("C11Tester", s.c11tester), ("PCT", s.pct),
                              ("PCTWM", s.pctwm)):
            lines.append(
                f"  {label:>9s} " + " ".join(f"{v:6.1f}" for v in values)
            )
        lines.append("")
    return "\n".join(lines).rstrip()
