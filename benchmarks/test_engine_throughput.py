"""Engine micro-benchmarks: events/second through each scheduler.

Not a paper table — supporting data for Table 4's overhead story: the gap
between C11Tester and PCTWM here is the cost of view/bag maintenance,
and the fast/reference split measures what the incremental caches buy.
Rows land in ``benchmarks/output/bench_rows.json`` via ``bench_json``.
End-to-end and per-layer numbers come from the repository benchmark,
``perf/`` (``python3 perf/run.py``).
"""

import pytest

from repro.core import (
    C11TesterScheduler,
    NaiveRandomScheduler,
    PCTScheduler,
    PCTWMScheduler,
    POSScheduler,
)
from repro.runtime import run_once
from repro.workloads.apps import silo

FACTORIES = {
    "naive": lambda s: NaiveRandomScheduler(seed=s),
    "c11tester": lambda s: C11TesterScheduler(seed=s),
    "pct": lambda s: PCTScheduler(2, 120, seed=s),
    "pctwm": lambda s: PCTWMScheduler(2, 100, 2, seed=s),
    "pos": lambda s: POSScheduler(seed=s),
}


@pytest.mark.parametrize("engine", ("fast", "reference"))
@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_events_per_second(benchmark, bench_json, name, engine):
    make = FACTORIES[name]
    seeds = iter(range(10 ** 6))

    def one_run():
        return run_once(silo(workers=3, transactions=6), make(next(seeds)),
                        keep_graph=False, max_steps=100000, engine=engine)

    result = benchmark(one_run)
    assert result.k > 0
    mean_s = benchmark.stats.stats.mean
    bench_json(
        suite="engine_throughput",
        benchmark="silo",
        scheduler=name,
        engine=engine,
        events_per_run=result.k,
        mean_run_s=mean_s,
        events_per_sec=result.k / mean_s,
    )
