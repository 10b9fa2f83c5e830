"""Table-1 replay sweep: what a campaign's draw tree saves, and that it
changes no count.

For each of the nine Table-1 benchmarks under each memory model, run
1000 PCTWM trials at the benchmark's ``measured_depth``/``best_history``
(``k_com`` from ``estimate_parameters(runs=3, seed=0)``, base seed 0) on
one serial ``TrialRunner``, with the cyclic collector paused as in
``run_campaign``.  One row per cell: hits, events, steps, trials
replayed, and the CPU seconds of the trial loop.

``--check`` also runs every cell on a runner whose draw tree has no slot
budget (nothing recorded, every trial executed) and exits 1 when any
hit, event or step count differs between the two.

    PYTHONPATH=src python scripts/replay_sweep.py [--trials N] [--check]
"""

from __future__ import annotations

import argparse
import gc
import sys
import time

import repro.runtime.draws as draws
from repro.core.depth import estimate_parameters
from repro.core.factory import SchedulerSpec
from repro.harness.campaign import TrialConfig, TrialRunner
from repro.workloads import BENCHMARKS
from repro.workloads.registry import ProgramSpec

MODELS = ("c11", "tso")


def run_cell(config: TrialConfig, trials: int) -> tuple:
    """``(hits, events, steps, replayed, cpu_s)`` of trials 0..trials-1."""
    runner = TrialRunner(config)
    hits = events = steps = 0
    gc.collect()
    gc.disable()
    start = time.process_time()
    try:
        for index in range(trials):
            record = runner.run(index)
            hits += record.bug_found
            events += record.k
            steps += record.steps
    finally:
        cpu_s = time.process_time() - start
        gc.enable()
    return hits, events, steps, runner.replayed, cpu_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=1000)
    parser.add_argument("--check", action="store_true",
                        help="compare every cell against a runner that "
                             "records nothing")
    args = parser.parse_args(argv)
    mismatches = 0
    total_cpu = 0.0
    print(f"{'cell':<20} {'hits':>5} {'events':>8} {'steps':>8} "
          f"{'replayed':>8} {'cpu_s':>7}")
    for name in sorted(BENCHMARKS):
        info = BENCHMARKS[name]
        program = ProgramSpec(name)
        for model in MODELS:
            k_com = estimate_parameters(program(), runs=3, seed=0,
                                        model=model).k_com
            spec = SchedulerSpec("pctwm", {"depth": info.measured_depth,
                                           "k_com": max(1, k_com),
                                           "history": info.best_history})
            config = TrialConfig(program, spec, base_seed=0, model=model)
            hits, events, steps, replayed, cpu_s = run_cell(config,
                                                            args.trials)
            total_cpu += cpu_s
            cell = f"{name}/{model}"
            print(f"{cell:<20} {hits:>5} {events:>8} {steps:>8} "
                  f"{replayed:>8} {cpu_s:>7.3f}")
            if args.check:
                budget = draws.SLOT_BUDGET
                draws.SLOT_BUDGET = 0
                try:
                    plain = run_cell(config, args.trials)
                finally:
                    draws.SLOT_BUDGET = budget
                if plain[:3] != (hits, events, steps):
                    mismatches += 1
                    print(f"MISMATCH {cell}: tree {(hits, events, steps)} "
                          f"vs executed {plain[:3]}")
    print(f"summed cpu_s {total_cpu:.3f}")
    if mismatches:
        print(f"{mismatches} cells differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
