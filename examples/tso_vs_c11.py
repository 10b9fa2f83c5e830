#!/usr/bin/env python3
"""Cross-model comparison: the same litmus tests under C11 and x86-TSO.

Demonstrates the paper's memory-model-agnostic claim (Section 5): the
same schedulers test programs under either memory-model backend,
selected with ``resolve_model``.  Under C11 the weaknesses are stale
reads (PCTWM's d communication relations); under TSO the only weakness
is the store buffer, and PCTWM's communication events are the flushes
it delays.

Expected output shape:

* SB is weak under both models; MP/MP2/IRIW/LB are weak only under C11
  relaxed atomics — TSO preserves W→W and R→R order and is multi-copy
  atomic, so every TSO column reads 0% on them;
* under TSO, PCTWM reaches SB by delaying a flush past the other
  thread's load — more often than the naive random walk, but on no
  depth deterministically: its SB rate stays near 25-30% for every
  d from 0 to 3.
"""

from repro import C11TesterScheduler, NaiveRandomScheduler, PCTWMScheduler
from repro.litmus import iriw, load_buffering, message_passing, mp2, \
    store_buffering
from repro.memory import resolve_model

TRIALS = 300

CASES = {
    "SB": store_buffering,
    "MP": message_passing,
    "MP2": mp2,
    "IRIW": iriw,
    "LB": load_buffering,
}

#: (column header, model, scheduler maker).
COLUMNS = (
    ("c11 random", "c11", lambda s: C11TesterScheduler(seed=s)),
    ("c11 pctwm*", "c11", lambda s: PCTWMScheduler(2, 6, 2, seed=s)),
    ("tso random", "tso", lambda s: NaiveRandomScheduler(seed=s)),
    ("tso pctwm*", "tso", lambda s: PCTWMScheduler(2, 6, 2, seed=s)),
)


def rate(model, factory, make) -> float:
    run_once = resolve_model(model).run_once
    hits = sum(run_once(factory(), make(s), keep_graph=False).bug_found
               for s in range(TRIALS))
    return 100.0 * hits / TRIALS


def main() -> None:
    header = f"{'litmus':6s} " + " ".join(
        f"{label:>11s}" for label, _, _ in COLUMNS)
    print(header)
    print("-" * len(header))
    for name, factory in CASES.items():
        row = [rate(model, factory, make) for _, model, make in COLUMNS]
        print(f"{name:6s} " + " ".join(f"{r:10.1f}%" for r in row))
    print("\n(*) PCTWM(d=2, k_com=6, h=2) under both backends; under TSO "
          "its\ncommunication events are store-buffer flushes.")


if __name__ == "__main__":
    main()
