"""Cross-model litmus matrix: C11 vs x86-TSO (extension).

Demonstrates the paper's memory-model-agnostic construction (Section 5):
the same schedulers run under both backends.  Under TSO, PCTWM's
communication events are store-buffer flushes, so it reaches TSO's only
weak shape — SB — by delaying flushes, while the shapes TSO forbids (MP,
IRIW, LB, MP2) stay at zero under every TSO scheduler and remain
reachable under C11 relaxed atomics.
"""

from repro.core import C11TesterScheduler, NaiveRandomScheduler, \
    PCTWMScheduler
from repro.litmus import iriw, load_buffering, message_passing, mp2, \
    store_buffering
from repro.memory import resolve_model

CASES = {
    "SB": store_buffering,
    "MP": message_passing,
    "MP2": mp2,
    "IRIW": iriw,
    "LB": load_buffering,
}

#: (column label, model, scheduler maker) — one matrix column each.
COLUMNS = (
    ("c11-rand", "c11", lambda s: C11TesterScheduler(seed=s)),
    ("c11-pctwm", "c11", lambda s: PCTWMScheduler(2, 6, 2, seed=s)),
    ("tso-rand", "tso", lambda s: NaiveRandomScheduler(seed=s)),
    ("tso-pctwm", "tso", lambda s: PCTWMScheduler(2, 6, 2, seed=s)),
)


def test_cross_model_matrix(benchmark, trials, report):
    def measure():
        rows = {}
        for name, factory in CASES.items():
            rows[name] = tuple(
                sum(resolve_model(model).run_once(
                        factory(), make(s), keep_graph=False).bug_found
                    for s in range(trials))
                for _, model, make in COLUMNS
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = [f"{'litmus':6s} "
             + " ".join(f"{label:>10s}" for label, _, _ in COLUMNS)
             + f"   (hits/{trials})"]
    for name, hits in rows.items():
        lines.append(f"{name:6s} " + " ".join(f"{h:10d}" for h in hits))
    report("cross_model", "\n".join(lines))

    # SB: weak under both models.
    assert rows["SB"][2] > 0
    assert rows["SB"][3] > 0
    # TSO forbids everything else.
    for name in ("MP", "MP2", "IRIW", "LB"):
        assert rows[name][2] == 0, name
        assert rows[name][3] == 0, name
    # C11 relaxed allows MP (and usually MP2/IRIW at larger trials).
    assert rows["MP"][0] + rows["MP"][1] > 0
