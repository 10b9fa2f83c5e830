"""Which Table 1 bugs survive on x86-TSO hardware?

Each benchmark's seeded bug is a specific weak-memory pattern, and TSO
only exhibits store→load reordering.  So the SB-family bugs (dekker) and
the delayed-payload publication bugs (msqueue, treiber — payload store
still buffered while the published structure is visible) remain
reachable on x86, while the message-passing-family bugs (barrier,
cldeque, mcslock, mpmcqueue, linuxrwlocks, rwlock, seqlock, spsc)
require W→W or R→R reordering that TSO forbids.  Every run goes through
``resolve_model("tso")`` with the naive scheduler and PCTWM, whose
communication events under TSO are the flushes it delays.
"""

import pytest

from repro.core import NaiveRandomScheduler, PCTWMScheduler
from repro.core.depth import estimate_parameters
from repro.memory import resolve_model
from repro.workloads import BENCHMARKS, spsc, treiber

TSO = resolve_model("tso")
TRIALS = 200

#: Bug families by required reordering.
TSO_REACHABLE = ("dekker", "msqueue")
TSO_SAFE = ("barrier", "cldeque", "mcslock", "mpmcqueue", "linuxrwlocks",
            "rwlock", "seqlock")


def tso_hits(factory, make, trials=TRIALS):
    return sum(
        TSO.run_once(factory(), make(seed), keep_graph=False,
                     max_steps=50000).bug_found
        for seed in range(trials)
    )


def naive(seed):
    return NaiveRandomScheduler(seed=seed)


def pctwm(factory, depth):
    """PCTWM(depth, k_com, 2) with k_com counted in TSO flush commits."""
    k_com = estimate_parameters(factory(), model="tso").k_com
    return lambda seed: PCTWMScheduler(depth, k_com, 2, seed=seed)


class TestBenchmarksUnderTso:
    @pytest.mark.parametrize("name", TSO_REACHABLE)
    def test_store_buffering_family_reachable(self, name):
        info = BENCHMARKS[name]
        hits = tso_hits(info.build, naive)
        hits += tso_hits(info.build, pctwm(info.build, 2))
        assert hits > 0, f"{name}'s bug should exist on x86-TSO"

    @pytest.mark.parametrize("name", TSO_SAFE)
    def test_message_passing_family_safe(self, name):
        info = BENCHMARKS[name]
        hits = tso_hits(info.build, naive, 100)
        for depth in (2, 3):
            hits += tso_hits(info.build, pctwm(info.build, depth), 100)
        assert hits == 0, f"{name}'s bug needs more than W->R reordering"

    def test_treiber_reachable_under_tso(self):
        """Treiber's payload-after-publication is a buffered-store bug."""
        assert tso_hits(treiber, pctwm(treiber, 2)) > 0

    def test_spsc_safe_under_tso(self):
        """SPSC's bug is pure message passing: W->W order saves it."""
        hits = tso_hits(spsc, naive)
        hits += tso_hits(spsc, pctwm(spsc, 2))
        assert hits == 0

    @pytest.mark.parametrize("name", list(BENCHMARKS))
    def test_fixed_variants_safe_under_tso_too(self, name):
        info = BENCHMARKS[name]

        def fixed():
            return info.factory(fixed=True)

        hits = tso_hits(fixed, naive, 60)
        hits += tso_hits(fixed, pctwm(fixed, 2), 60)
        assert hits == 0, f"{name}-fixed flagged under TSO"
