"""Property-based tests for the TSO backend's invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import NaiveRandomScheduler, PCTScheduler, PCTWMScheduler
from repro.memory import resolve_model
from repro.memory.events import RLX, SC as SEQ
from repro.runtime import Program, fence

TSO = resolve_model("tso")

LOCS = ("X", "Y")

op_spec = st.one_of(
    st.tuples(st.just("store"), st.sampled_from(LOCS), st.integers(1, 4)),
    st.tuples(st.just("load"), st.sampled_from(LOCS)),
    st.tuples(st.just("faa"), st.sampled_from(LOCS)),
    st.tuples(st.just("fence")),
)

program_spec = st.lists(st.lists(op_spec, min_size=1, max_size=5),
                        min_size=2, max_size=3)


def build(spec) -> Program:
    p = Program("tso-random")
    handles = {loc: p.atomic(loc, 0) for loc in LOCS}

    def make_body(ops):
        def body():
            for op in ops:
                if op[0] == "store":
                    yield handles[op[1]].store(op[2], RLX)
                elif op[0] == "load":
                    yield handles[op[1]].load(RLX)
                elif op[0] == "faa":
                    yield handles[op[1]].fetch_add(1, RLX)
                else:
                    yield fence(SEQ)

        return body

    for ops in spec:
        p.add_thread(make_body(ops))
    return p


SCHEDULERS = (
    lambda seed: NaiveRandomScheduler(seed=seed),
    lambda seed: PCTScheduler(2, 16, seed=seed),
    lambda seed: PCTWMScheduler(2, 6, 2, seed=seed),
)


def run(spec, which, seed):
    return TSO.run_once(build(spec), SCHEDULERS[which](seed), max_steps=2000)


@settings(max_examples=40, deadline=None)
@given(program_spec, st.integers(0, 2), st.integers(0, 500))
def test_all_stores_eventually_commit(spec, which, seed):
    result = run(spec, which, seed)
    assert not result.limit_exceeded
    for event in result.graph.events:
        if event.is_write and not event.is_init:
            assert event.mo_index >= 0, "store never flushed"


@settings(max_examples=40, deadline=None)
@given(program_spec, st.integers(0, 2), st.integers(0, 500))
def test_own_reads_never_go_backwards(spec, which, seed):
    """TSO store forwarding: a thread's same-location reads observe a
    non-decreasing sequence of its knowledge (committed or forwarded)."""
    result = run(spec, which, seed)
    last: dict = {}
    for event in result.graph.events:
        if event.reads_from is None:
            continue
        key = (event.tid, event.loc)
        mo = event.reads_from.mo_index
        if key in last:
            assert mo >= last[key], "TSO read went mo-backwards"
        last[key] = mo


@settings(max_examples=40, deadline=None)
@given(program_spec, st.integers(0, 2), st.integers(0, 500))
def test_forwarded_reads_use_own_newest(spec, which, seed):
    """If a read's source is the reader's own write, it must be the
    po-latest same-location write issued before the read."""
    result = run(spec, which, seed)
    for event in result.graph.events:
        source = event.reads_from
        if source is None or source.is_init or source.tid != event.tid:
            continue
        own_earlier = [
            w for w in result.graph.events_by_tid[event.tid]
            if w.is_write and w.loc == event.loc
            and w.po_index < event.po_index
        ]
        assert own_earlier, "source not issued before the read"
        assert source is own_earlier[-1], \
            "forwarded read skipped a newer own write"


@settings(max_examples=30, deadline=None)
@given(program_spec, st.integers(0, 2), st.integers(0, 500))
def test_deterministic_replay(spec, which, seed):
    a = run(spec, which, seed)
    b = run(spec, which, seed)
    assert [(e.tid, e.label) for e in a.graph.events] \
        == [(e.tid, e.label) for e in b.graph.events]
