"""Tests for the record/replay subsystem."""

import pytest

from repro.core import C11TesterScheduler, PCTWMScheduler
from repro.litmus import mp2, store_buffering
from repro.replay import (
    ReplayScheduler,
    Trace,
    find_and_record,
    minimize_trace,
    record_run,
    replay_run,
)
from repro.replay.trace import READ, THREAD
from repro.runtime.errors import ReplayDivergenceError, ReproError
from repro.workloads import BENCHMARKS


class TestTrace:
    def test_roundtrip_json(self):
        trace = Trace(program="p", scheduler="s", seed=7,
                      decisions=[(THREAD, 0), (READ, 2), (THREAD, 1)])
        restored = Trace.from_json(trace.to_json())
        assert restored.program == "p"
        assert restored.seed == 7
        assert restored.decisions == trace.decisions

    def test_rejects_unknown_kinds(self):
        with pytest.raises(ValueError):
            Trace.from_json('{"decisions": [["x", 1]]}')

    def test_len(self):
        assert len(Trace()) == 0
        assert len(Trace(decisions=[(THREAD, 0)])) == 1


class TestRecordReplay:
    def test_replay_reproduces_outcome(self):
        for seed in range(20):
            result, trace = record_run(mp2(), PCTWMScheduler(2, 3, 1,
                                                             seed=seed))
            again = replay_run(mp2(), trace)
            assert again.bug_found == result.bug_found
            assert again.thread_results == result.thread_results

    def test_replay_reproduces_exact_event_stream(self):
        result, trace = record_run(mp2(), C11TesterScheduler(seed=3))
        again = replay_run(mp2(), trace)
        original = [(e.tid, e.label) for e in result.graph.events]
        replayed = [(e.tid, e.label) for e in again.graph.events]
        assert original == replayed

    def test_replay_through_json(self):
        result, trace = record_run(store_buffering(),
                                   C11TesterScheduler(seed=5))
        again = replay_run(store_buffering(),
                           Trace.from_json(trace.to_json()))
        assert again.thread_results == result.thread_results

    def test_recording_preserves_scheduler_behaviour(self):
        """Recording must not change what the inner scheduler does."""
        plain = sum(
            __import__("repro.runtime", fromlist=["run_once"]).run_once(
                store_buffering(), PCTWMScheduler(0, 4, 1, seed=s),
                keep_graph=False).bug_found
            for s in range(20)
        )
        recorded = sum(
            record_run(store_buffering(),
                       PCTWMScheduler(0, 4, 1, seed=s))[0].bug_found
            for s in range(20)
        )
        assert plain == recorded == 20

    def test_divergence_detected_wrong_program(self):
        _result, trace = record_run(mp2(), C11TesterScheduler(seed=1))
        with pytest.raises(ReproError, match="diverg|exhaust"):
            replay_run(store_buffering(), trace)

    def test_replay_scheduler_consumption_flag(self):
        result, trace = record_run(store_buffering(),
                                   C11TesterScheduler(seed=2))
        replayer = ReplayScheduler(trace)
        from repro.runtime import run_once
        run_once(store_buffering(), replayer)
        assert replayer.fully_consumed


class TestSpinThreshold:
    def test_recorded_in_trace_and_json(self):
        _result, trace = record_run(mp2(), C11TesterScheduler(seed=0),
                                    spin_threshold=5)
        assert trace.spin_threshold == 5
        assert Trace.from_json(trace.to_json()).spin_threshold == 5

    def test_replay_defaults_to_recorded_threshold(self):
        result, trace = record_run(mp2(), C11TesterScheduler(seed=4),
                                   spin_threshold=3)
        # Defaulted replay runs under threshold 3 and stays faithful.
        again = replay_run(mp2(), trace)
        assert again.thread_results == result.thread_results

    def test_find_and_record_threads_threshold(self):
        info = BENCHMARKS["msqueue"]
        found = find_and_record(
            info.build,
            lambda s: PCTWMScheduler(0, info.paper_k_com, 1, seed=s),
            max_attempts=20, spin_threshold=6,
        )
        assert found is not None
        assert found[2].spin_threshold == 6


class TestDivergenceDetection:
    def test_leftover_decisions_raise(self):
        """A trace with unconsumed decisions means the replayed program
        is not the recorded one; strict replay must say so."""
        _result, trace = record_run(store_buffering(),
                                    C11TesterScheduler(seed=2))
        trace.decisions += [(THREAD, 0)] * 4
        with pytest.raises(ReplayDivergenceError, match="4 decisions"):
            replay_run(store_buffering(), trace)

    def test_non_strict_tolerates_leftovers(self):
        result, trace = record_run(store_buffering(),
                                   C11TesterScheduler(seed=2))
        trace.decisions += [(THREAD, 0)] * 4
        again = replay_run(store_buffering(), trace, strict=False)
        assert again.thread_results == result.thread_results

    def test_exact_trace_passes_strict(self):
        result, trace = record_run(store_buffering(),
                                   C11TesterScheduler(seed=2))
        assert replay_run(store_buffering(), trace,
                          strict=True).thread_results \
            == result.thread_results


class TestMinimizeTrace:
    def test_minimized_bug_trace_is_shorter_and_equivalent(self):
        info = BENCHMARKS["msqueue"]
        found = find_and_record(
            info.build,
            lambda s: PCTWMScheduler(0, info.paper_k_com, 1, seed=s),
            max_attempts=20,
        )
        assert found is not None
        _seed, result, trace = found
        short = minimize_trace(info.build, trace)
        assert len(short) <= len(trace)
        again = replay_run(info.build(), short)
        assert again.bug_found
        assert again.bug_message == result.bug_message

    def test_bugless_trace_is_returned_unchanged(self):
        _result, trace = record_run(store_buffering(),
                                    C11TesterScheduler(seed=9))
        assert minimize_trace(store_buffering, trace).decisions \
            == trace.decisions

    def test_rejects_trace_for_wrong_program(self):
        _result, trace = record_run(mp2(), C11TesterScheduler(seed=1))
        with pytest.raises(ValueError, match="does not replay"):
            minimize_trace(store_buffering, trace)


class TestFindAndRecord:
    def test_finds_and_replays_a_benchmark_bug(self):
        info = BENCHMARKS["msqueue"]
        found = find_and_record(
            info.build,
            lambda s: PCTWMScheduler(0, info.paper_k_com, 1, seed=s),
            max_attempts=20,
        )
        assert found is not None
        seed, result, trace = found
        assert result.bug_found
        again = replay_run(info.build(), trace)
        assert again.bug_found
        assert again.bug_message == result.bug_message

    def test_returns_none_for_bug_free_program(self):
        from repro.litmus import mp1
        assert find_and_record(
            mp1, lambda s: C11TesterScheduler(seed=s), max_attempts=10,
        ) is None
