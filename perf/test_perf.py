"""Self-test of the benchmark; run with ``python -m pytest perf -q``.

Runs every workload in ``--smoke`` mode (three requests each), once
untraced and once traced, on seed 0.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def smoke(tmp_path, *args):
    """``(last output line, run records)`` of one smoke run."""
    out = tmp_path / "runs.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(PERF_DIR, "run.py"), "--smoke",
         "--out", str(out), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return last, json.loads(out.read_text())["runs"]


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return smoke(tmp_path_factory.mktemp("untraced"))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return smoke(tmp_path_factory.mktemp("traced"), "--trace")


def assert_emits(result, declared):
    last, runs = result
    assert last["correct"] is True
    assert last["attempted"] >= 1 and last["failed"] == 0
    assert [r["workload"] for r in runs] == WORKLOADS
    for record in runs:
        assert all(c["ok"] for c in record["checks"]), record["checks"]
        assert list(record["metrics"]) == [m["name"] for m in declared]
        for metric in declared:
            emitted = record["metrics"][metric["name"]]
            assert emitted["unit"] == metric["unit"]
            assert isinstance(emitted["value"], (int, float))
        for workload in WORKLOADS:
            for metric in declared:
                assert f"{workload}/{metric['name']}" in last["metrics"]


def test_every_end_to_end_metric_is_emitted_with_its_unit(untraced):
    assert_emits(untraced, BENCH["end_to_end"])
    for record in untraced[1]:
        assert all(m["value"] > 0 for m in record["metrics"].values())


def test_every_per_layer_metric_is_emitted_with_its_unit(traced):
    assert_emits(traced, BENCH["per_layer"])
    for record in traced[1]:
        assert record["metrics"]["trace.overhead_ratio"]["value"] > 0
        assert record["metrics"]["harness.trial.count"]["value"] > 0


def test_trace_self_times_are_nonnegative_and_within_wall_time(traced):
    for record in traced[1]:
        self_times = record["self_s"]
        assert self_times and min(self_times.values()) >= 0
        assert sum(self_times.values()) <= record["traced_wall_s"]


def test_same_seed_gives_identical_digests(untraced, traced):
    for plain, with_trace in zip(untraced[1], traced[1]):
        assert plain["seed"] == with_trace["seed"] == 0
        assert plain["inputs"] == with_trace["inputs"]
        assert plain["digests"] == with_trace["digests"]


def test_compare_refuses_a_gain_with_more_failed_requests(capsys):
    import compare

    def runs(latency, failed):
        return [{"workload": "silo-c11", "seed": seed, "trace": 0,
                 "attempted": 100, "failed": failed if seed == 0 else 0,
                 "metrics": {"request_s_p50": {"value": latency + seed / 1e3,
                                               "unit": "s"}}}
                for seed in range(10)]

    assert compare.compare(runs(0.2, 0), runs(0.1, 0))
    assert "gain" in capsys.readouterr().out
    assert not compare.compare(runs(0.2, 0), runs(0.1, 1))
    table = capsys.readouterr().out
    assert "gain refused" in table and "REGRESSION" in table


def test_seed_one_gives_different_inputs(untraced):
    sys.path[:0] = [os.path.join(ROOT, "src"), PERF_DIR]
    try:
        import workloads
    finally:
        del sys.path[:2]
    for record in untraced[1]:
        workload = workloads.WORKLOADS[record["workload"]](1, "unused")
        seed1 = [workload.inputs(i) for i in range(len(record["inputs"]))]
        assert seed1 != record["inputs"]
