"""Unit tests for the ``repro bench`` machinery (no heavy measurement)."""

from __future__ import annotations

import json

from repro.harness.bench import (
    PRE_FASTPATH_BASELINE,
    check_against_baseline,
    environment_fingerprint,
    measure_campaign_throughput,
    measure_events_per_sec,
    render_bench,
    SCHEDULER_SPECS,
    WORKLOAD_SPECS,
)


def make_doc(silo_pctwm: float) -> dict:
    return {
        "meta": {
            "tool": "repro bench", "mode": "quick", "seed": 0,
            "environment": environment_fingerprint(),
        },
        "engine_events_per_sec": {
            "silo": {"pctwm": silo_pctwm, "naive": 90000.0},
        },
        "baseline_pre_fastpath": PRE_FASTPATH_BASELINE,
    }


def test_fingerprint_is_json_serializable():
    fp = environment_fingerprint()
    assert {"python", "platform", "machine", "cpu_count"} <= set(fp)
    json.dumps(fp)  # must not raise


def test_check_passes_within_tolerance():
    baseline = make_doc(60000.0)
    current = make_doc(45000.0)  # -25%, inside the 30% band
    assert check_against_baseline(current, baseline, tolerance=0.30) == []


def test_check_fails_beyond_tolerance():
    baseline = make_doc(60000.0)
    current = make_doc(40000.0)  # -33%
    failures = check_against_baseline(current, baseline, tolerance=0.30)
    assert len(failures) == 1
    assert "silo/pctwm" in failures[0]


def test_check_skips_missing_cells():
    baseline = make_doc(60000.0)
    baseline["engine_events_per_sec"]["iris"] = {"pos": 50000.0}
    current = make_doc(60000.0)  # no iris measurement at all
    assert check_against_baseline(current, baseline) == []


def test_improvements_never_fail():
    baseline = make_doc(60000.0)
    current = make_doc(200000.0)
    assert check_against_baseline(current, baseline) == []


def test_check_gates_campaign_throughput():
    baseline = make_doc(60000.0)
    baseline["campaign_throughput"] = {"serial_trials_per_sec": 500.0}
    current = make_doc(60000.0)
    current["campaign_throughput"] = {"serial_trials_per_sec": 300.0}
    failures = check_against_baseline(current, baseline, tolerance=0.30)
    assert len(failures) == 1
    assert "campaign serial" in failures[0]
    current["campaign_throughput"]["serial_trials_per_sec"] = 400.0
    assert check_against_baseline(current, baseline,
                                  tolerance=0.30) == []
    del current["campaign_throughput"]  # nothing measured -> skipped
    assert check_against_baseline(current, baseline,
                                  tolerance=0.30) == []


def test_render_mentions_speedup_vs_pre_fastpath():
    text = render_bench(make_doc(62358.0))
    assert "silo" in text
    assert "pre-fastpath" in text
    assert "events/s" in text


def test_measure_produces_positive_rate():
    """One tiny real measurement: the plumbing end to end."""
    cell = measure_events_per_sec(
        WORKLOAD_SPECS["iris"], SCHEDULER_SPECS["naive"],
        runs=2, repeats=1,
    )
    assert cell["events_per_sec"] > 0
    assert cell["events_per_batch"] > 0


def test_committed_trajectory_shows_fastpath_win():
    """The checked-in BENCH_engine.json carries the before/after story:
    the fast engine clears 1.5x over the pre-fastpath engine on
    silo/pctwm (the roadmap's acceptance bar)."""
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "BENCH_engine.json"
    doc = json.loads(path.read_text())
    after = doc["engine_events_per_sec"]["silo"]["pctwm"]
    before = doc["baseline_pre_fastpath"]["silo"]["pctwm"]
    assert after >= 1.5 * before


def test_committed_trajectory_shows_campaign_fastpath_win():
    """The campaign fast path's before/after is recorded under
    ``campaign_fastpath`` and shows a real serial-throughput win."""
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "BENCH_engine.json"
    doc = json.loads(path.read_text())
    fastpath = doc["campaign_fastpath"]
    before = fastpath["before"]["serial_trials_per_sec"]
    after = fastpath["after"]["serial_trials_per_sec"]
    assert after > before
    assert fastpath["speedup"] >= 1.1


def test_scaling_recorded_only_with_real_parallelism():
    """No speedup from ``jobs=1`` or from more jobs than CPUs: both
    would be noise.  The skip says why instead."""
    for jobs, cpus in ((1, 4), (2, 1)):
        cell = measure_campaign_throughput(trials=4, jobs=jobs, repeats=1,
                                           cpu_count=cpus)
        assert cell["serial_trials_per_sec"] > 0
        assert "speedup" not in cell
        assert f"jobs={jobs}_trials_per_sec" not in cell
        assert f"cpu_count={cpus}" in cell["scaling_skipped"]
        assert "scaling skipped" in render_bench(
            dict(make_doc(60000.0), campaign_throughput=cell))
    cell = measure_campaign_throughput(trials=4, jobs=2, repeats=1,
                                       cpu_count=2)
    assert "scaling_skipped" not in cell
    assert cell["jobs=2_trials_per_sec"] > 0 and cell["speedup"] > 0


def test_committed_scaling_record_is_meaningful():
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "BENCH_engine.json"
    doc = json.loads(path.read_text())
    cell = doc["campaign_throughput"]
    cpus = doc["meta"]["environment"]["cpu_count"]
    assert ("speedup" in cell) == (2 <= cell["jobs"] <= cpus)
    assert ("speedup" in cell) != ("scaling_skipped" in cell)
