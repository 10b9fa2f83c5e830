"""Tests for campaigns, statistics, and table/figure generation."""

import pytest

from repro.harness import (
    c11tester_factory,
    figure5,
    figure6,
    mean,
    naive_factory,
    pct_factory,
    pctwm_factory,
    relative_stdev_pct,
    render_figure5,
    render_figure6,
    render_table1,
    render_table2,
    render_table3,
    render_table4,
    run_campaign,
    stdev,
    table1,
    table2,
    table3,
    table4,
    wilson_interval,
)
from repro.litmus import store_buffering


class TestStats:
    def test_mean(self):
        assert mean([1, 2, 3]) == 2

    def test_mean_empty_raises(self):
        with pytest.raises(ValueError):
            mean([])

    def test_stdev_constant_is_zero(self):
        assert stdev([5, 5, 5]) == 0

    def test_rsd(self):
        assert relative_stdev_pct([5, 5, 5]) == 0
        assert relative_stdev_pct([0, 0]) == 0
        assert relative_stdev_pct([1, 3]) == pytest.approx(50.0)

    def test_wilson_contains_point_estimate(self):
        low, high = wilson_interval(50, 100)
        assert low < 0.5 < high

    def test_wilson_extremes(self):
        low, high = wilson_interval(0, 100)
        assert low == 0.0 and high < 0.1
        low, high = wilson_interval(100, 100)
        assert low > 0.9 and high == pytest.approx(1.0)

    def test_wilson_narrower_with_more_trials(self):
        low_small, high_small = wilson_interval(5, 10)
        low_big, high_big = wilson_interval(500, 1000)
        assert (high_big - low_big) < (high_small - low_small)

    def test_wilson_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 3)


class TestCampaign:
    def test_aggregates_hits(self):
        result = run_campaign(store_buffering, pctwm_factory(0, 4, 1),
                              trials=20)
        assert result.trials == 20
        assert result.hits == 20
        assert result.hit_rate == 100.0

    def test_records_timing(self):
        result = run_campaign(store_buffering, c11tester_factory(),
                              trials=10)
        assert result.elapsed_s > 0
        assert len(result.run_times_s) == 10
        assert result.avg_time_ms > 0

    def test_seeds_make_it_deterministic(self):
        a = run_campaign(store_buffering, c11tester_factory(), trials=30,
                         base_seed=5)
        b = run_campaign(store_buffering, c11tester_factory(), trials=30,
                         base_seed=5)
        assert a.hits == b.hits

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            run_campaign(store_buffering, naive_factory(), trials=0)

    def test_factories_produce_named_schedulers(self):
        assert pctwm_factory(1, 5, 2)(0).name == "pctwm"
        assert pct_factory(1, 5)(0).name == "pct"
        assert c11tester_factory()(0).name == "c11tester"
        assert naive_factory()(0).name == "naive"


class TestTables:
    def test_table1_rows(self):
        rows = table1(estimation_runs=2)
        assert len(rows) == 9
        for row in rows:
            assert row.measured_k >= 1
            assert row.measured_k_com >= 1
        text = render_table1(rows)
        assert "dekker" in text and "seqlock" in text

    def test_table2_structure(self):
        rows = table2(trials=10, histories=(1,), offsets=(0, 1),
                      benchmarks=["dekker"])
        assert len(rows) == 1
        row = rows[0]
        assert set(row.rates) == {0, 1}
        assert render_table2(rows)

    def test_table3_structure(self):
        rows = table3(trials=10, histories=(1, 2), benchmarks=["barrier"])
        assert set(rows[0].rates) == {1, 2}
        assert "barrier" in render_table3(rows)

    def test_table4_structure(self):
        rows = table4(runs=2)
        assert len(rows) == 6  # 3 apps x {single, multiple}
        apps = {r.application for r in rows}
        assert apps == {"iris", "mabain", "silo"}
        silo_rows = [r for r in rows if r.application == "silo"]
        assert all(r.metric == "ops/sec" for r in silo_rows)
        assert all(r.c11tester_races == 2 for r in rows)
        assert "iris" in render_table4(rows)


class TestFigures:
    def test_figure5_structure(self):
        bars = figure5(trials=10, benchmarks=["dekker"],
                       pct_depths=(1,), histories=(1,),
                       pctwm_depth_offsets=(0,))
        assert len(bars) == 1
        assert bars[0].pctwm == 100.0  # dekker d=0 always hits
        assert "dekker" in render_figure5(bars)

    def test_figure6_structure(self):
        series = figure6(trials=10, insert_counts=(0, 2),
                         benchmarks=["dekker"])
        s = series["dekker"]
        assert s.inserted == [0, 2]
        assert len(s.pctwm) == 2
        assert "dekker" in render_figure6(series)

    def test_figure6_defaults_to_paper_subset(self):
        series = figure6(trials=2, insert_counts=(0,))
        assert set(series) == {"dekker", "cldeque", "mpmcqueue", "rwlock"}


class TestSignificance:
    def test_z_positive_when_a_better(self):
        from repro.harness import two_proportion_z
        assert two_proportion_z(90, 100, 50, 100) > 0
        assert two_proportion_z(50, 100, 90, 100) < 0

    def test_z_zero_for_equal_rates(self):
        from repro.harness import two_proportion_z
        assert abs(two_proportion_z(50, 100, 50, 100)) < 1e-9

    def test_degenerate_pools(self):
        from repro.harness import two_proportion_z
        assert two_proportion_z(0, 100, 0, 100) == 0.0
        assert two_proportion_z(100, 100, 100, 100) == 0.0

    def test_significantly_greater(self):
        from repro.harness import significantly_greater
        assert significantly_greater(95, 100, 40, 100)
        assert not significantly_greater(52, 100, 50, 100)

    def test_validation(self):
        from repro.harness import two_proportion_z
        with pytest.raises(ValueError):
            two_proportion_z(1, 0, 1, 10)
        with pytest.raises(ValueError):
            two_proportion_z(11, 10, 1, 10)

    def test_headline_claim_is_significant(self):
        """PCTWM vs C11Tester on dekker: significant at modest trials."""
        from repro.harness import (
            c11tester_factory,
            pctwm_factory,
            run_campaign,
            significantly_greater,
        )
        from repro.workloads import BENCHMARKS
        build = BENCHMARKS["dekker"].build
        wm = run_campaign(build, pctwm_factory(0, 5, 1), trials=80)
        c11 = run_campaign(build, c11tester_factory(), trials=80)
        assert significantly_greater(wm.hits, wm.trials,
                                     c11.hits, c11.trials)
