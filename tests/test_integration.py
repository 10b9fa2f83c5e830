"""End-to-end integration: CLI, paper claims at test scale, examples."""

import subprocess
import sys

import pytest

from repro.harness import figure6, table2
from repro.harness.cli import main as cli_main
from repro.workloads import BENCHMARKS


class TestCli:
    def test_table1_command(self, capsys):
        assert cli_main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "dekker" in out

    def test_table1_honours_benchmarks(self, capsys):
        assert cli_main(["table1", "--benchmarks", "dekker"]) == 0
        rows = [line.split()[0]
                for line in capsys.readouterr().out.splitlines()
                if line.split() and line.split()[0] in BENCHMARKS]
        assert rows == ["dekker"]

    def test_table1_takes_no_campaign_flags(self):
        with pytest.raises(SystemExit) as exc:
            cli_main(["table1", "--trials", "5"])
        assert exc.value.code == 2

    def test_table2_command_with_subset(self, capsys):
        assert cli_main(["table2", "--trials", "5",
                         "--benchmarks", "dekker"]) == 0
        out = capsys.readouterr().out
        assert "Rate(d)" in out

    def test_figure5_command_with_subset(self, capsys):
        assert cli_main(["figure5", "--trials", "5",
                         "--benchmarks", "barrier"]) == 0
        out = capsys.readouterr().out
        assert "PCTWM" in out

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "table1"],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0
        assert "dekker" in proc.stdout


class TestPaperClaimsAtTestScale:
    """Small-trial versions of the headline evaluation claims."""

    def test_table2_depth_zero_rows_are_100(self):
        rows = table2(trials=25, histories=(1,), offsets=(0,),
                      benchmarks=["dekker", "msqueue"])
        for row in rows:
            assert row.rates[0] == 100.0

    def test_figure6_pctwm_stable_pct_degrades(self):
        """The Figure 6 claim on dekker: inserting benign relaxed writes
        leaves PCTWM flat while diluting PCT's uniform rf sampling."""
        series = figure6(trials=120, insert_counts=(0, 8),
                         benchmarks=["dekker"])["dekker"]
        assert series.pctwm[0] == series.pctwm[-1] == 100.0
        assert series.pct[-1] < series.pct[0]

    def test_every_benchmark_has_figure5_shape_data(self):
        # Sanity: the registry drives all evaluation entry points.
        assert all(info.paper_k_com > 0 for info in BENCHMARKS.values())


#: Example script -> a line its output must contain.
EXAMPLE_OUTPUT = {
    "examples/quickstart.py": "bug found: True",
    "examples/tso_vs_c11.py": "tso pctwm*",
}


class TestExamples:
    @pytest.mark.parametrize("script", list(EXAMPLE_OUTPUT))
    def test_example_runs(self, script):
        proc = subprocess.run(
            [sys.executable, script], capture_output=True, text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert EXAMPLE_OUTPUT[script] in proc.stdout
