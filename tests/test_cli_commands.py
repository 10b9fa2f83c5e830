"""CLI coverage for the remaining subcommands."""

import argparse
import dataclasses
import os
import subprocess
import sys
from dataclasses import fields

import pytest

from repro.harness.cli import _args_to_job_spec, _build_parser, main
from repro.service.jobs import JobSpec


class TestCliCommands:
    def test_table3_command(self, capsys):
        assert main(["table3", "--trials", "4",
                     "--benchmarks", "dekker"]) == 0
        assert "h:1" in capsys.readouterr().out

    def test_table4_command(self, capsys):
        assert main(["table4", "--runs", "2"]) == 0
        out = capsys.readouterr().out
        assert "silo" in out and "iris" in out

    def test_figure6_command(self, capsys):
        assert main(["figure6", "--trials", "4",
                     "--benchmarks", "dekker"]) == 0
        out = capsys.readouterr().out
        assert "inserting relaxed writes" in out
        assert "inserted writes" in out  # the ASCII chart

    def test_litmus_command(self, capsys):
        assert main(["litmus", "--trials", "10"]) == 0
        out = capsys.readouterr().out
        assert "SB" in out and "pctwm" in out

    def test_all_command_small(self, capsys):
        assert main(["all", "--trials", "2", "--runs", "2"]) == 0
        out = capsys.readouterr().out
        for artifact in ("Table 1", "Table 2", "Table 3", "Table 4",
                         "Figure 5", "Figure 6"):
            assert artifact in out

    def test_depth_command_reports_calibration(self, capsys):
        assert main(["depth", "dekker", "--trials", "20"]) == 0
        out = capsys.readouterr().out
        assert "calibrated" in out


#: Every JobSpec field set away from its default, and the flags that do it.
NON_DEFAULT_SPEC = JobSpec(
    benchmark="seqlock", scheduler="pct", trials=7, seed=3, jobs=2,
    depth=4, history=3, max_steps=900, trial_timeout_s=2.5,
    hang_timeout_s=9.0, memory_limit_mb=512.0, max_retries=5,
    sanitize="all", model="tso", artifact_dir="art")
NON_DEFAULT_ARGV = [
    "seqlock", "--scheduler", "pct", "--trials", "7", "--seed", "3",
    "--jobs", "2", "--depth", "4", "--history", "3", "--max-steps", "900",
    "--trial-timeout", "2.5", "--hang-timeout", "9",
    "--memory-limit-mb", "512", "--max-retries", "5", "--sanitize", "all",
    "--model", "tso"]
FIELDS = {f.name for f in fields(JobSpec)}


def parse(*argv):
    return _build_parser().parse_args(list(argv))


class TestJobSpecFlags:
    """``campaign`` and ``job submit`` build their JobSpec from its fields."""

    def test_every_field_is_set_away_from_its_default(self):
        default = JobSpec(benchmark="dekker")
        assert [name for name in sorted(FIELDS)
                if getattr(NON_DEFAULT_SPEC, name) == getattr(default, name)
                ] == []

    def test_campaign_round_trip(self):
        args = parse("campaign", *NON_DEFAULT_ARGV, "--artifacts", "art")
        assert FIELDS <= set(vars(args))
        assert _args_to_job_spec(args) == NON_DEFAULT_SPEC

    def test_submit_round_trip(self):
        args = parse("job", "submit", *NON_DEFAULT_ARGV)
        assert FIELDS - {"artifact_dir"} <= set(vars(args))
        assert _args_to_job_spec(args) == dataclasses.replace(
            NON_DEFAULT_SPEC, artifact_dir=None)

    def test_absent_flags_leave_the_spec_defaults(self):
        for argv in (["campaign", "dekker"], ["job", "submit", "dekker"]):
            assert _args_to_job_spec(parse(*argv)) == JobSpec("dekker")


#: An out-of-range value for every JobSpec field with a bound or choice
#: set, and the campaign argv that gives it.  artifact_dir takes any path.
OUT_OF_RANGE = {
    "benchmark": ("nosuchbench", ["nosuchbench"]),
    "scheduler": ("bogus", ["dekker", "--scheduler", "bogus"]),
    "trials": (0, ["dekker", "--trials", "0"]),
    "seed": (-1, ["dekker", "--seed", "-1"]),
    "jobs": (0, ["dekker", "--jobs", "0"]),
    "depth": (-1, ["dekker", "--depth", "-1"]),
    "history": (0, ["dekker", "--history", "0"]),
    "max_steps": (0, ["dekker", "--max-steps", "0"]),
    "trial_timeout_s": (0.0005, ["dekker", "--trial-timeout", "0.0005"]),
    "hang_timeout_s": (0.0, ["dekker", "--hang-timeout", "0"]),
    "memory_limit_mb": (-1.0, ["dekker", "--memory-limit-mb", "-1"]),
    "max_retries": (-1, ["dekker", "--max-retries", "-1"]),
    "sanitize": ("loud", ["dekker", "--sanitize", "loud"]),
    "model": ("sc", ["dekker", "--model", "sc"]),
}


def exit_code(argv):
    """``main``'s status, whether it returns it or argparse exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestDeclaredOptions:
    """The CLI and JobSpec.validate read one declaration, so they reject
    the same values."""

    def test_every_ranged_field_is_covered(self):
        assert set(OUT_OF_RANGE) == FIELDS - {"artifact_dir"}

    @pytest.mark.parametrize("name", sorted(OUT_OF_RANGE))
    def test_cli_and_validate_reject_the_same_value(self, name, capsys):
        value, argv = OUT_OF_RANGE[name]
        spec = dataclasses.replace(JobSpec("dekker"), **{name: value})
        with pytest.raises(ValueError, match=name):
            spec.validate()
        assert exit_code(["campaign", *argv]) == 2

    @pytest.mark.parametrize("argv,fragment", [
        (["hunt", "dekker", "--depth", "-2"], "must be >= 0"),
        (["hunt", "dekker", "--history", "0"], "must be >= 1"),
        (["fuzz", "--max-threads", "1"], "must be >= 2"),
        (["fuzz", "--profile", "chaotic"], "invalid choice"),
    ])
    def test_other_commands_share_the_bounds(self, argv, fragment, capsys):
        assert exit_code(argv) == 2
        assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["depth", "nosuch"],
    ["table2", "--benchmarks", "nosuch", "--trials", "2"],
    ["table3", "--benchmarks", "nosuch", "--trials", "2"],
    ["figure5", "--benchmarks", "nosuch", "--trials", "2"],
    ["figure6", "--benchmarks", "nosuch", "--trials", "2"],
    ["figure5", "--benchmarks", "--trials", "2"],
], ids=" ".join)
def test_bad_benchmark_selection_is_a_usage_error(argv, capsys):
    """An unknown or empty selection exits 2 with one line naming the
    known benchmarks, before anything runs."""
    assert exit_code(argv) == 2
    out = capsys.readouterr().out
    assert out.startswith("error: ") and out.count("\n") == 1
    assert "known: dekker, " in out


def subcommands(parser, prefix=()):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, cmd in action.choices.items():
                yield prefix + (name,)
                yield from subcommands(cmd, prefix + (name,))


@pytest.mark.parametrize("path", list(subcommands(_build_parser())),
                         ids=" ".join)
def test_help(path, capsys):
    assert exit_code([*path, "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: python -m repro")


def test_interrupt_exits_130(monkeypatch, capsys):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr("repro.harness.cli._cmd_campaign", interrupted)
    assert main(["campaign", "dekker"]) == 130


def test_parser_loads_only_the_declarations():
    """Declaring the flags imports ``jobs.py`` and ``generator.py``, not
    the rest of their packages, which every command would pay for."""
    code = ("import sys; from repro.harness.cli import _build_parser; "
            "_build_parser(); print(' '.join(sorted(sys.modules)))")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    loaded = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
    ).stdout.split()
    for module in ("repro.service.client", "repro.service.daemon",
                   "repro.fuzz.driver", "repro.fuzz.corpus"):
        assert module not in loaded
