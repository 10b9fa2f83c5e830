"""CLI coverage for the remaining subcommands."""

import dataclasses
from dataclasses import fields

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
