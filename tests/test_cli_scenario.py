"""Tests for the `repro scenario` CLI."""

import pytest

from repro.cli import build_parser, main

GOOD = """
[scenario]
name = "cli-good"
title = "A quick CLI scenario"

[settings]
profile = "small"
duration_hours = 24.0
seeds = [1]
num_caching_nodes = 5
num_items = 4
num_sources = 1
refresh_interval_hours = 3.0
probe_interval_minutes = 20.0

[run]
schemes = ["hdr"]

[[grid.axes]]
key = "settings.refresh_interval_hours"
values = [3.0, 6.0]
"""

BAD = """
[scenario]
name = "cli-bad"

[run]
schemes = ["bogus"]
backend = "gpu"
"""


@pytest.fixture()
def scenario_dir(tmp_path):
    (tmp_path / "good.toml").write_text(GOOD)
    return tmp_path


class TestParser:
    def test_scenario_requires_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["scenario", "run", "quickstart"])
        assert args.name == "quickstart"
        assert args.dir == "scenarios"
        assert args.resume is False


class TestListShowValidate:
    def test_list(self, scenario_dir, capsys):
        assert main(["scenario", "list", "--dir", str(scenario_dir)]) == 0
        out = capsys.readouterr().out
        assert "cli-good" in out
        assert "2 grid points" in out

    def test_list_empty_dir(self, tmp_path, capsys):
        assert main(["scenario", "list", "--dir", str(tmp_path)]) == 0
        assert "no scenarios" in capsys.readouterr().out

    def test_show(self, scenario_dir, capsys):
        assert main(["scenario", "show", "cli-good",
                     "--dir", str(scenario_dir)]) == 0
        out = capsys.readouterr().out
        assert "cli-good" in out
        assert "grid points: 2" in out
        assert "refresh_interval_hours=6.0" in out

    def test_show_unknown_name(self, scenario_dir, capsys):
        assert main(["scenario", "show", "nope",
                     "--dir", str(scenario_dir)]) == 2
        out = capsys.readouterr().out
        assert "unknown scenario 'nope'" in out
        assert "cli-good" in out  # suggests what exists

    def test_validate_all_ok(self, scenario_dir, capsys):
        assert main(["scenario", "validate",
                     "--dir", str(scenario_dir)]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_validate_reports_file_table_key(self, scenario_dir, capsys):
        bad = scenario_dir / "bad.toml"
        bad.write_text(BAD)
        assert main(["scenario", "validate", str(bad)]) == 2
        out = capsys.readouterr().out
        assert str(bad) in out
        assert "[run]" in out
        assert "bogus" in out
        assert "Traceback" not in out

    def test_validate_mixed_results_fail_overall(self, scenario_dir, capsys):
        (scenario_dir / "bad.toml").write_text(BAD)
        assert main(["scenario", "validate",
                     "--dir", str(scenario_dir)]) == 2
        out = capsys.readouterr().out
        assert "ok:" in out and "error:" in out

    def test_validate_rejects_over_capacity_fixture(self, capsys):
        from pathlib import Path

        fixture = (Path(__file__).resolve().parent / "fixtures"
                   / "over-capacity.toml")
        assert main(["scenario", "validate", str(fixture)]) == 2
        out = capsys.readouterr().out
        assert "[settings]" in out
        for key in ("num_caching_nodes = 10", "fanout = 2", "max_depth = 2"):
            assert key in out
        assert "Traceback" not in out

    def test_validate_rejects_over_capacity_grid_point(self, scenario_dir,
                                                      capsys):
        # fanout 1 at the default depth 3 holds 3 of the 5 caching nodes
        swept = GOOD.replace("settings.refresh_interval_hours",
                             "settings.fanout").replace("[3.0, 6.0]", "[3, 1]")
        (scenario_dir / "good.toml").write_text(swept)
        assert main(["scenario", "validate",
                     "--dir", str(scenario_dir)]) == 2
        out = capsys.readouterr().out
        assert "num_caching_nodes = 5 exceeds the hdr tree capacity 3" in out

    def test_committed_scenarios_validate(self, capsys):
        from pathlib import Path

        scenarios = Path(__file__).resolve().parents[1] / "scenarios"
        assert main(["scenario", "validate", "--dir", str(scenarios)]) == 0
        out = capsys.readouterr().out
        assert out.count("ok:") >= 6


class TestRun:
    def test_run_grid(self, scenario_dir, capsys):
        assert main(["scenario", "run", "cli-good",
                     "--dir", str(scenario_dir)]) == 0
        out = capsys.readouterr().out
        assert "scenario cli-good" in out
        assert "refresh_interval_hours=3.0" in out
        assert "refresh_interval_hours=6.0" in out
        assert "freshness" in out

    def test_run_with_checkpoint_and_resume(self, scenario_dir, tmp_path,
                                            capsys):
        checkpoint = tmp_path / "ckpt"
        argv = ["scenario", "run", "cli-good", "--dir", str(scenario_dir),
                "--checkpoint", str(checkpoint)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "checkpoint journal" in first
        assert (checkpoint / "cli-good" / "journal.jsonl").exists()
        assert main(argv + ["--resume"]) == 0
        resumed = capsys.readouterr().out
        assert "freshness" in resumed

    def test_run_unknown_scenario(self, scenario_dir, capsys):
        assert main(["scenario", "run", "nope",
                     "--dir", str(scenario_dir)]) == 2

    def test_run_invalid_file_clean_error(self, scenario_dir, capsys):
        bad = scenario_dir / "bad.toml"
        bad.write_text(BAD)
        assert main(["scenario", "run", str(bad)]) == 2
        out = capsys.readouterr().out
        assert "error:" in out
        assert "Traceback" not in out

    def test_run_bad_jobs_value(self, scenario_dir, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "garbage")
        assert main(["scenario", "run", "cli-good",
                     "--dir", str(scenario_dir)]) == 2
