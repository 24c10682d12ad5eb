"""Tests for the benchmark helpers: the engine-regression gate, the
reference scenario, and the single-CPU sweep skip."""

import json
import subprocess

from repro.experiments import bench
from repro.experiments.bench import (
    SWEEP_SEEDS,
    check_engine_regression,
    check_scale_regression,
    reference_settings,
    sweep_benchmark,
)
from repro.experiments.config import DAY


def report(events_per_sec: float) -> dict:
    return {"engine": {"events_per_sec": events_per_sec}}


class TestCheckEngineRegression:
    def baseline(self, tmp_path, payload) -> str:
        path = tmp_path / "baseline.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        return str(path)

    def test_passes_within_threshold(self, tmp_path):
        path = self.baseline(tmp_path, report(100_000.0))
        ok, message = check_engine_regression(report(80_000.0), path)
        assert ok
        assert "0.80x" in message

    def test_fails_beyond_threshold(self, tmp_path):
        path = self.baseline(tmp_path, report(100_000.0))
        ok, message = check_engine_regression(report(60_000.0), path)
        assert not ok
        assert "floor 0.70x" in message

    def test_custom_threshold(self, tmp_path):
        path = self.baseline(tmp_path, report(100_000.0))
        ok, _ = check_engine_regression(report(60_000.0), path, threshold=0.5)
        assert ok

    def test_missing_baseline_skips(self, tmp_path):
        ok, message = check_engine_regression(
            report(1.0), str(tmp_path / "absent.json")
        )
        assert ok
        assert "skipping" in message

    def test_malformed_baseline_skips(self, tmp_path):
        path = self.baseline(tmp_path, "{not json")
        ok, message = check_engine_regression(report(1.0), path)
        assert ok
        assert "skipping" in message

    def test_baseline_without_engine_section_skips(self, tmp_path):
        path = self.baseline(tmp_path, {"sweep": {}})
        ok, message = check_engine_regression(report(1.0), path)
        assert ok
        assert "skipping" in message


class TestReferenceSettings:
    def test_full_scenario(self):
        settings = reference_settings()
        assert settings.seeds == SWEEP_SEEDS
        assert settings.duration == 6 * DAY
        assert settings.num_caching_nodes == 12
        assert settings.num_items == 6
        assert settings.num_sources == 2
        assert settings.probe_interval == 60.0

    def test_quick_scenario_shrinks_only_seeds_and_duration(self):
        settings = reference_settings(quick=True)
        assert settings.seeds == (1, 2)
        assert settings.duration == 3 * DAY
        assert settings.num_caching_nodes == 12
        assert settings.probe_interval == 60.0


class TestSweepSkip:
    def test_single_cpu_skips_comparison(self, monkeypatch):
        monkeypatch.setattr(bench, "available_cpus", lambda: 1)
        result = sweep_benchmark()
        assert result["skipped"] == "1 cpu"
        assert result["cpus"] == 1
        assert ">= 2 usable CPUs" in result["note"]


def scale_report(points, speedup_ok=True, rss_ok=True) -> dict:
    return {
        "scale": {
            "points": points,
            "speedup_ok": speedup_ok,
            "rss_ok": rss_ok,
            "soa_speedup_1k": 10.0,
            "speedup_floor": bench.SCALE_MIN_SOA_SPEEDUP,
            "rss_ceiling_mb": bench.SCALE_RSS_CEILING_MB,
        }
    }


def scale_point(backend, nodes, events_per_sec) -> dict:
    return {"backend": backend, "nodes": nodes,
            "events_per_sec": events_per_sec}


class TestCheckScaleRegression:
    def baseline(self, tmp_path, payload) -> str:
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_passes_within_threshold(self, tmp_path):
        path = self.baseline(
            tmp_path, scale_report([scale_point("soa", 1000, 100_000.0)])
        )
        ok, message = check_scale_regression(
            scale_report([scale_point("soa", 1000, 80_000.0)]), path
        )
        assert ok
        assert "1 point(s)" in message

    def test_fails_beyond_threshold(self, tmp_path):
        path = self.baseline(
            tmp_path, scale_report([scale_point("soa", 1000, 100_000.0)])
        )
        ok, message = check_scale_regression(
            scale_report([scale_point("soa", 1000, 50_000.0)]), path
        )
        assert not ok
        assert "soa@1000" in message

    def test_fails_when_speedup_floor_missed(self, tmp_path):
        path = self.baseline(tmp_path, scale_report([]))
        ok, message = check_scale_regression(
            scale_report([], speedup_ok=False), path
        )
        assert not ok
        assert "under floor" in message

    def test_fails_when_rss_ceiling_exceeded(self, tmp_path):
        path = self.baseline(tmp_path, scale_report([]))
        ok, message = check_scale_regression(
            scale_report([], rss_ok=False), path
        )
        assert not ok
        assert "peak-RSS ceiling" in message

    def test_new_points_pass_against_missing_baseline(self, tmp_path):
        ok, _ = check_scale_regression(
            scale_report([scale_point("soa", 100_000, 1.0)]),
            str(tmp_path / "absent.json"),
        )
        assert ok

    def test_points_absent_from_baseline_pass(self, tmp_path):
        path = self.baseline(
            tmp_path, scale_report([scale_point("soa", 1000, 100_000.0)])
        )
        ok, _ = check_scale_regression(
            scale_report([scale_point("soa", 30_000, 1.0)]), path
        )
        assert ok


class TestScaleSampling:
    """Short scale points are sampled three times and gated on the median."""

    BASE_EPS = {("object", 1000): 400_000.0, ("soa", 1000): 4_000_000.0}

    def run_scale(self, monkeypatch, object_rates):
        """``scale_benchmark`` with the subprocess replaced: object@1000
        yields ``object_rates`` in turn, soa@1000 its baseline rate."""
        rates = iter(object_rates)
        calls = []

        def fake_run(cmd, **kwargs):
            backend = cmd[cmd.index("--backend") + 1]
            nodes = int(cmd[cmd.index("--nodes") + 1])
            calls.append((backend, nodes))
            eps = next(rates) if backend == "object" else self.BASE_EPS[(backend, nodes)]
            point = {"backend": backend, "nodes": nodes, "run_s": 0.1,
                     "events_per_sec": eps, "peak_rss_mb": 60.0}
            return subprocess.CompletedProcess(cmd, 0, json.dumps(point), "")

        monkeypatch.setattr(subprocess, "run", fake_run)
        monkeypatch.setattr(bench, "_scale_points",
                            lambda quick: [("object", 1000), ("soa", 1000)])
        return {"scale": bench.scale_benchmark(quick=True)}, calls

    def baseline(self, tmp_path) -> str:
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(scale_report([
            {**scale_point(backend, nodes, eps), "run_s": 0.1}
            for (backend, nodes), eps in self.BASE_EPS.items()
        ])))
        return str(path)

    def test_one_slow_sample_of_three_passes(self, monkeypatch, tmp_path):
        report, calls = self.run_scale(monkeypatch, [240_000.0, 390_000.0, 410_000.0])
        assert calls.count(("object", 1000)) == 3
        point = report["scale"]["points"][0]
        assert point["events_per_sec"] == 390_000.0
        assert point["events_per_sec_samples"] == [240_000.0, 390_000.0, 410_000.0]
        ok, message = check_scale_regression(report, self.baseline(tmp_path))
        assert ok, message

    def test_three_slow_samples_still_fail(self, monkeypatch, tmp_path):
        report, _ = self.run_scale(monkeypatch, [240_000.0, 250_000.0, 230_000.0])
        ok, message = check_scale_regression(report, self.baseline(tmp_path))
        assert not ok
        assert "object@1000" in message
