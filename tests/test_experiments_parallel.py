"""Tests for the parallel runner and the per-seed artifact cache."""

import os

import pytest

from repro.experiments import Settings
from repro.experiments.artifacts import (
    artifacts_for_trace,
    cache_clear,
    cache_info,
    seed_artifacts,
    sources_from_ranking,
)
from repro.experiments.parallel import (
    JOBS_ENV_VAR,
    SweepPoint,
    resolve_jobs,
    run_sweep,
    run_tasks,
    validate_points,
)
from repro.experiments.runner import RunMetrics, run_replicated


@pytest.fixture(scope="module")
def settings():
    return Settings.fast()


@pytest.fixture(autouse=True)
def fresh_cache():
    cache_clear()
    yield
    cache_clear()


def _square(x):
    return x * x


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert resolve_jobs() == 1

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "8")
        assert resolve_jobs(3) == 3

    def test_env_var_consulted(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "5")
        assert resolve_jobs() == 5

    @pytest.mark.parametrize("raw", ["auto", "max", "0", "-1", "AUTO"])
    def test_auto_values_mean_cpu_count(self, monkeypatch, raw):
        monkeypatch.setenv(JOBS_ENV_VAR, raw)
        assert resolve_jobs() == (os.cpu_count() or 1)

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_zero_and_minus_one_mean_cpu_count(self, jobs):
        assert resolve_jobs(jobs) == (os.cpu_count() or 1)

    def test_invalid_env_var_raises(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "plenty")
        with pytest.raises(ValueError):
            resolve_jobs()

    def test_invalid_count_raises(self):
        with pytest.raises(ValueError):
            resolve_jobs(-3)


class TestRunTasks:
    def test_serial_preserves_order(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert run_tasks(_square, [3, 1, 2]) == [9, 1, 4]

    def test_parallel_preserves_order(self):
        assert run_tasks(_square, list(range(10)), jobs=3) == [
            x * x for x in range(10)
        ]

    def test_single_spec_bypasses_pool(self):
        assert run_tasks(_square, [7], jobs=4) == [49]


class TestArtifactCache:
    def test_repeat_lookup_returns_same_object(self, settings):
        first = seed_artifacts(settings, 1)
        second = seed_artifacts(settings, 1)
        assert first is second
        assert cache_info()["entries"] == 1

    def test_different_seeds_are_distinct(self, settings):
        assert seed_artifacts(settings, 1) is not seed_artifacts(settings, 2)

    def test_key_ignores_sweep_parameters(self, settings):
        base = seed_artifacts(settings, 1)
        tweaked = seed_artifacts(
            settings.with_(refresh_interval=123.0, num_caching_nodes=3), 1
        )
        assert base is tweaked  # trace depends only on (profile, duration, seed)

    def test_artifacts_for_trace_identity_lookup(self, settings):
        art = seed_artifacts(settings, 1)
        assert artifacts_for_trace(art.trace) is art
        assert artifacts_for_trace(object()) is None

    def test_sources_median_slice(self):
        ranking = tuple(range(10))
        assert sources_from_ranking(ranking, 2) == sorted(ranking[5:7])
        assert sources_from_ranking(ranking, 3) == sorted(ranking[5:8])

    def test_sources_fall_back_to_tail(self):
        assert sources_from_ranking((4, 2, 9), 3) == [2, 4, 9]


class TestParallelDeterminism:
    """jobs>1 must merge byte-identically to the serial loop."""

    SCHEMES = ("hdr", "source")

    @staticmethod
    def _assert_identical(serial, parallel):
        assert serial.keys() == parallel.keys()
        for scheme in serial:
            assert len(serial[scheme]) == len(parallel[scheme])
            for a, b in zip(serial[scheme], parallel[scheme]):
                assert a.same_as(b)

    def test_run_replicated_matches_serial(self, settings):
        serial = run_replicated(self.SCHEMES, settings, jobs=1)
        parallel = run_replicated(self.SCHEMES, settings, jobs=2)
        self._assert_identical(serial, parallel)

    def test_run_replicated_matches_serial_with_queries(self, settings):
        serial = run_replicated(self.SCHEMES, settings, with_queries=True,
                                jobs=1)
        parallel = run_replicated(self.SCHEMES, settings, with_queries=True,
                                  jobs=2)
        self._assert_identical(serial, parallel)

    def test_run_sweep_merge_structure(self, settings):
        points = [
            SweepPoint(settings=settings, schemes=self.SCHEMES),
            SweepPoint(settings=settings.with_(refresh_interval=7200.0),
                       schemes=("hdr",)),
        ]
        merged = run_sweep(points, jobs=2)
        assert len(merged) == 2
        assert set(merged[0]) == set(self.SCHEMES)
        assert set(merged[1]) == {"hdr"}
        for scheme, runs in merged[0].items():
            assert [m.seed for m in runs] == list(settings.seeds)
            assert all(m.scheme == scheme for m in runs)


class TestSameAs:
    def test_nan_fields_compare_equal(self):
        a = RunMetrics("hdr", 1, 0.5, 0.6, 10.0, 1.0, 0.9, 3.0)
        # distinct NaN objects, as a worker process would produce them
        # (the shared class-level NaN default hides the problem via the
        # identity shortcut in tuple comparison)
        b = RunMetrics("hdr", 1, 0.5, 0.6, 10.0, 1.0, 0.9, 3.0,
                       query_answer_ratio=float("nan"),
                       query_fresh_ratio=float("nan"))
        assert a != b  # computed NaNs break plain equality...
        assert a.same_as(b)  # ...which is exactly what same_as repairs

    def test_real_difference_detected(self):
        a = RunMetrics("hdr", 1, 0.5, 0.6, 10.0, 1.0, 0.9, 3.0)
        b = RunMetrics("hdr", 1, 0.4, 0.6, 10.0, 1.0, 0.9, 3.0)
        assert not a.same_as(b)


class TestValidatePoints:
    """Tree capacity is checked before any worker or artifact build."""

    @pytest.fixture()
    def crowded(self, settings):
        # ten caching nodes, but fanout 2 and depth 2 hold only 2 + 4 = 6
        return settings.with_(num_caching_nodes=10, fanout=2, max_depth=2)

    @pytest.mark.parametrize("scheme", ["hdr", "random"])
    def test_over_capacity_tree_scheme_rejected(self, crowded, scheme):
        with pytest.raises(ValueError) as excinfo:
            validate_points([SweepPoint(crowded, schemes=("source", scheme))])
        message = str(excinfo.value)
        assert message.startswith("sweep point 0: ")
        for key in ("num_caching_nodes = 10", "fanout = 2", "max_depth = 2",
                    "capacity 6", scheme):
            assert key in message

    def test_point_caching_count_overrides_settings(self, settings):
        narrow = settings.with_(fanout=1, max_depth=2)
        validate_points([SweepPoint(narrow, schemes=("hdr",),
                                    num_caching_nodes=2)])
        with pytest.raises(ValueError, match="num_caching_nodes = 3"):
            validate_points([SweepPoint(narrow, schemes=("hdr",),
                                        num_caching_nodes=3)])

    def test_fixed_structure_schemes_have_no_capacity(self, crowded):
        validate_points([SweepPoint(crowded,
                                    schemes=("flat", "source", "flooding"))])

    def test_explicit_config_is_checked_with_its_own_knobs(self, crowded):
        from repro.core.scheme import scheme_variant

        wide = scheme_variant("hdr", fanout=3, max_depth=3, name="hdr-wide")
        validate_points([SweepPoint(crowded, schemes=(wide,))])
        narrow = scheme_variant("hdr", fanout=1, max_depth=3,
                                name="hdr-narrow")
        with pytest.raises(ValueError, match="hdr-narrow tree capacity 3"):
            validate_points([SweepPoint(crowded, schemes=(narrow,))])
