"""SoA backend equivalence tests.

The vectorised structure-of-arrays executor (``repro.core.soa``) must be
*metric-identical* to the object backend: every probe sample, message
counter, and update-log aggregate agrees field-for-field
(``RunMetrics.same_as``).  These tests pin that contract:

- an exact sweep over every SoA-supported scheme at a fixed seed;
- a hypothesis property test over random (scheme, seed) draws;
- the same identity with the event slab shrunk to a handful of events,
  forcing many slab reloads and the timestamp-alignment edge cases;
- the relay-recruitment path on a community trace, where most recruits
  are not planned relays but better carriers of the edge;
- the same recruit-heavy trace under tiny relevance windows and slabs:
  every recruitment restarts the slab after the current timestamp and
  re-materialises one window, and no window splits a timestamp;
- unsupported options (queries, tracing, the invalidate scheme) must be
  rejected loudly rather than silently ignored.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings as hsettings
from hypothesis import strategies as st

from repro.caching.items import DataCatalog
from repro.core import soa as soa_module
from repro.core.refresh import HdrRefreshHandler
from repro.experiments.config import DAY, HOUR, Settings
from repro.experiments.runner import make_trace, run_once
from repro.mobility.community import CommunityModel
from repro.sim.soa import aligned_end
from tests.conftest import run_once_capturing

#: Every scheme the SoA executor supports ("invalidate" is object-only).
SOA_SCHEMES = ("hdr", "flat", "random", "source", "flooding", "none")


def small_settings(duration_days: float = 2.0) -> Settings:
    return Settings.fast().with_(duration=duration_days * DAY)


def run_both(scheme: str, seed: int, settings: Settings):
    trace = make_trace(settings, seed)
    obj = run_once(trace, scheme, settings, seed=seed, backend="object")
    soa = run_once(trace, scheme, settings, seed=seed, backend="soa")
    return obj, soa


class TestBackendEquivalence:
    @pytest.mark.parametrize("scheme", SOA_SCHEMES)
    def test_identical_metrics_per_scheme(self, scheme):
        obj, soa = run_both(scheme, seed=3, settings=small_settings())
        assert obj.same_as(soa), f"{scheme}: SoA diverged from object backend"

    @hsettings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        scheme=st.sampled_from(SOA_SCHEMES),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_identical_metrics_random_draws(self, scheme, seed):
        obj, soa = run_both(scheme, seed=seed, settings=small_settings())
        assert obj.same_as(soa), (
            f"{scheme} seed={seed}: SoA diverged from object backend"
        )

    def test_identical_with_tiny_slabs(self, monkeypatch):
        """Shrinking the slab forces reloads mid-run; slab boundaries
        must never split a timestamp's events across batches."""
        monkeypatch.setattr(soa_module, "SLAB_EVENTS", 7)
        obj, soa = run_both("hdr", seed=1, settings=small_settings())
        assert obj.same_as(soa)

    def test_identical_without_refresh_jitter(self):
        settings = small_settings().with_(refresh_jitter=0.0)
        obj, soa = run_both("hdr", seed=2, settings=settings)
        assert obj.same_as(soa)


def community_trace(seed: int):
    """80 nodes in 4 communities over half a day, with two median-degree
    sources: sources meet caches and relays often enough that many
    non-planned nodes get recruited."""
    rng = np.random.default_rng(seed)
    model = CommunityModel(80, 4, 4e-5, 2e-6, rng)
    arrays = model.generate_arrays(0.5 * DAY, rng)
    degree = np.bincount(np.concatenate([arrays.a, arrays.b]),
                         minlength=arrays.num_nodes)
    ranked = np.argsort(-degree, kind="stable")
    sources = sorted(int(n) for n in ranked[39:41])
    settings = Settings(duration=0.5 * DAY, num_caching_nodes=12, num_items=6,
                        refresh_interval=6 * HOUR, probe_interval=1800.0)
    catalog = DataCatalog.uniform(num_items=6, sources=sources,
                                  refresh_interval=6 * HOUR, lifetime=12 * HOUR)
    return arrays, settings, catalog


def run_captured(monkeypatch, trace, settings, catalog, backend, prepare=None):
    return run_once_capturing(monkeypatch, trace, "hdr", settings, seed=1,
                              catalog=catalog, backend=backend,
                              prepare=prepare)


def nonzero_snapshot(runtime) -> dict:
    """The stats snapshot without zero counters: each backend registers
    a few counters the other never touches."""
    snapshot = runtime.stats.snapshot()
    snapshot["counters"] = {name: value
                            for name, value in snapshot["counters"].items()
                            if value}
    return snapshot


def recruited(runtime) -> float:
    return runtime.stats.counter("refresh.relays_recruited").value


@pytest.fixture
def qualified(monkeypatch):
    """Per qualifying peer the object backend meets: was it a planned relay?"""
    planned = []
    check = HdrRefreshHandler._relay_qualifies

    def record(handler, plan, target, peer_id):
        ok = check(handler, plan, target, peer_id)
        if ok:
            planned.append(peer_id in plan.relays)
        return ok

    monkeypatch.setattr(HdrRefreshHandler, "_relay_qualifies", record)
    return planned


class TestRecruitPath:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_soa_matches_object_with_recruitment(self, monkeypatch, qualified,
                                                 seed):
        arrays, settings, catalog = community_trace(seed)
        soa, soa_rt = run_captured(monkeypatch, arrays, settings, catalog,
                                   "soa")
        obj, obj_rt = run_captured(monkeypatch, arrays.to_trace(), settings,
                                   catalog, "object")
        assert obj.same_as(soa)
        assert nonzero_snapshot(obj_rt) == nonzero_snapshot(soa_rt)
        assert recruited(soa_rt) > 0
        assert not all(qualified), "no better carrier outside the plan qualified"

    def test_without_rates_only_planned_relays_qualify(self, monkeypatch,
                                                       qualified):
        arrays, settings, catalog = community_trace(1)

        def drop_rates(runtime):
            for node in runtime.nodes.values():
                for handler in node.handlers:
                    if isinstance(handler, HdrRefreshHandler):
                        handler.rates = None

        _, with_rates = run_captured(monkeypatch, arrays.to_trace(), settings,
                                     catalog, "object")
        qualified.clear()
        _, without = run_captured(monkeypatch, arrays.to_trace(), settings,
                                  catalog, "object", prepare=drop_rates)
        assert qualified and all(qualified)
        assert 0 < recruited(without) < recruited(with_rates)


class TestIncrementalRelevance:
    """Recruitment no longer re-materialises the rest of the slab: it
    restarts the slab just after T and loads one window at a time."""

    @pytest.fixture
    def observed(self, monkeypatch):
        """Count recomputes and check every window the runtime loads."""
        seen = {"recomputes": 0, "windows": 0}
        drain = soa_module.SoaRuntime._drain_deliveries
        load = soa_module.SoaRuntime._load_next_window

        def counting_drain(runtime, now):
            drain(runtime, now)
            seen["recomputes"] += runtime._recompute

        def checked_load(runtime):
            lo = runtime._wpos
            loaded = load(runtime)
            if loaded:
                seen["windows"] += 1
                times, hi = runtime._rel_times, runtime._wpos
                assert runtime._rel_time == times[lo:hi].tolist()
                assert hi - lo >= min(soa_module.WINDOW_EVENTS,
                                      len(times) - lo)
                if hi < len(times):
                    assert times[hi] != times[hi - 1], "window split T"
            return loaded

        monkeypatch.setattr(soa_module.SoaRuntime, "_drain_deliveries",
                            counting_drain)
        monkeypatch.setattr(soa_module.SoaRuntime, "_load_next_window",
                            checked_load)
        return seen

    @pytest.mark.parametrize("window, slab", [(1, None), (5, None), (3, 7)],
                             ids=["window1", "window5", "window3-slab7"])
    def test_recruit_heavy_trace_matches_object(self, monkeypatch, observed,
                                                window, slab):
        monkeypatch.setattr(soa_module, "WINDOW_EVENTS", window)
        if slab is not None:
            monkeypatch.setattr(soa_module, "SLAB_EVENTS", slab)
        arrays, settings, catalog = community_trace(1)
        soa, soa_rt = run_captured(monkeypatch, arrays, settings, catalog,
                                   "soa")
        obj, obj_rt = run_captured(monkeypatch, arrays.to_trace(), settings,
                                   catalog, "object")
        assert obj.same_as(soa)
        assert nonzero_snapshot(obj_rt) == nonzero_snapshot(soa_rt)
        assert recruited(soa_rt) > 0
        assert observed["recomputes"] > 0
        assert observed["windows"] > observed["recomputes"]
        assert (soa_rt.verify_freshness_accounting()
                == obj_rt.verify_freshness_accounting())

    def test_accounting_check_reports_both_readings(self, monkeypatch):
        arrays, settings, catalog = community_trace(2)
        _, runtime = run_captured(monkeypatch, arrays, settings, catalog,
                                  "soa")
        fresh, valid, total = runtime.verify_freshness_accounting()
        assert total > 0 and fresh > 0
        runtime.accountant._fresh_online += 1
        with pytest.raises(AssertionError,
                           match=r"incremental=.*brute-force="):
            runtime.verify_freshness_accounting()

    @hsettings(max_examples=200, deadline=None)
    @given(
        times=st.lists(st.integers(0, 8), max_size=60).map(sorted),
        relevant=st.lists(st.booleans(), min_size=60, max_size=60),
        size=st.integers(min_value=1, max_value=9),
    )
    def test_windows_never_split_a_timestamp(self, times, relevant, size):
        """Walk the relevant events in windows like ``_load_next_window``:
        each window holds at least ``size`` events (fewer only at the
        end), windows tile the relevant events in order, and no
        timestamp spans two windows."""
        time = np.asarray(times, dtype=np.float64)
        rel_times = time[np.flatnonzero(relevant[:len(times)])]
        lo, windows = 0, []
        while lo < len(rel_times):
            hi = aligned_end(rel_times, lo, size)
            assert hi >= min(lo + size, len(rel_times))
            windows.append(rel_times[lo:hi])
            lo = hi
        assert (np.concatenate(windows).tolist() if windows else []
                ) == rel_times.tolist()
        for before, after in zip(windows, windows[1:]):
            assert before[-1] < after[0]
        for window in windows[:-1]:
            # minimal: the window only grew past ``size`` to finish a T
            assert np.all(window[size - 1:] == window[-1])


class TestBackendValidation:
    def test_unknown_backend_rejected(self):
        settings = small_settings()
        trace = make_trace(settings, 1)
        with pytest.raises(ValueError, match="backend"):
            run_once(trace, "hdr", settings, seed=1, backend="gpu")

    def test_queries_rejected_on_soa(self):
        settings = small_settings()
        trace = make_trace(settings, 1)
        with pytest.raises(ValueError, match="quer"):
            run_once(trace, "hdr", settings, seed=1, backend="soa",
                     with_queries=True)

    def test_invalidate_scheme_rejected_on_soa(self):
        settings = small_settings()
        trace = make_trace(settings, 1)
        with pytest.raises(ValueError):
            run_once(trace, "invalidate", settings, seed=1, backend="soa")
