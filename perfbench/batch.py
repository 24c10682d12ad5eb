"""The batch workloads: synthesis -> estimation -> construction -> run
-> score, timed call by call from outside the program.

One repetition runs in one forked child (see ``worker.py``), so its
peak RSS belongs to it alone and no in-process cache carries over
from an earlier repetition.  The parent (``run.py``) decides how many
repetitions to make and with which trace seeds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from measure import Checks
from repro.analysis.metrics import freshness_summary, judge_queries, refresh_outcomes
from repro.caching.items import DataCatalog
from repro.contacts.centrality import contact_centrality, rank_nodes
from repro.contacts.rates import mle_rates
from repro.core.scheme import build_simulation
from repro.experiments.artifacts import SOURCE_RANKING_WINDOW, sources_from_ranking
from repro.experiments.config import DAY, HOUR, Settings
from repro.experiments.runner import RunMetrics, make_catalog, make_trace, run_once
from repro.mobility.calibration import get_profile
from repro.mobility.community import CommunityModel
from repro.workloads.popularity import ZipfPopularity
from repro.workloads.queries import schedule_queries
from speed import ScaledClock
from tracing import Sampler, SpanRecorder


@dataclass(frozen=True)
class CommunitySpec:
    """A community-structured trace with the refresh protocol busy: many
    items, short refresh intervals and a full depth-3 tree."""

    nodes: int = 300
    communities: int = 12
    intra_rate: float = 4e-5
    inter_rate: float = 2e-6
    days: float = 1.0
    #: the tree capacity at fanout 3 and depth 3
    caching_nodes: int = 39
    items: int = 24
    sources: int = 4
    refresh_interval: float = 6 * HOUR
    lifetime: float = 12 * HOUR
    refresh_jitter: float = 0.25
    probe_interval: float = 1800.0
    warmup_fraction: float = 0.1

    @property
    def horizon(self) -> float:
        return self.days * DAY


SIZES = ("full", "tiny")

COMMUNITY = {
    "full": CommunitySpec(),
    "tiny": CommunitySpec(nodes=80, communities=4, days=0.5,
                          caching_nodes=12, items=6, sources=2),
}

#: the paper's own setup, shortened to a week so one repetition takes
#: seconds.  Not shorter: a refresh every 24 h with 25 % jitter makes
#: the number of updates in a 3-day run jump by whole updates, and the
#: refresh deliveries of one trace then vary 3-4 times as much
REALITY = {
    "full": Settings().with_(duration=7 * DAY),
    "tiny": Settings().with_(duration=2 * DAY),
}
#: ``reality-queries`` runs on one contact trace, its data set, as the
#: paper runs on the one Reality trace; a repetition's seed draws the
#: refresh jitter and the query traffic.  With a fresh trace each time,
#: the refresh work of a run would follow which two sources that trace
#: makes, and ``deliveries_per_s`` would vary several times as much
REALITY_TRACE_SEED = 1

BACKEND = {"community-soa": "soa", "community-object": "object"}
#: the run phase is timed in this many equal slices of simulated time, so
#: the parent can take each slice's fastest time over repeated runs
RUN_SLICES = 16
BATCH_WORKLOADS = ("community-soa", "community-object", "reality-queries")


def median_degree_sources(a: np.ndarray, b: np.ndarray, num_nodes: int,
                          count: int) -> list[int]:
    """``count`` nodes from the middle of the contact-degree ranking:
    ordinary devices, neither hubs nor stragglers."""
    degree = np.bincount(a, minlength=num_nodes) + np.bincount(b, minlength=num_nodes)
    ranked = np.argsort(-degree, kind="stable")
    start = len(ranked) // 2 - count // 2
    return sorted(int(n) for n in ranked[start:start + count])


def brute_force_snapshot(runtime) -> tuple[int, int, int]:
    """``(fresh, valid, total)`` by scanning every caching store; the
    reference for the soa backend's incremental accountant (which has no
    ``verify_freshness_accounting``).  The soa backend has no churn, so
    every caching node is online."""
    now = runtime.sim.now
    fresh = valid = total = 0
    for node in runtime.caching_nodes:
        store = runtime.stores[node]
        for item in runtime.catalog:
            total += 1
            entry = store.peek(item.item_id)
            if entry is None:
                continue
            valid += not entry.expired(now, item)
            fresh += runtime.history.is_fresh(item.item_id, entry.version, now)
    return fresh, valid, total


def accounting_agrees(runtime, backend: str) -> bool:
    if backend == "object":
        try:
            runtime.verify_freshness_accounting()
        except AssertionError:
            return False
        return True
    return runtime.freshness_snapshot() == brute_force_snapshot(runtime)


def score(runtime, catalog, horizon: float, warmup_fraction: float, seed: int,
          with_queries: bool):
    """Score a finished run the way ``run_once`` does; returns the
    :class:`RunMetrics` and the refresh outcomes behind it."""
    fresh = freshness_summary(runtime, t0=warmup_fraction * horizon, t1=horizon)
    refresh = refresh_outcomes(
        runtime.update_log, runtime.history, catalog, runtime.caching_nodes,
        horizon=horizon, messages=runtime.refresh_overhead(),
    )
    metrics = RunMetrics(
        scheme=runtime.config.name, seed=seed,
        freshness=fresh.freshness, validity=fresh.validity,
        messages=refresh.messages,
        messages_per_update=refresh.messages_per_update,
        on_time_ratio=refresh.on_time_ratio, refresh_delay=refresh.mean_delay,
    )
    if with_queries:
        outcomes = judge_queries(runtime.query_records(), runtime.history, catalog)
        metrics.queries_issued = outcomes.issued
        metrics.query_answer_ratio = outcomes.answer_ratio
        metrics.query_fresh_ratio = outcomes.fresh_ratio
        metrics.query_valid_ratio = outcomes.valid_ratio
        metrics.query_validity_e2e = outcomes.end_to_end_validity
        metrics.query_delay = outcomes.mean_delay
    return metrics, refresh


@contextlib.contextmanager
def phase(rec: SpanRecorder, clock: ScaledClock | None, name: str):
    """A span around one phase; with a clock, the phase's CPU time is
    also rescaled (``scaled_s``) once the span has closed."""
    with rec.span(name) as timing:
        yield timing
    if clock is not None:
        timing["scaled_s"] = clock.scale(timing["cpu_s"])


def _community_build(spec: CommunitySpec, seed: int, backend: str, rec: SpanRecorder,
                     clock: ScaledClock | None):
    with phase(rec, clock, "mobility.synthesize") as synth:
        rng = np.random.default_rng(seed)
        model = CommunityModel(spec.nodes, spec.communities, spec.intra_rate,
                               spec.inter_rate, rng)
        arrays = model.generate_arrays(spec.horizon, rng)
        trace = arrays if backend == "soa" else arrays.to_trace()
    with phase(rec, clock, "contacts.mle_rates") as estimate:
        rates = mle_rates(trace)
    with phase(rec, clock, "core.build_simulation") as construct:
        sources = median_degree_sources(arrays.a, arrays.b, arrays.num_nodes,
                                        spec.sources)
        catalog = DataCatalog.uniform(
            num_items=spec.items, sources=sources,
            refresh_interval=spec.refresh_interval, lifetime=spec.lifetime,
        )
        runtime = build_simulation(
            trace, catalog, scheme="hdr", num_caching_nodes=spec.caching_nodes,
            rates=rates, seed=seed, refresh_jitter=spec.refresh_jitter,
            backend=backend,
        )
        runtime.install_freshness_probe(interval=spec.probe_interval,
                                        until=spec.horizon)
    return trace, catalog, runtime, (synth, estimate, construct)


def _reality_build(settings: Settings, seed: int, rec: SpanRecorder,
                   clock: ScaledClock | None):
    with phase(rec, clock, "mobility.synthesize") as synth:
        trace = get_profile(settings.profile).generate(
            np.random.default_rng(REALITY_TRACE_SEED), duration=settings.duration)
    with phase(rec, clock, "contacts.estimate") as estimate:
        with rec.span("contacts.mle_rates"):
            rates = mle_rates(trace)
        with rec.span("contacts.centrality"):
            ranking = rank_nodes(contact_centrality(rates, window=SOURCE_RANKING_WINDOW))
        sources = sources_from_ranking(tuple(ranking), settings.num_sources)
    with phase(rec, clock, "core.build_simulation") as construct:
        catalog = make_catalog(settings, sources)
        runtime = build_simulation(
            trace, catalog, scheme="hdr",
            num_caching_nodes=settings.num_caching_nodes, rates=rates,
            seed=seed, with_queries=True,
            refresh_jitter=settings.refresh_jitter,
        )
        runtime.install_freshness_probe(interval=settings.probe_interval,
                                        until=settings.duration)
        with rec.span("workloads.schedule_queries"):
            schedule_queries(
                runtime, rate_per_node=settings.query_rate,
                duration=settings.duration,
                rng=np.random.default_rng(seed * 7919 + 17),
                popularity=ZipfPopularity(catalog.item_ids, s=settings.zipf_exponent),
            )
    return trace, catalog, runtime, (synth, estimate, construct)


def run_repetition(workload: str, seed: int, size: str = "full",
                   traced: bool = False, backend: str | None = None,
                   slices: int = RUN_SLICES) -> dict:
    """One full pipeline; returns timings, counts, checks and metrics.

    ``backend`` overrides the workload's own backend (the cross-backend
    check of the community workloads uses it).  The run phase advances
    the simulation to the horizon in ``slices`` calls of ``run(until=)``.
    An untraced repetition rescales the CPU time of every phase and slice
    to the reference speed (``speed.py``); a traced one runs no
    reference loop, so its profile holds only the program.
    """
    rec = SpanRecorder(f"{workload}-{seed}", enabled=traced)
    checks = Checks()
    with rec.span("batch.result") as result:
        clock = None if traced else ScaledClock()
        if workload == "reality-queries":
            backend = "object"
            settings = REALITY[size]
            horizon, warmup = settings.duration, settings.warmup_fraction
            trace, catalog, runtime, phases = _reality_build(settings, seed, rec, clock)
        else:
            backend = backend or BACKEND[workload]
            spec = COMMUNITY[size]
            horizon, warmup = spec.horizon, spec.warmup_fraction
            trace, catalog, runtime, phases = _community_build(spec, seed, backend, rec, clock)
        with rec.span("core.run") as run:
            with Sampler() if traced else contextlib.nullcontext() as sampler:
                run_scaled_s = 0.0
                for k in range(1, slices + 1):
                    cpu_start = time.thread_time()
                    runtime.run(until=horizon if k == slices else horizon * k / slices)
                    if clock is not None:
                        run_scaled_s += clock.scale(time.thread_time() - cpu_start)
        with phase(rec, clock, "analysis.score") as scored:
            metrics, refresh = score(runtime, catalog, horizon, warmup, seed,
                                     with_queries=workload == "reality-queries")
    events = runtime.events_processed if backend == "soa" else runtime.sim.events_executed
    deliveries = refresh.delivered_on_time + refresh.delivered_late
    checks.check("refresh messages > 0", metrics.messages > 0)
    checks.check("probe freshness > 0", metrics.freshness > 0)
    checks.check("freshness accounting agrees", accounting_agrees(runtime, backend))
    if workload == "reality-queries":
        checks.check("queries issued > 0", metrics.queries_issued > 0)
        checks.check("queries answered > 0", metrics.query_answer_ratio > 0)
    synth, estimate, construct = phases
    timings = {
        "synth_s": synth["seconds"],
        "estimate_s": estimate["seconds"],
        "construct_s": construct["seconds"],
        "setup_s": synth["seconds"] + estimate["seconds"] + construct["seconds"],
        "run_s": run["seconds"],
        "score_s": scored["seconds"],
        # the reference loops are not part of the result
        "result_s": result["seconds"] - (clock.reference_wall_s if clock else 0.0),
    }
    if clock is not None:
        # the end-to-end times: CPU seconds of this (the only) thread,
        # rescaled to the reference speed
        setup_scaled_s = synth["scaled_s"] + estimate["scaled_s"] + construct["scaled_s"]
        timings.update({
            "setup_scaled_s": setup_scaled_s,
            "run_scaled_s": run_scaled_s,
            "result_scaled_s": setup_scaled_s + run_scaled_s + scored["scaled_s"],
        })
    out = {
        "workload": workload,
        "backend": backend,
        "seed": seed,
        "timings": timings,
        "counts": {
            "contacts": len(trace),
            "events": int(events),
            "messages": metrics.messages,
            "deliveries": deliveries,
            "on_time": refresh.delivered_on_time,
        },
        "metrics": dataclasses.asdict(metrics),
        "checks": dataclasses.asdict(checks),
        "spans": rec.spans,
    }
    if traced:
        out["profile"] = dict(sampler.counts)
    return out


def run_oracle(workload: str, seed: int, size: str = "full") -> dict:
    """The reference result the repetition on ``seed`` must equal.

    Community workloads: the same pipeline on the other backend.
    ``reality-queries``: the repository's own ``run_once`` on the
    profile's trace, with its own source selection and estimation.
    """
    if workload == "reality-queries":
        settings = REALITY[size]
        metrics = run_once(make_trace(settings, REALITY_TRACE_SEED), "hdr", settings,
                           seed, with_queries=True)
        return {"metrics": dataclasses.asdict(metrics),
                "checks": dataclasses.asdict(Checks())}
    other = "object" if BACKEND[workload] == "soa" else "soa"
    # in one slice, so the check also covers the slicing of the run phase
    rep = run_repetition(workload, seed, size, backend=other, slices=1)
    return {"metrics": rep["metrics"], "checks": rep["checks"]}


def same_metrics(mine: dict, theirs: dict) -> bool:
    """``RunMetrics.same_as`` on two JSON-decoded metric dicts."""
    return RunMetrics(**mine).same_as(RunMetrics(**theirs))
