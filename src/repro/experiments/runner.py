"""Shared machinery for running scheme-comparison experiments.

``run_once`` wires and runs one (trace, scheme) simulation and collects
every metric the tables need into a :class:`RunMetrics`.
``run_replicated`` repeats that across seeds -- each seed generates its
own trace realisation, and all schemes of a seed share that trace and
the same pre-scheduled query workload, the paper-style paired
comparison.

Replication fans out through :mod:`repro.experiments.parallel`: pass
``jobs`` (or set ``REPRO_JOBS``) to run the independent (seed, scheme)
simulations on a process pool; ``jobs=1`` is the serial fallback and
parallel output is identical to it.  The per-seed trace, MLE rates and
centrality ranking are computed once per seed and shared across all
schemes via :mod:`repro.experiments.artifacts`.
"""

from __future__ import annotations

import dataclasses
import math
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.analysis.metrics import freshness_summary, judge_queries, refresh_outcomes
from repro.caching.items import DataCatalog
from repro.contacts.centrality import contact_centrality, rank_nodes
from repro.contacts.rates import RateTable, mle_rates
from repro.core.hierarchy import tree_capacity
from repro.core.scheme import (
    SCHEMES,
    SchemeConfig,
    build_simulation,
    scheme_variant,
)
from repro.experiments.artifacts import (
    SOURCE_RANKING_WINDOW,
    artifacts_for_trace,
    seed_artifacts,
    sources_from_ranking,
)
from repro.experiments.config import Settings
from repro.mobility.trace import ContactTrace
from repro.workloads.cycles import QueryCycle, schedule_cycle_queries
from repro.workloads.popularity import ZipfPopularity
from repro.workloads.queries import schedule_queries

if TYPE_CHECKING:  # pragma: no cover
    from repro.caching.onpath import OnPathConfig
    from repro.caching.placement import PlacementPolicy


@dataclass
class RunMetrics:
    """Everything one simulation run reports."""

    scheme: str
    seed: int
    freshness: float
    validity: float
    messages: float
    messages_per_update: float
    on_time_ratio: float
    refresh_delay: float
    queries_issued: int = 0
    query_answer_ratio: float = float("nan")
    query_fresh_ratio: float = float("nan")
    query_valid_ratio: float = float("nan")
    query_validity_e2e: float = float("nan")
    query_delay: float = float("nan")

    def same_as(self, other: "RunMetrics") -> bool:
        """Exact field-by-field equality, treating NaN == NaN as true.

        Plain dataclass ``==`` is always false for runs without queries
        (the ``query_*`` fields default to NaN); this is the comparison
        the parallel-vs-serial determinism guarantee is stated in.
        """
        if not isinstance(other, RunMetrics):
            return NotImplemented
        for mine, theirs in zip(dataclasses.astuple(self),
                                dataclasses.astuple(other)):
            if mine != theirs and not (
                isinstance(mine, float) and isinstance(theirs, float)
                and math.isnan(mine) and math.isnan(theirs)
            ):
                return False
        return True


@dataclass
class ExperimentResult:
    """A reproduced table/figure: formatted text plus raw data."""

    exp_id: str
    title: str
    text: str
    data: dict = field(default_factory=dict)
    notes: str = ""

    def __str__(self) -> str:
        parts = [f"== {self.exp_id}: {self.title} ==", self.text]
        if self.notes:
            parts.append(self.notes)
        return "\n".join(parts)


def analytic_on_time(runtime) -> float:
    """Analytical end-to-end on-time refresh prediction of a wired runtime.

    For every (item, caching node), multiplies the planned per-hop
    delivery probabilities along the node's path to the source -- hops
    are provisioned independently, so the product is the planned
    probability that a new version reaches the node within its freshness
    window.  Returns the mean over all (item, node) pairs.
    """
    import math

    products = []
    for item_id, tree in runtime.trees.items():
        for node in tree.members:
            prob = 1.0
            path = tree.path_to_root(node)
            for child, parent in zip(path, path[1:]):
                plan = runtime.plans.get((item_id, parent, child))
                prob *= plan.achieved if plan is not None else 0.0
            products.append(prob)
    return sum(products) / len(products) if products else math.nan


#: :class:`Settings` knobs that shape the HDR-family refresh trees
TREE_KNOBS = ("fanout", "max_depth", "max_relays")


def configure_scheme(scheme: str | SchemeConfig,
                     settings: Settings) -> str | SchemeConfig:
    """The scheme a run uses under ``settings``' tree knobs.

    ``settings.fanout``, ``max_depth`` and ``max_relays`` reshape the
    tree-structured registry schemes (``hdr``, ``random``).  ``source``,
    ``flat`` and ``flooding`` keep their fixed structure, and an explicit
    :class:`SchemeConfig` carries its own knobs.  When the settings
    equal the scheme's own values the name comes back unchanged, so
    default runs stay byte-identical; otherwise the variant keeps the
    scheme's name, which is what sweep results are keyed by.

    >>> configure_scheme("hdr", Settings())
    'hdr'
    >>> config = configure_scheme("hdr", Settings(fanout=2))
    >>> config.name, config.fanout, config.max_depth
    ('hdr', 2, 3)
    >>> configure_scheme("flat", Settings(fanout=2))
    'flat'
    """
    config = SCHEMES.get(scheme) if isinstance(scheme, str) else None
    if config is None or config.structure != "tree":
        return scheme
    overrides = {knob: getattr(settings, knob) for knob in TREE_KNOBS
                 if getattr(settings, knob) != getattr(config, knob)}
    if not overrides:
        return scheme
    return scheme_variant(scheme, name=scheme, **overrides)


def tree_capacity_problem(scheme: str | SchemeConfig, settings: Settings,
                          num_caching_nodes: Optional[int] = None
                          ) -> Optional[str]:
    """Why ``scheme`` cannot build its refresh trees under ``settings``,
    or ``None`` if every caching node fits.

    Only tree-structured schemes have a capacity; their fanout and depth
    are the ones :func:`configure_scheme` gives the run.
    ``num_caching_nodes`` overrides the settings' count.

    >>> tree_capacity_problem("hdr", Settings(num_caching_nodes=10, fanout=2,
    ...                                       max_depth=2))
    'num_caching_nodes = 10 exceeds the hdr tree capacity 6 (fanout = 2, max_depth = 2)'
    >>> tree_capacity_problem("flat", Settings(num_caching_nodes=10, fanout=2,
    ...                                        max_depth=2)) is None
    True
    """
    config = configure_scheme(scheme, settings)
    if isinstance(config, str):
        config = SCHEMES[config]
    if config.structure != "tree":
        return None
    count = num_caching_nodes or settings.num_caching_nodes
    capacity = tree_capacity(config.fanout, config.max_depth)
    if count <= capacity:
        return None
    return (f"num_caching_nodes = {count} exceeds the {config.name} tree "
            f"capacity {capacity} (fanout = {config.fanout}, "
            f"max_depth = {config.max_depth})")


def make_trace(settings: Settings, seed: int) -> ContactTrace:
    """One trace realisation of the settings' profile.

    Served from the per-seed artifact cache: repeated calls with the
    same ``(profile, duration, seed)`` return the same (deterministic)
    trace object without regenerating it.
    """
    return seed_artifacts(settings, seed).trace


def choose_sources(trace: ContactTrace, settings: Settings) -> list[int]:
    """Pick the source nodes: median-centrality devices.

    Sources are ordinary members of the network -- neither the social
    hubs (those become caching nodes) nor isolated stragglers (a source
    nobody meets starves every scheme equally but mostly measures the
    trace, not the scheme).  Taking nodes from the middle of the
    centrality ranking is deterministic and portable across traces.

    When ``trace`` came out of the artifact cache the cached centrality
    ranking is reused; otherwise the ranking is derived here.
    """
    artifacts = artifacts_for_trace(trace)
    if artifacts is not None:
        return artifacts.sources(settings.num_sources)
    rates = mle_rates(trace)
    scores = contact_centrality(rates, window=SOURCE_RANKING_WINDOW)
    return sources_from_ranking(tuple(rank_nodes(scores)), settings.num_sources)


def make_catalog(settings: Settings, sources: Sequence[int]) -> DataCatalog:
    return DataCatalog.uniform(
        num_items=settings.num_items,
        sources=list(sources),
        refresh_interval=settings.refresh_interval,
        lifetime=settings.lifetime,
        size=settings.item_size,
        freshness_requirement=settings.freshness_requirement,
    )


class TraceSink:
    """Allocates per-job trace files under one user-requested path.

    ``repro run E4 --trace out.jsonl`` may execute many (point, seed,
    scheme) jobs; each gets its own JSONL file next to ``out.jsonl``
    (``out-p0-s1-hdr.jsonl`` ...), and :meth:`finalize` either renames a
    single file to the requested path or writes ``out.manifest.json``
    indexing them all (:func:`repro.obs.export.load_trace` merges a
    manifest transparently).
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.entries: list[dict] = []
        #: the path ``finalize`` produced: the single trace file or the
        #: manifest (``None`` until finalized, or if nothing was traced)
        self.output: Optional[Path] = None

    def allocate(self, point: int, seed: int, scheme: "str | SchemeConfig") -> Path:
        """Reserve the trace file for one (point, seed, scheme) job."""
        name = scheme if isinstance(scheme, str) else scheme.name
        safe = re.sub(r"[^A-Za-z0-9_.-]+", "-", name).strip("-") or "scheme"
        stem = self.path.stem or "trace"
        taken = {entry["path"] for entry in self.entries}
        base = f"{stem}-p{point}-s{seed}-{safe}"
        file_name = f"{base}.jsonl"
        suffix = 2
        while file_name in taken:
            file_name = f"{base}-{suffix}.jsonl"
            suffix += 1
        self.entries.append(
            {"point": point, "seed": seed, "scheme": name, "path": file_name}
        )
        return self.path.parent / file_name

    def finalize(self) -> Optional[Path]:
        """Rename a lone trace to the requested path, or write the manifest."""
        from repro.obs.export import write_manifest

        if not self.entries:
            return None
        if len(self.entries) == 1:
            only = self.path.parent / self.entries[0]["path"]
            if only.exists() and only != self.path:
                os.replace(only, self.path)
            self.output = self.path
            return self.output
        for entry in self.entries:
            file_path = self.path.parent / entry["path"]
            if file_path.exists():
                with open(file_path, "r", encoding="utf-8") as handle:
                    entry["records"] = sum(1 for line in handle if line.strip())
        manifest = self.path.with_name(f"{self.path.stem}.manifest.json")
        write_manifest(manifest, self.entries)
        self.output = manifest
        return self.output


#: The active sink, set by :func:`trace_output`.  ``run_once`` (serial)
#: and ``build_jobs`` (parallel) allocate their per-job trace files from
#: it, which is how ``--trace`` reaches every experiment without
#: threading a parameter through each experiment's signature.
_TRACE_SINK: Optional[TraceSink] = None

#: The active fault plan, set by :func:`fault_injection`.  Resolved by
#: ``run_once`` (serial) and ``build_jobs`` (parallel jobs carry the
#: resolved plan in their spec) -- the same pattern as ``_TRACE_SINK``,
#: and how ``--faults plan.toml`` reaches every experiment.
_FAULT_PLAN = None


@contextmanager
def fault_injection(plan):
    """Inject the :class:`~repro.faults.plan.FaultPlan` into every
    simulation run in the with-block.

    Baseline guarantee: a ``None`` (or null) plan installs nothing, so
    runs inside the block are bit-identical to runs outside it.  Not
    reentrant; an explicit ``fault_plan=`` argument (or a sweep point's
    own plan) takes precedence over the ambient one.
    """
    global _FAULT_PLAN
    if _FAULT_PLAN is not None:
        raise RuntimeError("fault_injection() is not reentrant")
    if plan is not None:
        plan.validate()
    _FAULT_PLAN = plan
    try:
        yield plan
    finally:
        _FAULT_PLAN = None


@contextmanager
def trace_output(path: str | Path):
    """Trace every simulation run in the with-block to JSONL files.

    Yields the :class:`TraceSink`; on exit the sink finalizes (single
    file renamed to ``path``, or a ``*.manifest.json`` written next to
    it).  Not reentrant; worker processes never see the parent's sink
    (jobs carry explicit paths instead).
    """
    global _TRACE_SINK
    if _TRACE_SINK is not None:
        raise RuntimeError("trace_output() is not reentrant")
    sink = TraceSink(path)
    _TRACE_SINK = sink
    try:
        yield sink
    finally:
        _TRACE_SINK = None
        sink.finalize()


def run_once(
    trace: ContactTrace,
    scheme: str | SchemeConfig,
    settings: Settings,
    seed: int,
    with_queries: bool = False,
    catalog: Optional[DataCatalog] = None,
    num_caching_nodes: Optional[int] = None,
    rates: Optional[RateTable] = None,
    trace_path: Optional[str | Path] = None,
    fault_plan=None,
    backend: str = "object",
    placement: "Optional[PlacementPolicy]" = None,
    onpath: "Optional[OnPathConfig]" = None,
    cycle: Optional[QueryCycle] = None,
) -> RunMetrics:
    """Wire, run and score one simulation.

    ``rates`` short-circuits the whole-trace MLE estimation inside
    :func:`build_simulation`; pass the cached per-seed estimate when the
    same trace is run under several schemes.

    ``trace_path`` writes the run's full event trace (JSONL) there; when
    omitted but a :func:`trace_output` sink is active, a per-job file is
    allocated from the sink.  Tracing is passive -- the returned metrics
    are identical to an untraced run's.

    ``fault_plan`` installs a :class:`~repro.faults.plan.FaultPlan`
    before the run (falling back to an active :func:`fault_injection`
    context); ``None``/null plans install nothing and leave the run
    bit-identical.

    ``backend="soa"`` runs the vectorised struct-of-arrays engine --
    metric-identical to the object graph but without queries, tracing
    or fault injection (those raise).

    ``placement`` restricts replication via a
    :class:`~repro.caching.placement.PlacementPolicy`; ``onpath``
    enables LCE/LCD response caching; ``cycle`` replaces the flat
    Poisson query process with an inhomogeneous one (diurnal and/or
    flash-crowd).  All three default off and leave default runs
    bit-identical; ``onpath`` and ``cycle`` require
    ``with_queries=True``.
    """
    if cycle is not None and not with_queries:
        raise ValueError("a query cycle requires with_queries=True")
    if catalog is None:
        catalog = make_catalog(settings, choose_sources(trace, settings))
    if trace_path is None and _TRACE_SINK is not None:
        trace_path = _TRACE_SINK.allocate(0, seed, scheme)
    if fault_plan is None:
        fault_plan = _FAULT_PLAN
    if backend == "soa":
        unsupported = []
        if with_queries:
            unsupported.append("queries")
        if trace_path is not None:
            unsupported.append("tracing")
        if fault_plan is not None:
            unsupported.append("fault injection")
        if placement is not None:
            unsupported.append("placement")
        if onpath is not None:
            unsupported.append("onpath caching")
        if unsupported:
            raise ValueError(
                f"the soa backend does not support {', '.join(unsupported)}; "
                "use backend='object'"
            )
    bus = None
    if trace_path is not None:
        from repro.obs.bus import EventBus
        from repro.sim.messages import set_message_trace

        bus = EventBus()
        # The msg.create hook is process-global (Message construction
        # sites are spread across every protocol); scope it to this run.
        set_message_trace(bus)
    try:
        runtime = build_simulation(
            trace,
            catalog,
            scheme=configure_scheme(scheme, settings),
            num_caching_nodes=num_caching_nodes or settings.num_caching_nodes,
            rates=rates,
            seed=seed,
            with_queries=with_queries,
            refresh_jitter=settings.refresh_jitter,
            bus=bus,
            backend=backend,
            placement=placement,
            onpath=onpath,
        )
        horizon = settings.duration
        if fault_plan is not None:
            from repro.faults.injectors import install_faults

            install_faults(runtime, fault_plan, seed=seed, until=horizon)
        runtime.install_freshness_probe(interval=settings.probe_interval, until=horizon)
        if with_queries:
            popularity = ZipfPopularity(catalog.item_ids, s=settings.zipf_exponent)
            if cycle is not None:
                schedule_cycle_queries(
                    runtime,
                    rate_per_node=settings.query_rate,
                    duration=horizon,
                    rng=np.random.default_rng(seed * 7919 + 17),
                    cycle=cycle,
                    popularity=popularity,
                )
            else:
                schedule_queries(
                    runtime,
                    rate_per_node=settings.query_rate,
                    duration=horizon,
                    rng=np.random.default_rng(seed * 7919 + 17),
                    popularity=popularity,
                )
        runtime.run(until=horizon)
    finally:
        if bus is not None:
            from repro.sim.messages import set_message_trace

            set_message_trace(None)
    if bus is not None:
        from repro.obs.export import write_jsonl

        write_jsonl(bus.records, trace_path)

    warmup = settings.warmup_fraction * horizon
    fresh = freshness_summary(runtime, t0=warmup, t1=horizon)
    refresh = refresh_outcomes(
        runtime.update_log,
        runtime.history,
        catalog,
        runtime.caching_nodes,
        horizon=horizon,
        messages=runtime.refresh_overhead(),
    )
    metrics = RunMetrics(
        scheme=runtime.config.name,
        seed=seed,
        freshness=fresh.freshness,
        validity=fresh.validity,
        messages=refresh.messages,
        messages_per_update=refresh.messages_per_update,
        on_time_ratio=refresh.on_time_ratio,
        refresh_delay=refresh.mean_delay,
    )
    if with_queries:
        outcomes = judge_queries(runtime.query_records(), runtime.history, catalog)
        metrics.queries_issued = outcomes.issued
        metrics.query_answer_ratio = outcomes.answer_ratio
        metrics.query_fresh_ratio = outcomes.fresh_ratio
        metrics.query_valid_ratio = outcomes.valid_ratio
        metrics.query_validity_e2e = outcomes.end_to_end_validity
        metrics.query_delay = outcomes.mean_delay
    return metrics


def run_replicated(
    schemes: Sequence[str | SchemeConfig],
    settings: Settings,
    with_queries: bool = False,
    num_caching_nodes: Optional[int] = None,
    jobs: Optional[int] = None,
) -> dict[str, list[RunMetrics]]:
    """Run every scheme on every seed's trace; paired across schemes.

    ``jobs`` selects the worker count (``None`` falls back to
    ``$REPRO_JOBS``, then serial); any parallel run merges to exactly
    the structure the serial loop builds.
    """
    from repro.experiments.parallel import SweepPoint, run_sweep

    point = SweepPoint(
        settings=settings,
        schemes=tuple(schemes),
        with_queries=with_queries,
        num_caching_nodes=num_caching_nodes,
    )
    return run_sweep([point], jobs=jobs)[0]
