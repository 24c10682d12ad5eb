"""Scheme wiring: assemble a full refresh simulation from a trace.

:func:`build_simulation` is the main entry point of the library.  Given
a contact trace, a data catalog, and a scheme name, it:

1. estimates pairwise contact rates from the trace (the knowledge the
   distributed estimators converge to);
2. selects the caching nodes by contact centrality (NCL selection);
3. builds the per-item refresh structure required by the scheme -- the
   rate-aware tree for HDR, a star for the flat baselines, random trees
   for the assignment ablation;
4. provisions every tree edge with relays via the probabilistic
   replication analysis, honouring each item's freshness requirement;
5. installs the protocol handlers (sources, refresh distributors, and
   optionally the query plane) and seeds version 1 everywhere so every
   scheme starts from the same warm state.

The returned :class:`SchemeRuntime` exposes the simulator, the ground
truth, the update log, and snapshot/probe helpers the metrics layer
consumes.

Schemes (:data:`SCHEMES`):

========== =========== ============ ====== ======================================
name        structure   assignment  relays  role
========== =========== ============ ====== ======================================
hdr         tree        rate-aware  yes    the paper's scheme
flat        star        --          yes    replication without hierarchy
random      tree        random      yes    hierarchy without rate-awareness
source      star        --          no     refresh only on direct source contact
flooding    epidemic    --          --     freshness upper bound / overhead worst
none        --          --          --     expiration-only floor
========== =========== ============ ====== ======================================
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from repro.caching.items import CacheEntry, DataCatalog, VersionHistory
from repro.caching.ncl import select_caching_nodes
from repro.caching.onpath import OnPathConfig, attach_onpath
from repro.caching.placement import PlacementPolicy
from repro.caching.query import QueryManager
from repro.caching.store import CacheStore, EvictionPolicy
from repro.contacts import rates as rates_module
from repro.contacts.rates import RateTable, mle_rates
from repro.core import accounting
from repro.core.accounting import AccountingVerifier, FreshnessAccountant
from repro.core.hierarchy import RefreshTree, build_tree, random_tree, star_tree
from repro.core.refresh import (
    FloodingRefreshHandler,
    HdrRefreshHandler,
    InvalidationRefreshHandler,
    RefreshUpdate,
    SourceHandler,
)
from repro.core.replication import RelayPlan, decompose_requirement, plan_edge
from repro.mobility.arrays import ContactArrays
from repro.mobility.trace import ContactTrace
from repro.obs.bus import EventBus, tee_online_listener
from repro.obs.registry import MetricsRegistry
from repro.routing.epidemic import EpidemicRouting
from repro.sim.engine import Simulator
from repro.sim.network import ContactNetwork, LinkModel
from repro.sim.node import Node
from repro.sim.stats import StatsRegistry


@dataclass(frozen=True)
class SchemeConfig:
    """Everything that defines a refresh scheme variant."""

    name: str
    structure: str  # "tree" | "star" | "flood" | "none"
    assignment: str = "rate"  # "rate" | "random"
    fanout: int = 3
    max_depth: int = 3
    max_relays: int = 5
    #: Per-node cap on relay handoffs per (item, version) -- the bounded
    #: energy/bandwidth a device devotes to one refresh round.  ``None``
    #: defaults to ``fanout * max_relays``: exactly enough for a node to
    #: fully provision the children a tree assigns it, which is the
    #: budget argument for the hierarchy (a flat star concentrates all
    #: children on the source and blows through the same cap).
    relay_budget: Optional[int] = None
    description: str = ""

    def __post_init__(self) -> None:
        if self.structure not in ("tree", "star", "flood", "invalidate", "none"):
            raise ValueError(f"unknown structure {self.structure!r}")
        if self.assignment not in ("rate", "random"):
            raise ValueError(f"unknown assignment {self.assignment!r}")
        if self.max_relays < 0:
            raise ValueError("max_relays must be >= 0")
        if self.relay_budget is not None and self.relay_budget < 0:
            raise ValueError("relay_budget must be >= 0")

    @property
    def effective_relay_budget(self) -> int:
        if self.relay_budget is not None:
            return self.relay_budget
        return self.fanout * self.max_relays


SCHEMES: dict[str, SchemeConfig] = {
    "hdr": SchemeConfig(
        name="hdr",
        structure="tree",
        assignment="rate",
        description="Hierarchical distributed refreshment (the paper's scheme).",
    ),
    "flat": SchemeConfig(
        name="flat",
        structure="star",
        max_depth=1,
        description="Probabilistic replication from the source, no hierarchy.",
    ),
    "random": SchemeConfig(
        name="random",
        structure="tree",
        assignment="random",
        description="HDR structure with random responsibility assignment.",
    ),
    "source": SchemeConfig(
        name="source",
        structure="star",
        max_depth=1,
        max_relays=0,
        description="Refresh only on direct contact with the source.",
    ),
    "flooding": SchemeConfig(
        name="flooding",
        structure="flood",
        description="Epidemic version gossip (upper bound).",
    ),
    "invalidate": SchemeConfig(
        name="invalidate",
        structure="invalidate",
        max_relays=0,
        description="Epidemic invalidation notices + direct source re-fetch "
        "(the classic cache-consistency alternative).",
    ),
    "none": SchemeConfig(
        name="none",
        structure="none",
        description="No refreshment; entries only expire.",
    ),
}


@dataclass
class SchemeRuntime(AccountingVerifier):
    """A fully wired simulation plus everything needed to measure it."""

    config: SchemeConfig
    sim: Simulator
    network: ContactNetwork
    nodes: dict[int, Node]
    catalog: DataCatalog
    history: VersionHistory
    rates: RateTable
    caching_nodes: list[int]
    sources: list[int]
    stores: dict[int, CacheStore]
    trees: dict[int, RefreshTree]
    plans: dict[tuple[int, int, int], RelayPlan]
    update_log: list[RefreshUpdate]
    stats: StatsRegistry
    query_managers: dict[int, QueryManager] = field(default_factory=dict)
    #: extra bounded stores installed on ordinary nodes by on-path caching
    onpath_stores: dict[int, CacheStore] = field(default_factory=dict)
    #: per-item caching-node subsets when a placement policy restricted
    #: replication (``None`` = full replication on every caching node)
    assignment: Optional[dict[int, tuple[int, ...]]] = None
    accountant: Optional[FreshnessAccountant] = None
    #: the :class:`~repro.obs.bus.EventBus` every instrumentation point
    #: was wired to, or ``None`` for an untraced (zero-overhead) run
    trace: Optional[EventBus] = None

    def run(self, until: Optional[float] = None) -> float:
        """Start the network and advance the simulation to ``until``."""
        return self.network.run(until=until)

    def freshness_snapshot(
        self, recompute: Optional[bool] = None
    ) -> tuple[int, int, int]:
        """``(fresh, valid, total)`` over all (caching node, item) slots.

        *Fresh* means the cached version is the source's current version
        right now; *valid* means it has not expired.  Slots with no
        entry count as neither.

        Served from the incremental :class:`FreshnessAccountant` in O(1)
        per call.  ``recompute=True`` forces the original brute-force
        O(caching_nodes x catalog) scan -- the debug path equivalence
        tests compare against; ``recompute=None`` follows the global
        :data:`repro.core.accounting.INCREMENTAL_BOOKKEEPING` switch.
        """
        if recompute is None:
            recompute = not accounting.INCREMENTAL_BOOKKEEPING
        if not recompute and self.accountant is not None:
            return self.accountant.snapshot(self.sim.now)
        online = [node_id for node_id in self.caching_nodes
                  if self.nodes[node_id].online]  # offline serves nobody
        return accounting.scan_snapshot(self.stores, online, self.catalog,
                                        self.history, self.sim.now)

    def install_freshness_probe(self, interval: float, until: float) -> None:
        """Record freshness/validity ratios every ``interval`` seconds.

        With the incremental accountant each probe is O(1) (plus lazily
        draining whatever expired since the previous probe) instead of a
        full store scan.
        """
        if interval <= 0:
            raise ValueError("interval must be positive")
        gauge_fresh = self.stats.gauge("probe.fresh_slots")
        gauge_valid = self.stats.gauge("probe.valid_slots")
        gauge_total = self.stats.gauge("probe.total_slots")

        def probe() -> None:
            fresh, valid, total = self.freshness_snapshot()
            now = self.sim.now
            gauge_fresh.set(fresh)
            gauge_valid.set(valid)
            gauge_total.set(total)
            if total:
                self.stats.series("probe.freshness").record(now, fresh / total)
                self.stats.series("probe.validity").record(now, valid / total)
            if now + interval <= until:
                self.sim.schedule_after(interval, probe)

        self.sim.schedule_at(self.sim.now + interval, probe)

    def describe(self) -> str:
        """Human-readable summary of the wiring, for logs and debugging."""
        lines = [
            f"scheme {self.config.name!r} ({self.config.structure}, "
            f"assignment={self.config.assignment})",
            f"  nodes: {len(self.nodes)}, sources: {self.sources}, "
            f"caching: {self.caching_nodes}",
            f"  items: {len(self.catalog)}, relay budget/version: "
            f"{self.config.effective_relay_budget}",
        ]
        for item_id in sorted(self.trees):
            tree = self.trees[item_id]
            planned = [
                plan for key, plan in self.plans.items() if key[0] == item_id
            ]
            met = sum(1 for plan in planned if plan.meets_target)
            lines.append(
                f"  item {item_id}: tree depth {tree.max_depth}, "
                f"{len(planned)} edges, {met} meet the hop target"
            )
            lines.append(
                "    " + tree.render().replace("\n", "\n    ")
            )
        return "\n".join(lines)

    def query_records(self):
        """All query records across nodes, ordered by issue time."""
        records = [
            record
            for manager in self.query_managers.values()
            for record in manager.records
        ]
        records.sort(key=lambda r: (r.issued_at, r.query_id))
        return records

    def refresh_overhead(self) -> float:
        """Total refresh-plane transmissions (messages)."""
        return (
            self.stats.counter_value("net.transfers.refresh")
            + self.stats.counter_value("net.transfers.refresh_relay")
            + self.stats.counter_value("net.transfers.refresh_flood")
            + self.stats.counter_value("net.transfers.invalidate")
        )

    def refresh_bytes(self) -> float:
        """Approximate refresh-plane bytes (message size x count is exact
        here because all refresh messages of an item share one size)."""
        return sum(
            t.size
            for t in self.network.transfers
            if t.kind.startswith("refresh") or t.kind == "invalidate"
        ) if self.network.record_transfers else float("nan")


def build_simulation(
    trace: "ContactTrace | ContactArrays",
    catalog: DataCatalog,
    scheme: str | SchemeConfig = "hdr",
    num_caching_nodes: int = 12,
    caching_nodes: Optional[list[int]] = None,
    rates: Optional[RateTable] = None,
    seed: int = 0,
    with_queries: bool = False,
    query_hop_limit: int = 4,
    query_ttl: float = 6 * 3600.0,
    link_model: Optional[LinkModel] = None,
    centrality_window: float = 6 * 3600.0,
    record_transfers: bool = False,
    refresh_mode: str = "periodic",
    refresh_jitter: float = 0.0,
    store_capacity: Optional[int] = None,
    eviction_policy: EvictionPolicy = EvictionPolicy.LRU,
    ncl_metric: str = "contact",
    bus: Optional[EventBus] = None,
    backend: str = "object",
    placement: Optional[PlacementPolicy] = None,
    onpath: Optional[OnPathConfig] = None,
) -> "SchemeRuntime":
    """Wire a complete refresh simulation over ``trace``.

    ``scheme`` is a name from :data:`SCHEMES` or an explicit
    :class:`SchemeConfig`.  ``caching_nodes`` overrides NCL selection
    (otherwise the top ``num_caching_nodes`` by contact centrality,
    excluding sources, are used).  ``rates`` defaults to the whole-trace
    MLE estimate.

    ``bus`` wires every instrumentation point (engine, network, stores,
    refresh handlers, query managers, churn) to an
    :class:`~repro.obs.bus.EventBus`.  Tracing is passive: it consumes
    no randomness and changes no event ordering, so a traced run
    produces metrics identical to an untraced one.  (``msg.create``
    records are scoped per run by the caller via
    :func:`repro.sim.messages.set_message_trace`, because the hook is
    process-global.)

    ``placement`` is an optional
    :class:`~repro.caching.placement.PlacementPolicy`: its
    ``select_nodes`` hook may replace NCL caching-node selection
    (geographic spread), and its ``assign`` hook may restrict which
    caching nodes replicate which item (popularity-budgeted
    cooperative caching); unassigned slots stay empty and count
    against freshness.  ``onpath`` enables LCE/LCD on-path caching of
    responses (requires ``with_queries=True``); see
    :mod:`repro.caching.onpath`.

    ``backend`` selects the execution engine: ``"object"`` (default) is
    this per-node object graph; ``"soa"`` returns a
    :class:`~repro.core.soa.SoaRuntime` driving the same protocols over
    a vectorised struct-of-arrays contact schedule (metric-identical,
    ~order-of-magnitude faster at scale, but without the query plane,
    link models, tracing or the invalidate scheme).  The soa backend
    also accepts a :class:`~repro.mobility.arrays.ContactArrays` trace
    and then builds everything array-natively.
    """
    if backend == "soa":
        from repro.core.soa import build_soa_simulation

        unsupported = []
        if with_queries:
            unsupported.append("with_queries")
        if link_model is not None:
            unsupported.append("link_model")
        if record_transfers:
            unsupported.append("record_transfers")
        if bus is not None:
            unsupported.append("bus")
        if placement is not None:
            unsupported.append("placement")
        if onpath is not None:
            unsupported.append("onpath")
        if unsupported:
            raise ValueError(
                f"the soa backend does not support {unsupported}; "
                "use backend='object'"
            )
        return build_soa_simulation(
            trace,
            catalog,
            scheme=scheme,
            num_caching_nodes=num_caching_nodes,
            caching_nodes=caching_nodes,
            rates=rates,
            seed=seed,
            centrality_window=centrality_window,
            refresh_mode=refresh_mode,
            refresh_jitter=refresh_jitter,
            store_capacity=store_capacity,
            eviction_policy=eviction_policy,
            ncl_metric=ncl_metric,
        )
    if backend != "object":
        raise ValueError(f"unknown backend {backend!r} (object|soa)")
    if not isinstance(trace, ContactTrace):
        raise ValueError(
            "the object backend needs a ContactTrace; pass "
            "trace.to_trace() or use backend='soa' for ContactArrays"
        )
    if onpath is not None and not with_queries:
        raise ValueError("onpath caching requires with_queries=True")
    config = SCHEMES[scheme] if isinstance(scheme, str) else scheme
    rng = np.random.default_rng(seed)
    stats = MetricsRegistry()
    history = VersionHistory()
    update_log: list[RefreshUpdate] = []

    if rates is None:
        rates = mle_rates(trace)
    sources = sorted({item.source for item in catalog})
    unknown_sources = [s for s in sources if s not in trace.node_ids]
    if unknown_sources:
        raise ValueError(f"catalog sources {unknown_sources} are not in the trace")

    if caching_nodes is None and placement is not None:
        caching_nodes = placement.select_nodes(
            rates, num_caching_nodes, exclude=set(sources), window=centrality_window
        )
    if caching_nodes is None:
        caching_nodes = select_caching_nodes(
            rates,
            num_caching_nodes,
            metric=ncl_metric,
            window=centrality_window,
            exclude=set(sources),
            rng=rng if ncl_metric == "random" else None,
        )
    caching_nodes = sorted(int(n) for n in caching_nodes)
    overlap = set(caching_nodes) & set(sources)
    if overlap:
        raise ValueError(f"nodes {sorted(overlap)} are both sources and caching nodes")

    assignment: Optional[dict[int, tuple[int, ...]]] = None
    if placement is not None:
        assignment = placement.assign(
            catalog, caching_nodes, rates, window=centrality_window
        )
    if assignment is not None:
        stray = {
            nid for members in assignment.values() for nid in members
        } - set(caching_nodes)
        if stray:
            raise ValueError(
                f"placement assigned non-caching nodes {sorted(stray)}"
            )

    # -- structures -------------------------------------------------------
    trees: dict[int, RefreshTree] = {}
    plans: dict[tuple[int, int, int], RelayPlan] = {}
    if config.structure in ("tree", "star"):
        for item in catalog:
            members = (
                list(assignment[item.item_id])
                if assignment is not None and item.item_id in assignment
                else caching_nodes
            )
            tree = _build_structure(config, item.source, members, rates, rng)
            trees[item.item_id] = tree
            if config.max_relays >= 0:
                _plan_tree(
                    item.item_id,
                    tree,
                    rates,
                    window=item.refresh_interval,
                    p_req=item.freshness_requirement,
                    max_relays=config.max_relays,
                    all_nodes=trace.node_ids,
                    plans=plans,
                )

    # -- nodes, network, handlers -------------------------------------------
    sim = Simulator()
    nodes = {nid: Node(nid) for nid in trace.node_ids}
    network = ContactNetwork(
        sim, nodes, trace, link_model=link_model, stats=stats,
        record_transfers=record_transfers,
    )

    stores: dict[int, CacheStore] = {
        nid: CacheStore(capacity=store_capacity, policy=eviction_policy)
        for nid in caching_nodes
    }
    # Incremental freshness accounting: mirror every store mutation,
    # publish and churn event into running fresh/valid counters.  Wired
    # before any seeding/handlers so no mutation escapes it.
    accountant = FreshnessAccountant(catalog, caching_nodes)
    for nid in caching_nodes:
        stores[nid].change_listener = accountant.store_listener(nid)
    network.add_online_listener(accountant.online_changed)
    if bus is not None:
        # Wired before seeding/handlers so the warm-start puts are traced.
        sim.trace = bus
        network.trace = bus
        network.add_online_listener(tee_online_listener(bus))
        for nid in caching_nodes:
            stores[nid].trace = bus
            stores[nid].trace_node = nid
    refresh_handlers: dict[int, HdrRefreshHandler | FloodingRefreshHandler] = {}
    if config.structure in ("tree", "star"):
        for nid, node in nodes.items():
            handler = HdrRefreshHandler(
                catalog=catalog,
                trees=trees,
                plans=plans,
                update_log=update_log,
                stats=stats,
                store=stores.get(nid),
                rates=rates,
                relay_budget=config.effective_relay_budget,
            )
            handler.trace = bus
            node.add_handler(handler)
            refresh_handlers[nid] = handler
    elif config.structure == "flood":
        for nid, node in nodes.items():
            handler = FloodingRefreshHandler(
                catalog=catalog,
                update_log=update_log,
                stats=stats,
                store=stores.get(nid),
            )
            node.add_handler(handler)
            refresh_handlers[nid] = handler
    elif config.structure == "invalidate":
        caching_set = frozenset(caching_nodes)
        for nid, node in nodes.items():
            handler = InvalidationRefreshHandler(
                catalog=catalog,
                caching_nodes=caching_set,
                update_log=update_log,
                stats=stats,
                store=stores.get(nid),
            )
            node.add_handler(handler)
            refresh_handlers[nid] = handler

    source_handlers: dict[int, SourceHandler] = {}
    for source in sources:
        handler = SourceHandler(
            items=catalog.items_of_source(source),
            history=history,
            stats=stats,
            mode=refresh_mode,
            jitter=refresh_jitter,
            rng=rng if (refresh_mode == "poisson" or refresh_jitter > 0) else None,
        )
        nodes[source].add_handler(handler)
        source_handlers[source] = handler
        # The accountant must observe the publish before the distributor
        # reacts to it (the distributor's sends mutate stores, and those
        # mutations must be judged against the new current version).
        handler.on_new_version(accountant.version_published)
        distributor = refresh_handlers.get(source)
        if distributor is not None:
            handler.on_new_version(distributor.source_published)

    # -- query plane ------------------------------------------------------------
    query_managers: dict[int, QueryManager] = {}
    onpath_stores: dict[int, CacheStore] = {}
    if with_queries:
        for nid, node in nodes.items():
            response_agent = EpidemicRouting(
                stats=stats, kinds=frozenset({"response"})
            )
            node.add_handler(response_agent)
            store = stores.get(nid)
            if onpath is not None and store is None and nid not in source_handlers:
                # Ordinary node: give it a bounded on-path store that
                # doubles as its query manager's local cache.
                store = onpath.make_store()
                onpath_stores[nid] = store
            if onpath is not None and store is not None:
                attach_onpath(response_agent, store, onpath)
            manager = QueryManager(
                catalog=catalog,
                store=store,
                hop_limit=query_hop_limit,
                query_ttl=query_ttl,
                stats=stats,
            )
            manager.trace = bus
            node.add_handler(manager)
            query_managers[nid] = manager
            source_handler = source_handlers.get(nid)
            if source_handler is not None:
                manager.add_provider(source_handler.answer_provider)

    # -- warm start: version 1 everywhere at t=0 ---------------------------------
    # (under a placement assignment, only the assigned replicas)
    for item in catalog:
        members = (
            assignment[item.item_id]
            if assignment is not None and item.item_id in assignment
            else caching_nodes
        )
        for nid in members:
            handler = refresh_handlers.get(nid)
            if handler is not None:
                handler.seed_entry(item, version=1, version_time=0.0)
            else:  # "none" scheme: seed the bare store
                stores[nid].put(
                    CacheEntry(
                        item_id=item.item_id,
                        version=1,
                        version_time=0.0,
                        cached_at=0.0,
                    ),
                    0.0,
                )

    return SchemeRuntime(
        config=config,
        sim=sim,
        network=network,
        nodes=nodes,
        catalog=catalog,
        history=history,
        rates=rates,
        caching_nodes=caching_nodes,
        sources=sources,
        stores=stores,
        trees=trees,
        plans=plans,
        update_log=update_log,
        stats=stats,
        query_managers=query_managers,
        onpath_stores=onpath_stores,
        assignment=assignment,
        accountant=accountant,
        trace=bus,
    )


def _build_structure(
    config: SchemeConfig,
    source: int,
    caching_nodes: list[int],
    rates: RateTable,
    rng: np.random.Generator,
) -> RefreshTree:
    if config.structure == "star":
        return star_tree(source, caching_nodes)
    if config.assignment == "random":
        return random_tree(
            source,
            caching_nodes,
            rng,
            fanout=config.fanout,
            max_depth=config.max_depth,
            root_fanout=config.fanout,
        )
    return build_tree(
        source,
        caching_nodes,
        rates,
        fanout=config.fanout,
        max_depth=config.max_depth,
        root_fanout=config.fanout,
    )


def _plan_tree(
    item_id: int,
    tree: RefreshTree,
    rates: RateTable,
    window: float,
    p_req: float,
    max_relays: int,
    all_nodes: tuple[int, ...],
    plans: dict[tuple[int, int, int], RelayPlan],
) -> None:
    """Provision every edge of ``tree`` with relays.

    The end-to-end freshness window (one refresh interval) and the
    freshness requirement are split evenly across the tree's depth.
    """
    depth = max(1, tree.max_depth)
    hop_window = window / depth
    hop_target = decompose_requirement(p_req, depth)
    vectorised = rates_module.VECTORISED_RATES
    if vectorised:
        all_nodes_arr = np.asarray(all_nodes, dtype=np.int64)
    for parent, child in tree.edges():
        if vectorised:
            candidates = _relay_candidates(rates, parent, child, all_nodes_arr)
        else:
            candidates = [
                (relay, rates.rate(parent, relay), rates.rate(relay, child))
                for relay in all_nodes
                if relay not in (parent, child)
            ]
        plans[(item_id, parent, child)] = plan_edge(
            parent,
            child,
            direct_rate=rates.rate(parent, child),
            relay_candidates=candidates,
            window=hop_window,
            target=hop_target,
            max_relays=max_relays,
        )


def _relay_candidates(
    rates: RateTable,
    parent: int,
    child: int,
    all_nodes_arr: np.ndarray,
) -> list[tuple[int, float, float]]:
    """Relay triples for one edge via neighbor-set intersection.

    :func:`plan_edge` keeps only relays whose two-hop probability is
    positive, which requires a positive rate on *both* legs -- so
    intersecting the two endpoints' positive-rate neighbor lists (and
    restricting to ``all_nodes``) yields the identical plan as
    enumerating every node, in O(deg) instead of O(N) per edge.
    """
    if not len(all_nodes_arr):
        return []
    up_ids, up_rates = rates.neighbor_view(parent)
    down_ids, down_rates = rates.neighbor_view(child)
    common, iu, idn = np.intersect1d(
        up_ids, down_ids, assume_unique=True, return_indices=True
    )
    keep = (common != parent) & (common != child)
    # Restrict to the node population the scalar enumeration walks (a
    # rate table may cover nodes outside the trace).
    pos = np.searchsorted(all_nodes_arr, common).clip(0, len(all_nodes_arr) - 1)
    keep &= all_nodes_arr[pos] == common
    return list(
        zip(
            common[keep].tolist(),
            up_rates[iu[keep]].tolist(),
            down_rates[idn[keep]].tolist(),
        )
    )


def scheme_variant(base: str, **overrides) -> SchemeConfig:
    """A copy of a named scheme with some fields overridden.

    Convenience for ablations, e.g.
    ``scheme_variant("hdr", max_relays=0)`` or
    ``scheme_variant("hdr", max_depth=2, name="hdr-d2")``.
    """
    config = SCHEMES[base]
    if "name" not in overrides:
        suffix = ",".join(f"{k}={v}" for k, v in sorted(overrides.items()))
        overrides["name"] = f"{base}[{suffix}]"
    return replace(config, **overrides)
