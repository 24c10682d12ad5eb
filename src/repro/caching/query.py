"""Query dissemination and response delivery.

Data access works in two legs:

1. **Query flood** -- the requester's :class:`QueryManager` propagates a
   small query message epidemically (bounded by a hop budget and a TTL)
   until it reaches a node that can answer: a caching node holding the
   item, or the item's source.
2. **Response routing** -- the answering node builds a response carrying
   the version it holds and hands it to its routing agent addressed to
   the requester.

The requester keeps a :class:`QueryRecord` per query; whether the served
version was *fresh* or *valid* is judged afterwards by the metrics layer
against the ground-truth :class:`~repro.caching.items.VersionHistory`
(nodes themselves cannot know the source's current version -- that is
the whole problem the paper addresses).

Answer lookup is provider-based: by default a node answers from its
cache store; the refresh schemes register an authoritative provider on
source nodes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

from repro.caching.items import DataCatalog
from repro.caching.store import CacheStore
from repro.obs.records import QueryComplete, QueryHit, QueryIssue, QueryMiss

from repro.routing.base import RoutingAgent
from repro.sim.messages import Message
from repro.sim.node import Node, ProtocolHandler
from repro.sim.stats import StatsRegistry

#: An answer provider returns ``(version, version_time)`` or ``None``.
AnswerProvider = Callable[[int], Optional[tuple[int, float]]]

_QUERY_IDS = itertools.count(1)

QUERY_SIZE = 64
RESPONSE_OVERHEAD = 64


@dataclass
class QueryRecord:
    """Outcome of one query, judged later against ground truth."""

    query_id: int
    requester: int
    item_id: int
    issued_at: float
    answered_at: Optional[float] = None
    version: Optional[int] = None
    version_time: Optional[float] = None
    served_by: Optional[int] = None

    @property
    def answered(self) -> bool:
        return self.answered_at is not None

    @property
    def delay(self) -> Optional[float]:
        return None if self.answered_at is None else self.answered_at - self.issued_at


class QueryManager(ProtocolHandler):
    """Per-node query origination, forwarding, and answering."""

    handled_kinds = frozenset({"query"})

    def __init__(
        self,
        catalog: DataCatalog,
        store: Optional[CacheStore] = None,
        hop_limit: int = 4,
        query_ttl: float = 6 * 3600.0,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        super().__init__()
        self.catalog = catalog
        self.store = store
        self.hop_limit = hop_limit
        self.query_ttl = query_ttl
        self.stats = stats or StatsRegistry()
        self.records: list[QueryRecord] = []
        self._records_by_id: dict[int, QueryRecord] = {}
        #: queries this node carries and may still forward
        self._carried: dict[int, Message] = {}
        self._forwarded_to: dict[int, set[int]] = {}
        self._answered: set[int] = set()
        self.providers: list[AnswerProvider] = []
        if store is not None:
            self.providers.append(self._store_provider)
        #: optional :class:`repro.obs.bus.EventBus` for query records
        self.trace = None

    # -- wiring ----------------------------------------------------------

    def on_start(self) -> None:
        agent = self.node.find_handler(RoutingAgent)
        if agent is not None:
            agent.on_delivery("response", self._on_response)

    def add_provider(self, provider: AnswerProvider) -> None:
        """Register an answer source tried before the cache store."""
        self.providers.insert(0, provider)

    def _store_provider(self, item_id: int) -> Optional[tuple[int, float]]:
        if self.store is None:
            return None
        entry = self.store.lookup(item_id, self.node.sim.now)
        if entry is None:
            return None
        return entry.version, entry.version_time

    # -- query origination -------------------------------------------------

    def issue_query(self, item_id: int) -> QueryRecord:
        """Issue a query for ``item_id`` from this node."""
        if item_id not in self.catalog:
            raise KeyError(f"unknown item {item_id}")
        now = self.node.sim.now
        record = QueryRecord(
            query_id=next(_QUERY_IDS),
            requester=self.node.node_id,
            item_id=item_id,
            issued_at=now,
        )
        self.records.append(record)
        self._records_by_id[record.query_id] = record
        self.stats.counter("query.issued").add(1)
        if self.trace is not None:
            self.trace.emit(
                QueryIssue(now, self.node.node_id, record.query_id, item_id)
            )

        # Local hit: the requester itself may hold (or source) the item.
        answer = self._find_answer(item_id)
        if answer is not None:
            version, version_time = answer
            if self.trace is not None:
                self.trace.emit(
                    QueryHit(now, self.node.node_id, record.query_id,
                             item_id, answer[0], True)
                )
            self._record_answer(record, version, version_time, self.node.node_id, now)
            return record

        message = Message(
            kind="query",
            src=self.node.node_id,
            dst=None,
            created_at=now,
            size=QUERY_SIZE,
            ttl=self.query_ttl,
            hops_left=self.hop_limit,
            payload={"query_id": record.query_id, "item_id": item_id},
        )
        self._carried[record.query_id] = message
        self._forwarded_to[record.query_id] = set()
        self._offer_to_neighbors(message)
        return record

    # -- contact machinery --------------------------------------------------

    def on_contact_start(self, peer: Node) -> None:
        now = self.node.sim.now
        peer_manager = peer.find_handler(QueryManager)
        for query_id, message in list(self._carried.items()):
            if message.expired(now):
                del self._carried[query_id]
                self._forwarded_to.pop(query_id, None)
                continue
            self._forward_to(message, peer, peer_manager)

    def _offer_to_neighbors(self, message: Message, exclude: Optional[int] = None) -> None:
        nodes = self.node.network.nodes
        for peer_id in self.node.neighbors:
            if peer_id != exclude:
                peer = nodes[peer_id]
                self._forward_to(message, peer, peer.find_handler(QueryManager))

    def _forward_to(self, message: Message, peer: Node,
                    peer_manager: Optional[ProtocolHandler]) -> None:
        """Send ``message`` to ``peer``; ``peer_manager`` is the peer's
        query manager, resolved once per contact by the caller."""
        query_id = message.payload["query_id"]
        if message.hops_left is not None and message.hops_left <= 0:
            return
        given = self._forwarded_to.setdefault(query_id, set())
        if peer.node_id in given:
            return
        if isinstance(peer_manager, QueryManager) and query_id in peer_manager._carried:
            return  # peer already carries it (summary-vector shortcut)
        outgoing = message.copy()
        if outgoing.hops_left is not None:
            outgoing.hops_left -= 1
        if self.node.send(outgoing, peer):
            given.add(peer.node_id)
            self.stats.counter("query.forwarded").add(1)

    def on_message(self, message: Message, sender: Node) -> None:
        if message.kind != "query":
            return
        query_id = message.payload["query_id"]
        item_id = message.payload["item_id"]
        now = self.node.sim.now
        if query_id in self._carried or query_id in self._answered:
            return
        answer = self._find_answer(item_id)
        if answer is not None:
            self._answered.add(query_id)
            if self.trace is not None:
                self.trace.emit(
                    QueryHit(now, self.node.node_id, query_id, item_id,
                             answer[0], False)
                )
            self._send_response(message, answer)
            return
        # Cannot answer: keep carrying the query.
        if self.trace is not None:
            self.trace.emit(
                QueryMiss(now, self.node.node_id, query_id, item_id)
            )
        self._carried[query_id] = message
        self._forwarded_to.setdefault(query_id, set()).add(sender.node_id)
        self._offer_to_neighbors(message, exclude=sender.node_id)

    # -- answering ----------------------------------------------------------

    def _find_answer(self, item_id: int) -> Optional[tuple[int, float]]:
        for provider in self.providers:
            answer = provider(item_id)
            if answer is not None:
                return answer
        return None

    def _send_response(self, query: Message, answer: tuple[int, float]) -> None:
        version, version_time = answer
        item = self.catalog.get(query.payload["item_id"])
        response = Message(
            kind="response",
            src=self.node.node_id,
            dst=query.src,
            created_at=self.node.sim.now,
            size=item.size + RESPONSE_OVERHEAD,
            ttl=self.query_ttl,
            payload={
                "query_id": query.payload["query_id"],
                "item_id": item.item_id,
                "version": version,
                "version_time": version_time,
                "served_by": self.node.node_id,
            },
        )
        self.stats.counter("query.answered").add(1)
        agent = self.node.find_handler(RoutingAgent)
        if agent is None:
            raise RuntimeError(
                f"node {self.node.node_id} answers queries but has no routing agent"
            )
        agent.originate(response)

    def _on_response(self, message: Message) -> None:
        record = self._records_by_id.get(message.payload["query_id"])
        if record is None or record.answered:
            return
        self._record_answer(
            record,
            message.payload["version"],
            message.payload["version_time"],
            message.payload["served_by"],
            self.node.sim.now,
        )
        # Stop forwarding the satisfied query.
        self._carried.pop(record.query_id, None)
        self._forwarded_to.pop(record.query_id, None)

    def _record_answer(
        self,
        record: QueryRecord,
        version: int,
        version_time: float,
        served_by: int,
        now: float,
    ) -> None:
        record.answered_at = now
        record.version = version
        record.version_time = version_time
        record.served_by = served_by
        self.stats.counter("query.completed").add(1)
        self.stats.tally("query.delay").observe(now - record.issued_at)
        if self.trace is not None:
            self.trace.emit(
                QueryComplete(now, record.requester, record.query_id,
                              record.item_id, served_by,
                              now - record.issued_at)
            )
