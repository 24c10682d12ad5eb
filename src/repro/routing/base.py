"""Routing agent base: buffering, dedup, delivery, forwarding loop.

A :class:`RoutingAgent` is a :class:`~repro.sim.node.ProtocolHandler`
that owns a message buffer.  Subclasses implement only the forwarding
*policy* (:meth:`RoutingAgent.should_forward` and, for quota schemes,
:meth:`RoutingAgent.split_for`); the mechanics -- buffer limits, TTL
expiry, duplicate suppression, delivery callbacks, per-kind statistics
-- live here.

Duplicate suppression is a base-class rule: a peer is never offered a
message already in its agent's ``seen`` set.  At contact start the agent
resolves the peer's agent once and filters its buffer against that set
(the summary-vector exchange of Vahdat & Becker's epidemic routing), so
a policy only ever sees messages the peer lacks, and a contact costs
work per message it moves rather than per message it holds.  Expired
messages leave the buffer at the next contact start, popped from a heap
keyed by expiry time instead of found by a scan.

Upper layers (the caching protocol) inject messages with
:meth:`RoutingAgent.originate` and register per-kind delivery callbacks
with :meth:`RoutingAgent.on_delivery`.

Node 2 already has ``known``; node 1 does not.  At t=10 node 0 hands
node 1 both messages, at t=30 ``old`` (TTL 25 s) has expired and leaves
node 0's buffer, and node 2 is offered nothing:

>>> from repro.mobility.trace import Contact
>>> from repro.routing.epidemic import EpidemicRouting
>>> from repro.sim.engine import Simulator
>>> from repro.sim.messages import Message
>>> from repro.sim.network import ContactNetwork
>>> from repro.sim.node import make_nodes
>>> nodes = make_nodes([0, 1, 2])
>>> net = ContactNetwork(Simulator(), nodes, [Contact.make(0, 1, 10.0, 20.0),
...                                           Contact.make(0, 2, 30.0, 40.0)])
>>> a, b, c = (nodes[n].add_handler(EpidemicRouting()) for n in (0, 1, 2))
>>> old = Message("data", src=0, dst=9, created_at=0.0, ttl=25.0)
>>> known = Message("data", src=0, dst=9, created_at=0.0)
>>> a.originate(old)
>>> a.originate(known)
>>> c.seen.add(known.msg_id)
>>> _ = net.run(until=35.0)
>>> sorted(b.buffer) == sorted([old.msg_id, known.msg_id])
True
>>> sorted(a.buffer) == [known.msg_id], a.stats.counter_value("routing.dropped_expired")
(True, 1.0)
>>> c.buffer, a.stats.counter_value("routing.forwarded.data")
({}, 2.0)
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Optional

from repro.sim.messages import Message
from repro.sim.node import Node, ProtocolHandler
from repro.sim.stats import Counter, StatsRegistry


@dataclass
class DeliveryRecord:
    """Bookkeeping for one end-to-end delivery."""

    msg_id: int
    kind: str
    src: int
    dst: int
    created_at: float
    delivered_at: float

    @property
    def delay(self) -> float:
        return self.delivered_at - self.created_at


class RoutingAgent(ProtocolHandler):
    """Store-carry-forward agent; subclasses define the policy."""

    #: message kinds this agent transports; ``None`` means every kind
    #: except those another handler claims explicitly.
    handled_kinds: Optional[frozenset[str]] = None

    def __init__(
        self,
        buffer_capacity: Optional[int] = None,
        stats: Optional[StatsRegistry] = None,
        kinds: Optional[frozenset[str]] = None,
    ) -> None:
        super().__init__()
        if kinds is not None:
            self.handled_kinds = frozenset(kinds)
        self.buffer: dict[int, Message] = {}
        self.buffer_capacity = buffer_capacity
        self.seen: set[int] = set()
        #: ``(created_at + ttl, msg_id)`` per message stored with a TTL;
        #: entries of messages that left the buffer otherwise (eviction,
        #: ``after_forward``) are skipped when they surface
        self._expiry: list[tuple[float, int]] = []
        self.stats = stats or StatsRegistry()
        self._forwarded: dict[str, Counter] = {}
        self.deliveries: list[DeliveryRecord] = []
        self._callbacks: dict[str, list[Callable[[Message], None]]] = {}
        self._custody_callbacks: dict[str, list[Callable[[Message, Node], None]]] = {}

    # -- public API for upper layers -------------------------------------

    def originate(self, message: Message) -> None:
        """Inject a locally created message into the network."""
        self.stats.counter(f"routing.originated.{message.kind}").add(1)
        if message.dst == self.node.node_id:
            self._deliver(message)
            return
        self.seen.add(message.msg_id)
        self._store(message)
        # A contact may already be open: try forwarding immediately.
        stored = self.buffer.get(message.msg_id)
        if stored is not None:
            self._offer_to_neighbors(stored)

    def on_delivery(self, kind: str, callback: Callable[[Message], None]) -> None:
        """Register ``callback(message)`` for delivered messages of ``kind``."""
        self._callbacks.setdefault(kind, []).append(callback)

    def on_custody(self, kind: str, callback: Callable[[Message, Node], None]) -> None:
        """Register ``callback(message, sender)`` for each first receipt.

        Fires once per message this node receives of ``kind`` -- at
        intermediate custody *and* at the destination -- before any
        delivery callbacks.  On-path caching hangs off this hook; it
        costs nothing when no callback is registered.
        """
        self._custody_callbacks.setdefault(kind, []).append(callback)

    # -- policy hooks -------------------------------------------------------

    def should_forward(self, message: Message, peer: Node) -> bool:
        """Whether to hand ``message`` to ``peer`` on this contact.

        Only called for messages the peer has not seen.
        """
        raise NotImplementedError

    def split_for(self, message: Message, peer: Node) -> Message:
        """The copy actually sent (quota schemes adjust token counts)."""
        return message.copy()

    def after_forward(self, message: Message, peer: Node) -> None:
        """Hook after a successful transfer (e.g. drop the local copy)."""

    def peer_agent(self, peer: Node) -> Optional["RoutingAgent"]:
        """The peer's routing agent of the same class, if any.

        Direct object access stands in for the zero-payload metadata
        handshake (summary vectors, predictability exchange) that real
        implementations perform at contact start.
        """
        agent = peer.find_handler(type(self))
        return agent if isinstance(agent, RoutingAgent) else None

    # -- ProtocolHandler hooks -----------------------------------------------

    def on_contact_start(self, peer: Node) -> None:
        self._expire_buffer()
        self._try_forward_all(peer)

    def on_message(self, message: Message, sender: Node) -> None:
        if message.dst == self.node.node_id:
            if message.msg_id not in self.seen:
                self.seen.add(message.msg_id)
                self._notify_custody(message, sender)
                self._deliver(message)
            return
        if message.msg_id in self.seen and message.msg_id not in self.buffer:
            # Already relayed and dropped (or delivered): ignore the dup.
            self.stats.counter("routing.duplicates").add(1)
            return
        if message.msg_id not in self.seen:
            self._notify_custody(message, sender)
        self.seen.add(message.msg_id)
        self._store(message)
        # Opportunistically forward *this* message onward to other open
        # contacts.  (Only the new arrival: the rest of the buffer was
        # already offered to these peers when the contacts opened, and
        # re-scanning it per arrival is quadratic in buffered messages.)
        stored = self.buffer.get(message.msg_id)
        if stored is not None:
            self._offer_to_neighbors(stored, exclude=sender.node_id)

    # -- internals ---------------------------------------------------------

    def _notify_custody(self, message: Message, sender: Node) -> None:
        if not self._custody_callbacks:
            return
        for callback in self._custody_callbacks.get(message.kind, []):
            callback(message, sender)

    def _try_forward_all(self, peer: Node) -> None:
        # The buffer is filtered against the peer's summary vector once,
        # in insertion order, before anything is sent: deliveries run
        # through the event heap, so ``seen`` cannot change mid-loop.
        peer_agent = self.peer_agent(peer)
        if peer_agent is None:
            offers = list(self.buffer.values())
        else:
            seen = peer_agent.seen
            offers = [m for mid, m in self.buffer.items() if mid not in seen]
        for message in offers:
            self._try_forward_one(message, peer)

    def _offer_to_neighbors(self, message: Message, exclude: Optional[int] = None) -> None:
        """Offer one newly buffered message to every open contact."""
        nodes = self.node.network.nodes
        msg_id = message.msg_id
        for peer_id in list(self.node.neighbors):
            if peer_id == exclude:
                continue
            peer = nodes[peer_id]
            peer_agent = self.peer_agent(peer)
            if peer_agent is None or msg_id not in peer_agent.seen:
                self._try_forward_one(message, peer)

    def _try_forward_one(self, message: Message, peer: Node) -> None:
        # No expiry test: contact starts expire the buffer first, and a
        # message is only stored (and offered on arrival) while unexpired.
        if not self.should_forward(message, peer):
            return
        outgoing = self.split_for(message, peer)
        if self.node.send(outgoing, peer):
            counter = self._forwarded.get(message.kind)
            if counter is None:
                counter = self._forwarded[message.kind] = self.stats.counter(
                    f"routing.forwarded.{message.kind}"
                )
            counter.add(1)
            self.after_forward(message, peer)

    def _store(self, message: Message) -> None:
        if message.expired(self.node.sim.now):
            self.stats.counter("routing.dropped_expired").add(1)
            return
        if message.msg_id in self.buffer:
            return
        if self.buffer_capacity is not None and len(self.buffer) >= self.buffer_capacity:
            self._evict_one()
        self.buffer[message.msg_id] = message
        if message.ttl is not None:
            heapq.heappush(self._expiry, (message.created_at + message.ttl, message.msg_id))

    def _evict_one(self) -> None:
        """Drop the oldest message (FIFO by creation time)."""
        if not self.buffer:
            return
        victim = min(self.buffer.values(), key=lambda m: (m.created_at, m.msg_id))
        del self.buffer[victim.msg_id]
        self.stats.counter("routing.evicted").add(1)

    def _expire_buffer(self) -> None:
        heap = self._expiry
        if not heap:
            return
        now = self.node.sim.now
        # ``created_at + ttl`` and the exact test ``now - created_at >
        # ttl`` can round apart by a few ulps, so every entry up to a
        # margin far wider than that is popped and decided by the exact
        # test; past the margin, a message created in [0, now] (as every
        # buffered one is) cannot have expired.
        limit = now + 1e-9 * (abs(now) + 1.0)
        buffer = self.buffer
        dead = 0
        keep = []
        while heap and heap[0][0] <= limit:
            entry = heapq.heappop(heap)
            message = buffer.get(entry[1])
            if message is None:
                continue  # already evicted or forwarded away
            if message.expired(now):
                del buffer[entry[1]]
                dead += 1
            else:
                keep.append(entry)
        for entry in keep:
            heapq.heappush(heap, entry)
        if dead:
            self.stats.counter("routing.dropped_expired").add(dead)

    def _deliver(self, message: Message) -> None:
        now = self.node.sim.now
        self.deliveries.append(
            DeliveryRecord(
                msg_id=message.msg_id,
                kind=message.kind,
                src=message.src,
                dst=self.node.node_id,
                created_at=message.created_at,
                delivered_at=now,
            )
        )
        self.stats.counter(f"routing.delivered.{message.kind}").add(1)
        self.stats.tally(f"routing.delay.{message.kind}").observe(now - message.created_at)
        for callback in self._callbacks.get(message.kind, []):
            callback(message)
