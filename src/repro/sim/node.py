"""Simulation nodes and the protocol-handler stack they host.

A :class:`Node` is a mobile device.  It owns no protocol logic itself;
instead protocols (routing agents, the cooperative-caching protocol, a
refresh scheme...) register as :class:`ProtocolHandler` instances and the
node dispatches contact and message events to each of them in
registration order.

Handlers talk back to the world through ``node.network`` (to transfer
messages to the peer currently in contact) and ``node.sim`` (to schedule
timers).

Handlers must be registered through :meth:`Node.add_handler`: the node
caches, per message kind, the tuple of handlers :meth:`Node.receive`
dispatches to, and per class, the answer of :meth:`Node.find_handler`;
``add_handler`` drops both caches.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from repro.sim.messages import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.network import ContactNetwork
    from repro.sim.engine import Simulator


class ProtocolHandler:
    """Base class for per-node protocol logic.

    Subclasses override any subset of the hooks.  ``handled_kinds``
    limits which message kinds are delivered to :meth:`on_message`;
    ``None`` means all kinds.
    """

    #: Message kinds this handler consumes, or ``None`` for all.
    handled_kinds: Optional[frozenset[str]] = None

    def __init__(self) -> None:
        self.node: Optional["Node"] = None

    def attach(self, node: "Node") -> None:
        """Called when the handler is registered on ``node``."""
        self.node = node

    def on_start(self) -> None:
        """Called once when the network starts the simulation."""

    def on_contact_start(self, peer: "Node") -> None:
        """Called when a contact with ``peer`` begins."""

    def on_contact_end(self, peer: "Node") -> None:
        """Called when a contact with ``peer`` ends."""

    def on_message(self, message: Message, sender: "Node") -> None:
        """Called when a message of a handled kind arrives from ``sender``."""


class Node:
    """A mobile device hosting a stack of protocol handlers."""

    def __init__(self, node_id: int) -> None:
        self.node_id = int(node_id)
        self.network: Optional["ContactNetwork"] = None
        self.handlers: list[ProtocolHandler] = []
        #: message kind -> handlers taking it, in registration order
        self._dispatch: dict[str, tuple[ProtocolHandler, ...]] = {}
        #: class -> first handler that is an instance of it (or None)
        self._found: dict[type, Optional[ProtocolHandler]] = {}
        self._neighbors: set[int] = set()
        #: an offline node (device powered down) takes part in no contacts
        self.online = True

    @property
    def sim(self) -> "Simulator":
        """The simulator driving this node's network."""
        if self.network is None:
            raise RuntimeError(f"node {self.node_id} is not attached to a network")
        return self.network.sim

    @property
    def neighbors(self) -> frozenset[int]:
        """Ids of nodes currently in contact with this node."""
        return frozenset(self._neighbors)

    def add_handler(self, handler: ProtocolHandler) -> ProtocolHandler:
        """Register ``handler`` at the bottom of the stack and return it."""
        handler.attach(self)
        self.handlers.append(handler)
        self._dispatch.clear()
        self._found.clear()
        return handler

    def find_handler(self, cls: type) -> Optional[ProtocolHandler]:
        """First registered handler that is an instance of ``cls``."""
        if cls not in self._found:
            self._found[cls] = next((h for h in self.handlers if isinstance(h, cls)), None)
        return self._found[cls]

    def in_contact_with(self, peer_id: int) -> bool:
        """True while a contact with ``peer_id`` is open."""
        return peer_id in self._neighbors

    def send(self, message: Message, peer: "Node") -> bool:
        """Hand ``message`` to the network for transfer to ``peer``.

        Returns ``True`` if the link model accepted the transfer.  The
        nodes must currently be in contact.
        """
        if self.network is None:
            raise RuntimeError(f"node {self.node_id} is not attached to a network")
        return self.network.transfer(message, self, peer)

    # -- hooks invoked by ContactNetwork ---------------------------------

    def start(self) -> None:
        for handler in self.handlers:
            handler.on_start()

    def contact_started(self, peer: "Node") -> None:
        self._neighbors.add(peer.node_id)
        for handler in list(self.handlers):
            handler.on_contact_start(peer)

    def contact_ended(self, peer: "Node") -> None:
        self._neighbors.discard(peer.node_id)
        for handler in list(self.handlers):
            handler.on_contact_end(peer)

    def receive(self, message: Message, sender: "Node") -> None:
        kind = message.kind
        handlers = self._dispatch.get(kind)
        if handlers is None:
            handlers = self._dispatch[kind] = tuple(
                h for h in self.handlers
                if h.handled_kinds is None or kind in h.handled_kinds
            )
        for handler in handlers:
            handler.on_message(message, sender)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({self.node_id})"


def make_nodes(node_ids: Iterable[int]) -> dict[int, Node]:
    """Convenience constructor: one bare :class:`Node` per id."""
    return {nid: Node(nid) for nid in node_ids}
