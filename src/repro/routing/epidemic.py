"""Epidemic routing: replicate every message to every new peer.

The flooding upper bound: minimum delivery delay, maximum transmission
overhead.  The summary-vector handshake that suppresses re-sending
messages the peer already carries is the base class's ``seen`` rule
(:mod:`repro.routing.base`), so every message offered here is new to
the peer.
"""

from __future__ import annotations

from repro.routing.base import RoutingAgent
from repro.sim.messages import Message
from repro.sim.node import Node


class EpidemicRouting(RoutingAgent):
    """Replicate to any peer that has not seen the message yet."""

    def should_forward(self, message: Message, peer: Node) -> bool:
        if message.hops_left is not None and message.hops_left <= 0:
            return False
        return self.peer_agent(peer) is not None or message.dst == peer.node_id

    def split_for(self, message: Message, peer: Node) -> Message:
        outgoing = message.copy()
        if outgoing.hops_left is not None:
            outgoing.hops_left -= 1
        return outgoing
