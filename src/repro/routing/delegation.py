"""Delegation forwarding (Erramilli et al., MobiHoc 2008).

Each message copy remembers the highest *quality* (here: estimated
contact rate to the destination) of any node that has ever held it.  A
carrier hands a copy to an encountered peer only if the peer's quality
beats that running maximum -- so copies climb the quality gradient and
the expected number of copies per message is O(sqrt(n)) instead of
epidemic's O(n).

This is the same rule HDR's runtime relay recruitment uses
(:mod:`repro.core.refresh`); having it as a standalone routing agent
lets the query/response plane use gradient forwarding too, and gives the
routing suite a quota-free middle ground between direct delivery and
epidemic.

Quality comes from each node's :class:`~repro.contacts.rates
.ContactRateEstimator` when one is installed, falling back to a shared
:class:`~repro.contacts.rates.RateTable`.
"""

from __future__ import annotations

from typing import Optional

from repro.contacts.rates import ContactRateEstimator, RateTable
from repro.routing.base import RoutingAgent
from repro.sim.messages import Message
from repro.sim.node import Node

_THRESHOLD = "dg_threshold"


class DelegationForwarding(RoutingAgent):
    """Forward only to peers whose rate to the destination sets a record."""

    def __init__(self, rates: Optional[RateTable] = None, **kwargs) -> None:
        super().__init__(**kwargs)
        self.rates = rates

    def quality_of(self, node: Node, destination: int) -> float:
        """A node's estimated contact rate to ``destination``."""
        estimator = node.find_handler(ContactRateEstimator)
        if isinstance(estimator, ContactRateEstimator):
            return estimator.rate_to(destination)
        if self.rates is not None:
            return self.rates.rate(node.node_id, destination)
        return 0.0

    def originate(self, message: Message) -> None:
        message.payload.setdefault(
            _THRESHOLD, self.quality_of(self.node, message.dst)
        )
        super().originate(message)

    def should_forward(self, message: Message, peer: Node) -> bool:
        if message.dst == peer.node_id:
            return True
        threshold = message.payload.get(_THRESHOLD, 0.0)
        return self.quality_of(peer, message.dst) > threshold

    def split_for(self, message: Message, peer: Node) -> Message:
        outgoing = message.copy()
        if peer.node_id != message.dst:
            # Both the kept and the delegated copy raise their threshold
            # to the new record holder's quality.
            record = self.quality_of(peer, message.dst)
            outgoing.payload[_THRESHOLD] = record
            message.payload[_THRESHOLD] = record
        return outgoing
