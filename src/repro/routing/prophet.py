"""PRoPHET routing (Lindgren et al., probabilistic routing protocol).

Each node maintains a delivery predictability ``P(self, x)`` for every
other node, updated three ways:

- **direct encounter**: ``P(a,b) += (1 - P(a,b)) * P_INIT`` when a meets b;
- **aging**: ``P *= GAMMA ** elapsed_units`` as time passes;
- **transitivity**: on meeting b, for every c known to b,
  ``P(a,c) = max(P(a,c), P(a,b) * P(b,c) * BETA)``.

A message is handed to a peer whose predictability to the destination
exceeds the carrier's.  The predictability-vector exchange at contact
start is modelled by reading the peer agent's table directly.
"""

from __future__ import annotations

from repro.routing.base import RoutingAgent
from repro.sim.messages import Message
from repro.sim.node import Node

P_INIT = 0.75
GAMMA = 0.98
BETA = 0.25
#: seconds per aging unit (PRoPHET ages in abstract "time units")
AGING_UNIT = 3600.0


class ProphetRouting(RoutingAgent):
    """PRoPHET delivery-predictability routing."""

    def __init__(
        self,
        p_init: float = P_INIT,
        gamma: float = GAMMA,
        beta: float = BETA,
        aging_unit: float = AGING_UNIT,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        if not 0 < p_init <= 1:
            raise ValueError("p_init must be in (0, 1]")
        if not 0 < gamma <= 1:
            raise ValueError("gamma must be in (0, 1]")
        if not 0 <= beta <= 1:
            raise ValueError("beta must be in [0, 1]")
        self.p_init = p_init
        self.gamma = gamma
        self.beta = beta
        self.aging_unit = aging_unit
        self.predictability: dict[int, float] = {}
        self._last_aged = 0.0

    def on_start(self) -> None:
        self._last_aged = self.node.sim.now

    def predictability_to(self, node_id: int) -> float:
        return self.predictability.get(node_id, 0.0)

    def _age(self) -> None:
        now = self.node.sim.now
        units = (now - self._last_aged) / self.aging_unit
        if units <= 0:
            return
        factor = self.gamma**units
        for key in list(self.predictability):
            self.predictability[key] *= factor
            if self.predictability[key] < 1e-6:
                del self.predictability[key]
        self._last_aged = now

    def on_contact_start(self, peer: Node) -> None:
        self._age()
        pid = peer.node_id
        current = self.predictability.get(pid, 0.0)
        self.predictability[pid] = current + (1.0 - current) * self.p_init
        peer_agent = self.peer_agent(peer)
        if isinstance(peer_agent, ProphetRouting):
            p_ab = self.predictability[pid]
            for dest, p_bc in peer_agent.predictability.items():
                if dest == self.node.node_id:
                    continue
                transitive = p_ab * p_bc * self.beta
                if transitive > self.predictability.get(dest, 0.0):
                    self.predictability[dest] = transitive
        super().on_contact_start(peer)

    def should_forward(self, message: Message, peer: Node) -> bool:
        if message.dst == peer.node_id:
            return True
        peer_agent = self.peer_agent(peer)
        if not isinstance(peer_agent, ProphetRouting):
            return False
        return peer_agent.predictability_to(message.dst) > self.predictability_to(message.dst)
