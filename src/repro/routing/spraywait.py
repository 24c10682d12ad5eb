"""Binary spray-and-wait routing (Spyropoulos et al.).

Each message starts with ``initial_copies`` logical tokens.  While a
carrier holds more than one token it gives half to any new peer
(binary spray); with a single token it waits for the destination
(direct delivery).  Bounded overhead with near-epidemic delay when the
copy budget is generous.

Token counts ride in ``message.payload['sw_tokens']``.
"""

from __future__ import annotations

from repro.routing.base import RoutingAgent
from repro.sim.messages import Message
from repro.sim.node import Node

_TOKENS = "sw_tokens"


class SprayAndWait(RoutingAgent):
    """Binary spray-and-wait with a configurable copy budget."""

    def __init__(self, initial_copies: int = 8, **kwargs) -> None:
        super().__init__(**kwargs)
        if initial_copies < 1:
            raise ValueError("initial_copies must be >= 1")
        self.initial_copies = initial_copies

    def originate(self, message: Message) -> None:
        message.payload.setdefault(_TOKENS, self.initial_copies)
        super().originate(message)

    def _tokens(self, message: Message) -> int:
        return int(message.payload.get(_TOKENS, 1))

    def should_forward(self, message: Message, peer: Node) -> bool:
        if message.dst == peer.node_id:
            return True
        return self._tokens(message) > 1

    def split_for(self, message: Message, peer: Node) -> Message:
        outgoing = message.copy()
        if peer.node_id != message.dst:
            tokens = self._tokens(message)
            give = tokens // 2
            outgoing.payload[_TOKENS] = give
            message.payload[_TOKENS] = tokens - give
        return outgoing

    def after_forward(self, message: Message, peer: Node) -> None:
        if peer.node_id == message.dst:
            self.buffer.pop(message.msg_id, None)
