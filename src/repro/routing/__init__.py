"""DTN store-carry-forward routing substrate.

Queries, responses and refresh messages all travel over opportunistic
contacts, so every node runs a routing agent that buffers messages and
forwards them contact-by-contact.  The base class
(:class:`~repro.routing.base.RoutingAgent`) never offers a peer a
message already in the peer agent's ``seen`` set: a contact filters the
buffer against that summary vector once, and a policy decides only
among messages the peer lacks.  Five classic policies are provided:

- :class:`~repro.routing.direct.DirectDelivery` -- hand the message only
  to its destination (minimum overhead, maximum delay);
- :class:`~repro.routing.epidemic.EpidemicRouting` -- replicate to every
  new peer (minimum delay, maximum overhead);
- :class:`~repro.routing.spraywait.SprayAndWait` -- binary spray of L
  copies, then direct delivery;
- :class:`~repro.routing.prophet.ProphetRouting` -- forward along rising
  delivery predictability;
- :class:`~repro.routing.delegation.DelegationForwarding` -- forward
  only to record-setting carriers (the rule HDR's relay recruitment
  uses), O(sqrt(n)) copies per message.
"""

from repro.routing.base import DeliveryRecord, RoutingAgent
from repro.routing.delegation import DelegationForwarding
from repro.routing.direct import DirectDelivery
from repro.routing.epidemic import EpidemicRouting
from repro.routing.spraywait import SprayAndWait
from repro.routing.prophet import ProphetRouting

__all__ = [
    "DelegationForwarding",
    "DeliveryRecord",
    "DirectDelivery",
    "EpidemicRouting",
    "ProphetRouting",
    "RoutingAgent",
    "SprayAndWait",
]
