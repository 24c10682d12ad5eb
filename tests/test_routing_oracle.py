"""The summary-vector forwarding path against a full-scan reference agent.

:func:`full_scan` wraps a routing policy in the straightforward form of
the store-carry-forward loop: every buffered message is offered to the
policy one at a time, each offer re-tests expiry and re-resolves the
peer's agent by a linear walk of its handlers before applying the
``seen`` rule, and a contact start expires the buffer by scanning all of
it.  :class:`~repro.routing.base.RoutingAgent` instead filters the
buffer against the peer's ``seen`` set once per contact and pops expired
messages from a heap; both must produce the same deliveries, custody
events and statistics.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.contacts.rates import RateTable
from repro.core import scheme
from repro.experiments.config import DAY, Settings
from repro.experiments.runner import make_trace
from repro.mobility.trace import Contact, ContactTrace
from repro.obs import export
from repro.routing.delegation import DelegationForwarding
from repro.routing.direct import DirectDelivery
from repro.routing.epidemic import EpidemicRouting
from repro.routing.prophet import ProphetRouting
from repro.routing.spraywait import SprayAndWait
from repro.sim.engine import Simulator
from repro.sim.messages import Message, reset_message_ids
from repro.sim.network import ContactNetwork
from repro.sim.node import make_nodes
from repro.sim.stats import StatsRegistry
from tests.conftest import run_once_capturing


def full_scan(policy: type) -> type:
    """``policy`` forwarding per buffered message, expiring by full scan."""

    class FullScan(policy):
        def _try_forward_all(self, peer):
            for message in list(self.buffer.values()):
                self._try_forward_one(message, peer)

        def _try_forward_one(self, message, peer):
            if message.expired(self.node.sim.now):
                return
            agent = next((h for h in peer.handlers if isinstance(h, type(self))), None)
            if agent is not None and message.msg_id in agent.seen:
                return
            if not self.should_forward(message, peer):
                return
            outgoing = self.split_for(message, peer)
            if self.node.send(outgoing, peer):
                self.stats.counter(f"routing.forwarded.{message.kind}").add(1)
                self.after_forward(message, peer)

        def _expire_buffer(self):
            now = self.node.sim.now
            dead = [mid for mid, m in self.buffer.items() if m.expired(now)]
            for mid in dead:
                del self.buffer[mid]
            if dead:
                self.stats.counter("routing.dropped_expired").add(len(dead))

    FullScan.__name__ = f"FullScan{policy.__name__}"
    return FullScan


NODES = 5

POLICIES = {
    "direct": (DirectDelivery, {}),
    "epidemic": (EpidemicRouting, {}),
    "spraywait": (SprayAndWait, {"initial_copies": 4}),
    "prophet": (ProphetRouting, {}),
    "delegation": (DelegationForwarding, {"rates": RateTable({
        (a, b): 0.01 * (1 + (3 * a + 7 * b) % 5)
        for a in range(NODES) for b in range(a + 1, NODES)
    })}),
}


def run_policy(agent_class, kwargs, contacts, messages, capacity):
    """Run one small scenario; returns everything the two paths must share."""
    reset_message_ids()
    stats = StatsRegistry()
    nodes = make_nodes(range(NODES))
    net = ContactNetwork(Simulator(), nodes, contacts, stats=stats)
    custody = []
    agents = {}
    for nid, node in nodes.items():
        agent = node.add_handler(
            agent_class(buffer_capacity=capacity, stats=stats, **kwargs))
        agent.on_custody("data", lambda m, sender, nid=nid: custody.append(
            (nid, m.msg_id, m.copy_id, sender.node_id, net.sim.now)))
        agents[nid] = agent
    for at, src, dst, ttl, hops in messages:
        message = Message("data", src=src, dst=dst, created_at=at, ttl=ttl,
                          hops_left=hops)
        net.sim.schedule_at(at, agents[src].originate, message)
    net.run(until=400.0)
    deliveries = {nid: agent.deliveries for nid, agent in agents.items()}
    buffers = {nid: list(agent.buffer) for nid, agent in agents.items()}
    return deliveries, buffers, custody, stats.counters(), {
        name: (t.count, t.mean) for name, t in stats.all_tallies().items()
    }


#: times on a half-second grid, so expiry instants coincide with contact
#: starts (where ``now - created_at == ttl`` must not expire a message)
half_seconds = st.integers(0, 700).map(lambda k: k / 2)
contacts_strategy = st.lists(
    st.tuples(
        st.integers(0, NODES - 1), st.integers(0, NODES - 1),
        half_seconds, st.integers(0, 60).map(lambda k: k / 2),
    ).filter(lambda c: c[0] != c[1]),
    max_size=30,
)
messages_strategy = st.lists(
    st.tuples(
        half_seconds,
        st.integers(0, NODES - 1), st.integers(0, NODES - 1),
        st.one_of(st.none(), st.integers(0, 240).map(lambda k: k / 2)),
        st.one_of(st.none(), st.integers(0, 3)),
    ),
    min_size=1, max_size=10,
)


class TestFullScanOracle:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        policy=st.sampled_from(sorted(POLICIES)),
        contacts=contacts_strategy,
        messages=messages_strategy,
        capacity=st.one_of(st.none(), st.integers(1, 4)),
    )
    # node 0's message (TTL 10 s) is unexpired at the t=10 contact, where
    # ``now - created_at == ttl``, and expired half a second later
    @example(policy="epidemic", contacts=[(0, 2, 10.0, 1.0), (0, 1, 10.5, 1.5)],
             messages=[(0.0, 0, 3, 10.0, None)], capacity=None)
    def test_same_outcome_as_full_scan(self, policy, contacts, messages, capacity):
        agent_class, kwargs = POLICIES[policy]
        trace = ContactTrace(
            [Contact.make(a, b, start, start + length) for a, b, start, length in contacts],
            node_ids=list(range(NODES)),
        )
        fast = run_policy(agent_class, kwargs, trace, messages, capacity)
        reference = run_policy(full_scan(agent_class), kwargs, trace, messages, capacity)
        assert fast == reference

    def test_seen_destination_is_not_offered_again(self):
        # 0 hands 1 the message at t=10; on the second contact the
        # destination has seen it, so nothing is sent again.
        trace = ContactTrace([Contact.make(0, 1, 10.0, 20.0), Contact.make(0, 1, 30.0, 40.0)],
                             node_ids=[0, 1])
        for name in ("prophet", "delegation"):
            agent_class, kwargs = POLICIES[name]
            stats = StatsRegistry()
            nodes = make_nodes([0, 1])
            net = ContactNetwork(Simulator(), nodes, trace, stats=stats)
            agents = [nodes[n].add_handler(agent_class(stats=stats, **kwargs)) for n in (0, 1)]
            agents[0].originate(Message("data", src=0, dst=1, created_at=0.0))
            net.run(until=50.0)
            assert stats.counter_value("routing.forwarded.data") == 1.0
            assert len(agents[1].deliveries) == 1


def run_reality(trace, config, agent_class, traced):
    """Metrics and stats snapshot of a reality run with queries whose
    response plane runs on ``agent_class``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scheme, "EpidemicRouting", agent_class)
        # a traced run keeps its records in memory; no JSONL is written
        patch.setattr(export, "write_jsonl", lambda records, path: None)
        metrics, runtime = run_once_capturing(
            patch, trace, "hdr", config, 3, with_queries=True,
            trace_path="unused.jsonl" if traced else None)
    return metrics, runtime.stats.snapshot()


@pytest.fixture(scope="module")
def reality_reference():
    config = Settings().with_(duration=2 * DAY)
    trace = make_trace(config, 1)
    return config, trace, run_reality(trace, config, full_scan(EpidemicRouting), False)


class TestReferenceAnchor:
    """The paper's setup (two days, queries on): the response plane on
    the summary-vector path matches the full-scan reference agent.
    Tracing is passive, so the traced run is held to the same result."""

    @pytest.mark.parametrize("traced", [False, True])
    def test_reality_queries_match_full_scan(self, reality_reference, traced):
        config, trace, (ref, ref_snap) = reality_reference
        fast, fast_snap = run_reality(trace, config, EpidemicRouting, traced)
        assert fast.queries_issued > 0 and fast.query_answer_ratio > 0
        assert fast_snap["counters"]["routing.forwarded.response"] > 0
        assert fast.same_as(ref), (dataclasses.asdict(fast), dataclasses.asdict(ref))
        assert fast_snap == ref_snap
