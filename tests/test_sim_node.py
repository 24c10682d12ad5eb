"""Tests for nodes and the protocol-handler dispatch."""

import pytest

from repro.mobility.trace import Contact, ContactTrace
from repro.sim.messages import Message
from repro.sim.node import Node, ProtocolHandler, make_nodes
from tests.conftest import build_network


class Recorder(ProtocolHandler):
    """Records every hook invocation."""

    def __init__(self, kinds=None):
        super().__init__()
        if kinds is not None:
            self.handled_kinds = frozenset(kinds)
        self.events = []

    def on_start(self):
        self.events.append(("start",))

    def on_contact_start(self, peer):
        self.events.append(("contact_start", peer.node_id))

    def on_contact_end(self, peer):
        self.events.append(("contact_end", peer.node_id))

    def on_message(self, message, sender):
        self.events.append(("message", message.kind, sender.node_id))


def two_node_network():
    trace = ContactTrace(
        [Contact.make(0, 1, 10.0, 20.0)], node_ids=[0, 1], name="pair"
    )
    return build_network(trace)


class TestHandlers:
    def test_contact_hooks_fire_on_both_sides(self):
        net = two_node_network()
        rec0 = net.nodes[0].add_handler(Recorder())
        rec1 = net.nodes[1].add_handler(Recorder())
        net.run()
        assert ("contact_start", 1) in rec0.events
        assert ("contact_end", 1) in rec0.events
        assert ("contact_start", 0) in rec1.events
        assert ("contact_end", 0) in rec1.events

    def test_start_fires_once_per_handler(self):
        net = two_node_network()
        rec = net.nodes[0].add_handler(Recorder())
        net.start()
        net.start()
        assert rec.events.count(("start",)) == 1

    def test_message_dispatch_filters_by_kind(self):
        net = two_node_network()
        sender = net.nodes[0]
        all_kinds = net.nodes[1].add_handler(Recorder())
        only_a = net.nodes[1].add_handler(Recorder(kinds={"a"}))
        net.start()
        net.sim.run(until=12.0)  # contact is open
        sender.send(Message(kind="a", src=0, dst=1, created_at=net.sim.now), net.nodes[1])
        sender.send(Message(kind="b", src=0, dst=1, created_at=net.sim.now), net.nodes[1])
        net.sim.run(until=13.0)
        assert ("message", "a", 0) in all_kinds.events
        assert ("message", "b", 0) in all_kinds.events
        assert ("message", "a", 0) in only_a.events
        assert ("message", "b", 0) not in only_a.events

    def test_find_handler(self):
        node = Node(0)
        rec = node.add_handler(Recorder())
        assert node.find_handler(Recorder) is rec
        assert node.find_handler(int) is None


class Tagged(ProtocolHandler):
    """Appends ``(tag, kind)`` to a shared log for every message."""

    def __init__(self, tag, log, kinds=None):
        super().__init__()
        if kinds is not None:
            self.handled_kinds = frozenset(kinds)
        self.tag, self.log = tag, log

    def on_message(self, message, sender):
        self.log.append((self.tag, message.kind))


class TestDispatchTable:
    """``receive`` dispatches through a per-kind handler tuple."""

    @staticmethod
    def deliver(node, *kinds):
        sender = Node(99)
        for kind in kinds:
            node.receive(Message(kind=kind, src=99, dst=node.node_id, created_at=0.0), sender)

    def test_handler_added_after_first_receive_is_reached(self):
        node, log = Node(0), []
        node.add_handler(Tagged("first", log, kinds={"a"}))
        self.deliver(node, "a")
        node.add_handler(Tagged("late", log, kinds={"a"}))
        node.add_handler(Tagged("late-all", log))
        self.deliver(node, "a")
        assert log == [("first", "a"), ("first", "a"), ("late", "a"), ("late-all", "a")]

    def test_registration_order_kept_across_kinds(self):
        node, log = Node(0), []
        for tag, kinds in (("x", {"x"}), ("all", None), ("xy", {"x", "y"}), ("y", {"y"})):
            node.add_handler(Tagged(tag, log, kinds=kinds))
        self.deliver(node, "x", "y", "x")
        assert log == [
            ("x", "x"), ("all", "x"), ("xy", "x"),
            ("all", "y"), ("xy", "y"), ("y", "y"),
            ("x", "x"), ("all", "x"), ("xy", "x"),
        ]

    def test_unfiltered_handler_sees_every_kind(self):
        node, log = Node(0), []
        node.add_handler(Tagged("only-q", log, kinds={"query"}))
        node.add_handler(Tagged("all", log, kinds=None))
        self.deliver(node, "query", "response", "refresh")
        assert [kind for tag, kind in log if tag == "all"] == ["query", "response", "refresh"]
        assert [kind for tag, kind in log if tag == "only-q"] == ["query"]

    def test_find_handler_sees_later_registrations(self):
        node, log = Node(0), []
        assert node.find_handler(Tagged) is None
        tagged = node.add_handler(Tagged("t", log))
        assert node.find_handler(Tagged) is tagged
        assert node.find_handler(ProtocolHandler) is tagged


class TestNeighbors:
    def test_neighbors_track_open_contacts(self):
        net = two_node_network()
        net.start()
        net.sim.run(until=5.0)
        assert not net.nodes[0].in_contact_with(1)
        net.sim.run(until=15.0)
        assert net.nodes[0].in_contact_with(1)
        assert net.nodes[0].neighbors == frozenset({1})
        net.sim.run(until=25.0)
        assert not net.nodes[0].in_contact_with(1)


class TestErrors:
    def test_sim_without_network_raises(self):
        with pytest.raises(RuntimeError):
            Node(0).sim

    def test_send_without_network_raises(self):
        message = Message(kind="x", src=0, dst=1, created_at=0.0)
        with pytest.raises(RuntimeError):
            Node(0).send(message, Node(1))


def test_make_nodes():
    nodes = make_nodes([3, 1, 2])
    assert sorted(nodes) == [1, 2, 3]
    assert all(nodes[n].node_id == n for n in nodes)
