"""Shared fixtures: hand-built traces and wired mini-networks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mobility.trace import Contact, ContactTrace
from repro.sim.engine import Simulator
from repro.sim.network import ContactNetwork
from repro.sim.node import Node


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def tiny_trace() -> ContactTrace:
    """Four nodes, a handful of hand-placed contacts over 100 s."""
    contacts = [
        Contact.make(0, 1, 10.0, 20.0),
        Contact.make(1, 2, 30.0, 40.0),
        Contact.make(2, 3, 50.0, 60.0),
        Contact.make(0, 2, 70.0, 80.0),
        Contact.make(0, 1, 85.0, 95.0),
    ]
    return ContactTrace(contacts, node_ids=[0, 1, 2, 3], name="tiny")


@pytest.fixture
def line_trace() -> ContactTrace:
    """Repeating chain 0-1, 1-2, 2-3: data can flow 0 -> 3 in one sweep."""
    contacts = []
    for round_start in range(0, 1000, 100):
        contacts.append(Contact.make(0, 1, round_start + 10, round_start + 20))
        contacts.append(Contact.make(1, 2, round_start + 30, round_start + 40))
        contacts.append(Contact.make(2, 3, round_start + 50, round_start + 60))
    return ContactTrace(contacts, node_ids=[0, 1, 2, 3], name="line")


def build_network(trace: ContactTrace, **kwargs) -> ContactNetwork:
    """A simulator + bare nodes wired to replay ``trace``."""
    sim = Simulator()
    nodes = {nid: Node(nid) for nid in trace.node_ids}
    return ContactNetwork(sim, nodes, trace, **kwargs)


@pytest.fixture
def network_factory():
    return build_network


def run_once_capturing(monkeypatch, *args, prepare=None, **kwargs):
    """``run_once`` plus the runtime it built; ``prepare`` runs on the
    runtime before the simulation starts."""
    from repro.experiments import runner

    build = runner.build_simulation
    built = []

    def capture(*build_args, **build_kwargs):
        runtime = build(*build_args, **build_kwargs)
        if prepare is not None:
            prepare(runtime)
        built.append(runtime)
        return runtime

    with monkeypatch.context() as patch:
        patch.setattr(runner, "build_simulation", capture)
        metrics = runner.run_once(*args, **kwargs)
    return metrics, built[0]
