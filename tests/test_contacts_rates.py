"""Tests for rate estimation: offline MLE/EWMA and the online estimator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings as hsettings
from hypothesis import strategies as st

from repro.contacts.rates import ContactRateEstimator, RateTable, ewma_rates, mle_rates
from repro.mobility.trace import Contact, ContactTrace
from tests.conftest import build_network


class TestRateTable:
    def test_symmetric_access(self):
        table = RateTable()
        table.set(2, 1, 0.5)
        assert table.rate(1, 2) == 0.5
        assert table.rate(2, 1) == 0.5

    def test_default_zero(self):
        assert RateTable().rate(0, 1) == 0.0
        assert RateTable().rate(0, 1, default=9.0) == 9.0

    def test_self_rate_rejected(self):
        with pytest.raises(ValueError):
            RateTable().set(1, 1, 0.5)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            RateTable().set(0, 1, -0.5)

    def test_neighbors(self):
        table = RateTable({(0, 1): 0.5, (0, 2): 0.25, (1, 2): 0.0})
        assert table.neighbors(0) == {1: 0.5, 2: 0.25}
        assert table.neighbors(1) == {0: 0.5}

    def test_nodes(self):
        table = RateTable({(0, 1): 0.5, (4, 7): 0.1})
        assert table.nodes() == {0, 1, 4, 7}

    def test_matrix(self):
        table = RateTable({(0, 1): 0.5})
        matrix = table.matrix([0, 1, 2])
        assert matrix[0, 1] == 0.5
        assert matrix[1, 0] == 0.5
        assert matrix[2, 0] == 0.0
        assert (np.diag(matrix) == 0).all()

    def test_len(self):
        assert len(RateTable({(0, 1): 0.5, (1, 2): 0.2})) == 2


#: small tables with repeated rates (ties) and explicit zero-rate pairs
_rate_tables = st.dictionaries(
    st.tuples(st.integers(0, 7), st.integers(0, 7))
    .filter(lambda pair: pair[0] < pair[1]),
    st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]),
    max_size=20,
)


def _both_backings(rates: dict) -> list[RateTable]:
    pairs = sorted(rates)
    arrays = RateTable.from_arrays(
        [a for a, _ in pairs], [b for _, b in pairs], [rates[p] for p in pairs]
    )
    return [RateTable(rates), arrays]


class TestFasterPeers:
    @hsettings(max_examples=60, deadline=None)
    @given(rates=_rate_tables, node=st.integers(0, 9), target=st.integers(0, 9))
    def test_matches_brute_force(self, rates, node, target):
        # ids 8 and 9 never appear in a table: unknown nodes and targets
        for table in _both_backings(rates):
            own = table.rate(node, target)
            expected = {peer for peer in range(10)
                        if table.rate(peer, target) > own}
            got = table.faster_peers(node, target)
            assert got == expected
            assert table.faster_peers(node, target) is got

    def test_zero_rate_and_unknown_pairs_never_qualify(self):
        rates = {(1, 9): 0.0, (2, 9): 0.5, (3, 9): 0.25}
        for table in _both_backings(rates):
            # a stored zero rate and a never-observed pair look alike
            assert table.rate(1, 9, default=-1.0) == 0.0
            assert table.rate(7, 9, default=-1.0) == -1.0
            assert table.faster_peers(1, 9) == {2, 3}
            assert table.faster_peers(7, 9) == {2, 3}
            assert table.faster_peers(3, 9) == {2}
            assert table.faster_peers(2, 9) == frozenset()
            assert table.faster_peers(2, 42) == frozenset()

    def test_set_invalidates_the_cache(self):
        for table in _both_backings({(0, 9): 0.2, (1, 9): 0.5}):
            assert table.faster_peers(0, 9) == {1}
            table.set(2, 9, 0.3)
            assert table.faster_peers(0, 9) == {1, 2}
            table.set(0, 9, 0.4)
            assert table.faster_peers(0, 9) == {1}


class TestMleRates:
    def test_count_over_window(self):
        trace = ContactTrace(
            [Contact.make(0, 1, t, t + 1) for t in (10.0, 110.0, 210.0)]
        )
        # window is [10, 211] -> 3 contacts / 201 s
        rates = mle_rates(trace)
        assert rates.rate(0, 1) == pytest.approx(3 / 201.0)

    def test_explicit_window(self):
        trace = ContactTrace([Contact.make(0, 1, 10.0, 11.0)])
        rates = mle_rates(trace, t0=0.0, t1=100.0)
        assert rates.rate(0, 1) == pytest.approx(0.01)

    def test_contacts_outside_window_excluded(self):
        trace = ContactTrace(
            [Contact.make(0, 1, 10.0, 11.0), Contact.make(0, 1, 500.0, 501.0)]
        )
        rates = mle_rates(trace, t0=0.0, t1=100.0)
        assert rates.rate(0, 1) == pytest.approx(0.01)

    def test_empty_window_raises(self):
        trace = ContactTrace([Contact.make(0, 1, 5.0, 6.0)])
        with pytest.raises(ValueError):
            mle_rates(trace, t0=10.0, t1=10.0)

    def test_recovers_poisson_rate(self, rng):
        from repro.mobility.synthetic import PoissonContactModel, homogeneous_rate_matrix

        true_rate = 0.01
        model = PoissonContactModel(homogeneous_rate_matrix(2, true_rate), mean_duration=1.0)
        trace = model.generate(100000.0, rng)
        rates = mle_rates(trace, t0=0.0, t1=100000.0)
        assert rates.rate(0, 1) == pytest.approx(true_rate, rel=0.1)


class TestEwmaRates:
    def test_single_contact_uses_age(self):
        trace = ContactTrace([Contact.make(0, 1, 10.0, 11.0)])
        rates = ewma_rates(trace, t1=110.0)
        assert rates.rate(0, 1) == pytest.approx(1.0 / 100.0)

    def test_steady_gaps_converge_to_inverse_gap(self):
        contacts = [Contact.make(0, 1, t, t + 1) for t in range(0, 1000, 100)]
        rates = ewma_rates(ContactTrace(contacts), alpha=0.5)
        assert rates.rate(0, 1) == pytest.approx(1.0 / 99.0, rel=0.01)

    def test_recent_gaps_weighted_more(self):
        # gaps: 99 (old), then 9 (recent x3): EWMA must sit near 1/9 not 1/99
        contacts = [
            Contact.make(0, 1, 0.0, 1.0),
            Contact.make(0, 1, 100.0, 101.0),
            Contact.make(0, 1, 110.0, 111.0),
            Contact.make(0, 1, 120.0, 121.0),
        ]
        rates = ewma_rates(ContactTrace(contacts), alpha=0.6)
        assert rates.rate(0, 1) > 1.0 / 30.0

    def test_alpha_validated(self):
        trace = ContactTrace([Contact.make(0, 1, 0.0, 1.0)])
        with pytest.raises(ValueError):
            ewma_rates(trace, alpha=0.0)
        with pytest.raises(ValueError):
            ewma_rates(trace, alpha=1.5)


class TestOnlineEstimator:
    def make_net(self):
        contacts = [Contact.make(0, 1, t, t + 5) for t in (100.0, 300.0, 500.0)]
        trace = ContactTrace(contacts, node_ids=[0, 1, 2])
        net = build_network(trace)
        est = net.nodes[0].add_handler(ContactRateEstimator())
        net.start()
        return net, est

    def test_cumulative_rate(self):
        net, est = self.make_net()
        net.sim.run(until=1000.0)
        # 3 contacts over 1000 s
        assert est.rate_to(1) == pytest.approx(3 / 1000.0)

    def test_unknown_peer_zero(self):
        net, est = self.make_net()
        net.sim.run(until=1000.0)
        assert est.rate_to(2) == 0.0
        assert est.expected_meeting_delay(2) == math.inf

    def test_expected_meeting_delay(self):
        net, est = self.make_net()
        net.sim.run(until=1000.0)
        assert est.expected_meeting_delay(1) == pytest.approx(1000.0 / 3)

    def test_known_peers(self):
        net, est = self.make_net()
        net.sim.run(until=1000.0)
        assert set(est.known_peers()) == {1}

    def test_ewma_mode_tracks_gaps(self):
        contacts = [Contact.make(0, 1, t, t + 5) for t in (0.0, 100.0, 200.0, 300.0)]
        trace = ContactTrace(contacts, node_ids=[0, 1])
        net = build_network(trace)
        est = net.nodes[0].add_handler(ContactRateEstimator(mode="ewma"))
        net.start()
        net.sim.run(until=400.0)
        # gaps of 100 s between starts: 95 s end-to-start
        assert est.rate_to(1) == pytest.approx(1.0 / 95.0, rel=0.05)

    def test_ewma_falls_back_before_second_contact(self):
        contacts = [Contact.make(0, 1, 100.0, 105.0)]
        trace = ContactTrace(contacts, node_ids=[0, 1])
        net = build_network(trace)
        est = net.nodes[0].add_handler(ContactRateEstimator(mode="ewma"))
        net.start()
        net.sim.run(until=200.0)
        assert est.rate_to(1) == pytest.approx(1 / 200.0)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            ContactRateEstimator(mode="nonsense")

    def test_online_converges_to_offline(self, rng):
        """On a generated trace, the online estimate approaches the MLE."""
        from repro.mobility.synthetic import PoissonContactModel, homogeneous_rate_matrix

        model = PoissonContactModel(homogeneous_rate_matrix(3, 0.005), mean_duration=1.0)
        trace = model.generate(50000.0, rng)
        net = build_network(trace)
        est = net.nodes[0].add_handler(ContactRateEstimator())
        net.run(until=50000.0)
        offline = mle_rates(trace, t0=0.0, t1=50000.0)
        for peer in (1, 2):
            assert est.rate_to(peer) == pytest.approx(offline.rate(0, peer), rel=0.05)
