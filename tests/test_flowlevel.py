"""Flow-level max-min fairness model tests."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.simulation.flowlevel import (
    flow_level_throughput,
    flow_routes,
    max_min_rates,
)


class TestMaxMinRates:
    def test_single_bottleneck_shared(self):
        rates = max_min_rates([["L"], ["L"]])
        assert rates == [0.5, 0.5]

    def test_classic_three_flow(self):
        # Flows: A on link1, B on link1+link2, C on link2.
        rates = max_min_rates([["l1"], ["l1", "l2"], ["l2"]])
        assert rates == pytest.approx([0.5, 0.5, 0.5])

    def test_unequal_bottlenecks(self):
        # f0 alone on fat path; f1 and f2 share one link.
        rates = max_min_rates([["a"], ["b"], ["b"]])
        assert rates == pytest.approx([1.0, 0.5, 0.5])

    def test_max_min_property(self):
        # The bottlenecked flow gets its fair share, the free flow the
        # leftovers: f0 uses l1 only, f1 uses l1 and l2, f2 uses l2
        # twice as heavy: verify monotone water filling.
        flows = [["l1"], ["l1", "l2"], ["l2"], ["l2"]]
        rates = max_min_rates(flows)
        assert rates[1] == pytest.approx(1 / 3)
        assert rates[2] == pytest.approx(1 / 3)
        assert rates[3] == pytest.approx(1 / 3)
        assert rates[0] == pytest.approx(2 / 3)

    def test_empty_route_gets_capacity(self):
        assert max_min_rates([[]]) == [1.0]

    def test_custom_capacity(self):
        rates = max_min_rates([["x"], ["x"]], capacity=4.0)
        assert rates == [2.0, 2.0]

    def test_no_flow(self):
        assert max_min_rates([]) == []

    def test_total_per_link_never_exceeds_capacity(self, rng):
        # Random flows over a small link universe.
        links = [f"l{i}" for i in range(6)]
        flows = [
            [links[rng.randrange(6)] for _ in range(rng.randint(1, 3))]
            for _ in range(40)
        ]
        rates = max_min_rates(flows)
        usage: dict[str, float] = {}
        for route, rate in zip(flows, rates):
            # Full multiplicity: a flow visiting a link twice consumes
            # it once per traversal.
            for link in route:
                usage[link] = usage.get(link, 0.0) + rate
        assert all(u <= 1.0 + 1e-9 for u in usage.values())

    @pytest.mark.parametrize("capacity", [1e5, 1e9])
    def test_rates_scale_with_capacity(self, capacity):
        """Saturation is detected relative to ``capacity``: at large
        capacities the bottleneck's float residue stays far above any
        absolute tolerance, which once ended filling after round one."""
        rand = random.Random(2024)
        for _ in range(300):
            flows = [
                [rand.randrange(6) for _ in range(rand.randint(1, 4))]
                for _ in range(rand.randint(1, 25))
            ]
            unit = max_min_rates(flows)
            scaled = max_min_rates(flows, capacity)
            assert scaled == pytest.approx([capacity * r for r in unit], rel=1e-9)


def assert_max_min_certificate(flows, rates, capacity=1.0):
    """Check max-min fairness directly, without a reference solver.

    The allocation is feasible, and every flow has a bottleneck: a
    saturated link on its route where no other flow gets a higher
    rate.  Usage counts multiplicity.
    """
    slack = 1e-9 * capacity
    usage: dict = {}
    users: dict = {}
    for i, route in enumerate(flows):
        for link in route:
            usage[link] = usage.get(link, 0.0) + rates[i]
            users.setdefault(link, set()).add(i)
    assert all(u <= capacity + slack for u in usage.values())
    for i, route in enumerate(flows):
        if not route:
            assert rates[i] == capacity
            continue
        assert any(
            usage[link] >= capacity - slack
            and all(rates[i] >= rates[j] - slack for j in users[link])
            for link in route
        ), f"flow {i} (rate {rates[i]}) has no bottleneck link"


class TestMaxMinCertificate:
    @settings(max_examples=100, deadline=None)
    @given(
        flows=st.lists(
            st.lists(st.integers(0, 7), min_size=0, max_size=5),
            max_size=30,
        ),
        capacity=st.sampled_from([1.0, 4.0, 1e6, 1e9]),
    )
    # At this capacity an absolute saturation tolerance left every
    # flow at the first round's share, 9091 instead of up to 1e5.
    @example(
        flows=[
            [1, 1, 1, 0], [2], [0], [1, 1, 1], [0, 1, 0], [2, 0, 4],
            [4, 1, 0], [2, 0, 4], [3, 4, 1, 0], [2, 2], [3], [2, 3],
            [1], [2, 0], [3], [5], [1],
        ],
        capacity=1e5,
    )
    def test_random_incidences(self, flows, capacity):
        assert_max_min_certificate(flows, max_min_rates(flows, capacity), capacity)

    @pytest.mark.parametrize("traffic", ["uniform", "random-pairing", "fixed-random"])
    def test_real_routes(self, rfc_medium, traffic):
        from repro.simulation.traffic import make_traffic

        rand = random.Random(3)
        traffic_fn = make_traffic(traffic, rfc_medium.num_terminals, rng=rand)
        pairs = [
            (t, traffic_fn.destination(t, rand))
            for t in range(rfc_medium.num_terminals)
            for _ in range(4)
        ]
        routes = flow_routes(rfc_medium, pairs, rng=rand)
        assert_max_min_certificate(routes, max_min_rates(routes))


class TestFlowRoutes:
    def test_route_structure(self, rfc_medium):
        [route] = flow_routes(rfc_medium, [(0, 100)], rng=1)
        assert route[0] == ("inj", 0)
        assert route[-1] == ("ej", 100)
        # Interior entries are directed switch links.
        for link in route[1:-1]:
            a, b = link
            assert isinstance(a, int) and isinstance(b, int)

    def test_same_leaf_route_minimal(self, rfc_medium):
        hosts = rfc_medium.hosts_per_leaf
        [route] = flow_routes(rfc_medium, [(0, hosts - 1)], rng=1)
        assert route == [("inj", 0), ("ej", hosts - 1)]


class TestThroughput:
    def test_in_unit_interval(self, cft_8_3):
        for name in ("uniform", "random-pairing", "fixed-random"):
            value = flow_level_throughput(cft_8_3, name, rng=2)
            assert 0.0 < value <= 1.0

    def test_cft_pairing_beats_rfc(self, cft_8_3, rfc_medium):
        """Paper Figure 8: the rearrangeably non-blocking CFT wins
        random-pairing against the equal-resource RFC."""
        cft = flow_level_throughput(
            cft_8_3, "random-pairing", paths_per_flow=6, rng=3
        )
        rfc = flow_level_throughput(
            rfc_medium, "random-pairing", paths_per_flow=6, rng=3
        )
        assert cft > rfc

    def test_uniform_near_parity(self, cft_8_3, rfc_medium):
        cft = flow_level_throughput(
            cft_8_3, "uniform", flows_per_terminal=4, rng=4
        )
        rfc = flow_level_throughput(
            rfc_medium, "uniform", flows_per_terminal=4, rng=4
        )
        assert abs(cft - rfc) < 0.15

    def test_fixed_random_capped_by_hotspots(self, cft_8_3):
        hot = flow_level_throughput(cft_8_3, "fixed-random", rng=5)
        uni = flow_level_throughput(
            cft_8_3, "uniform", flows_per_terminal=4, rng=5
        )
        assert hot < uni


class TestClosedFormFixtures:
    """Hand-computable 2-3 switch fixtures: all routes are forced, so
    the max-min allocation is known in closed form."""

    @staticmethod
    def _dumbbell(hosts_per_leaf):
        """Two leaves, one spine (3 switches): every cross-leaf route
        is forced through the single spine."""
        from repro.topologies.base import FoldedClos

        return FoldedClos(
            level_sizes=[2, 1],
            up_adjacency=[[[0], [0]]],
            hosts_per_leaf=hosts_per_leaf,
            radix=2 + hosts_per_leaf,
            name="dumbbell",
        )

    def test_forced_route_shape(self):
        topo = self._dumbbell(2)
        # Switch flat ids: leaf0=0, leaf1=1, spine=2.
        [route] = flow_routes(topo, [(0, 2)], rng=0)
        assert route == [("inj", 0), (0, 2), (2, 1), ("ej", 2)]

    def test_two_cross_flows_halve(self):
        """Both leaf-0 hosts send cross: they share the single up-link
        (0 -> spine), so max-min gives each exactly 1/2."""
        topo = self._dumbbell(2)
        routes = flow_routes(topo, [(0, 2), (1, 3)], rng=0)
        rates = max_min_rates(routes)
        assert rates == pytest.approx([0.5, 0.5])

    def test_symmetric_cross_traffic_halves_everywhere(self):
        """Adding the reverse flows uses the opposite directed links,
        so all four rates stay exactly 1/2."""
        topo = self._dumbbell(2)
        pairs = [(0, 2), (1, 3), (2, 0), (3, 1)]
        rates = max_min_rates(flow_routes(topo, pairs, rng=0))
        assert rates == pytest.approx([0.5, 0.5, 0.5, 0.5])

    def test_intra_leaf_flow_rides_free(self):
        """An intra-leaf flow only touches its private inj/ej links and
        gets full rate while the cross flows split the shared
        (leaf1 -> spine) link and terminal-0 ejection link fairly."""
        topo = self._dumbbell(2)
        pairs = [(0, 1), (2, 0), (3, 0)]
        rates = max_min_rates(flow_routes(topo, pairs, rng=0))
        assert rates == pytest.approx([1.0, 0.5, 0.5])

    def test_ejection_link_is_a_bottleneck(self):
        """Two cross flows converging on one terminal share its
        ejection link even though the spine links could carry more --
        the hot-spot effect of the paper's fixed-random traffic."""
        topo = self._dumbbell(2)
        pairs = [(0, 2), (1, 3), (2, 1), (3, 1)]
        rates = max_min_rates(flow_routes(topo, pairs, rng=0))
        # Forward flows split (leaf0 -> spine); reverse flows split
        # both (leaf1 -> spine) and ejection link of terminal 1.
        assert rates == pytest.approx([0.5, 0.5, 0.5, 0.5])

    def test_asymmetric_mix_waterfills(self):
        """Three cross flows from leaf 0 against one from leaf 1: the
        shared (leaf0 -> spine) link splits three ways."""
        topo = self._dumbbell(4)
        pairs = [(0, 4), (1, 5), (2, 6), (4, 0)]
        rates = max_min_rates(flow_routes(topo, pairs, rng=0))
        assert rates == pytest.approx([1 / 3, 1 / 3, 1 / 3, 1.0])

    def test_throughput_two_terminal_forced(self):
        """With one host per leaf every named traffic is the forced
        0 <-> 1 exchange; both directions have private links, so the
        max-min throughput is exactly 1.0."""
        topo = self._dumbbell(1)
        for name in ("uniform", "random-pairing", "fixed-random"):
            for seed in (0, 1, 7):
                value = flow_level_throughput(topo, name, rng=seed)
                assert value == pytest.approx(1.0), (name, seed)

    def test_throughput_subflows_share_injection(self):
        """uniform with flows_per_terminal > 1 on the forced network:
        subflows split the injection link but the per-source sum is
        still capped at exactly 1.0."""
        topo = self._dumbbell(1)
        value = flow_level_throughput(
            topo, "uniform", flows_per_terminal=3, paths_per_flow=2, rng=9
        )
        assert value == pytest.approx(1.0)
