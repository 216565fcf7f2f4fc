"""The array-native max-min solver against the dict-based oracle.

Progressive filling applies the same float operations to every link
and flow in both formulations, and ``min`` is exact, so the rates must
be equal bit for bit -- on random incidences and on the real subflow
routes ``flow_level_throughput`` builds for the paper's traffics.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowlevel_oracle import max_min_rates_oracle
from repro.core.rfc import rfc_with_updown
from repro.simulation import flowlevel
from repro.simulation.flowlevel import flow_level_throughput, max_min_rates
from repro.topologies.fattree import commodity_fat_tree

# Short routes over a small link alphabet: repeated links within a
# route (multiplicity) and shared links across routes are common.
routes = st.lists(
    st.lists(st.integers(0, 7), min_size=0, max_size=6),
    min_size=0,
    max_size=30,
)


@settings(max_examples=150, deadline=None)
@given(flows=routes, capacity=st.sampled_from([1.0, 4.0, 1e6]))
# Links 2 and 3 saturate together in the second round, link 3 with a
# float residue of 6e-11; only a capacity-relative tolerance freezes
# both at once.
@example(flows=[[1, 1, 3], [3, 1], [1], [2, 2, 2], [3, 3], [1, 1]], capacity=1e6)
def test_random_incidences_match_oracle(flows, capacity):
    keys = [[f"l{x}" for x in route] for route in flows]
    assert max_min_rates(keys, capacity) == max_min_rates_oracle(keys, capacity)


@settings(max_examples=50, deadline=None)
@given(
    flows=st.lists(
        st.lists(st.integers(0, 2), min_size=1, max_size=8),
        min_size=1,
        max_size=12,
    )
)
def test_heavy_multiplicity_matches_oracle(flows):
    """Three links, long routes: most flows revisit links several
    times and many links tie for the bottleneck."""
    assert max_min_rates(flows) == max_min_rates_oracle(flows)


@pytest.mark.parametrize(
    "flows",
    [[], [[]], [[], []], [["a"], [], ["a", "a"]], [[("inj", 0)], [("inj", 0)]]],
    ids=["no-flows", "one-empty", "two-empty", "empty-among-shared", "tuple-keys"],
)
@pytest.mark.parametrize("capacity", [1.0, 4.0, 1e6])
def test_edge_cases_match_oracle(flows, capacity):
    assert max_min_rates(flows, capacity) == max_min_rates_oracle(flows, capacity)


NETWORKS = {
    "cft_8_3": lambda: commodity_fat_tree(8, 3),
    "rfc_8_32_3": lambda: rfc_with_updown(8, 32, 3, rng=0)[0],
    "rfc_12_72_3": lambda: rfc_with_updown(12, 72, 3, rng=0)[0],
}


@pytest.fixture(scope="module", params=sorted(NETWORKS))
def network(request):
    return NETWORKS[request.param]()


@pytest.mark.parametrize("traffic", ["uniform", "random-pairing", "fixed-random"])
def test_real_routes_match_oracle(network, traffic, monkeypatch):
    """Every solve inside ``flow_level_throughput`` -- real up/down
    subflow routes with injection and ejection links -- equals the
    oracle exactly."""
    checked: list[bool] = []

    def solve(flows, capacity=1.0):
        rates = max_min_rates(flows, capacity)
        checked.append(rates == max_min_rates_oracle(flows, capacity))
        return rates

    monkeypatch.setattr(flowlevel, "max_min_rates", solve)
    flow_level_throughput(network, traffic, flows_per_terminal=2, rng=0)
    assert checked == [True]
