"""repro -- Random Folded Clos datacenter network topologies.

A reproduction of *"Random Folded Clos Topologies for Datacenter
Networks"* (Camarero, Martinez, Beivide; HPCA 2017): topology
generators (RFC, CFT, k-ary trees, OFT, RRN/Jellyfish), up/down ECMP
routing, a cycle-driven virtual cut-through network simulator, fault
and cost models, and an experiment harness regenerating every table and
figure of the paper's evaluation.

Quickstart::

    from repro import rfc_with_updown, UpDownRouter

    topo, attempts = rfc_with_updown(radix=12, n1=24, levels=3, rng=1)
    router = UpDownRouter.for_topology(topo)
    print(router.path(0, 17, rng=1))

See ``examples/`` for runnable scenarios and ``DESIGN.md`` for the
full system inventory.
"""

from .analysis import NetworkReport, analyze_network
from .core import (
    ExpansionError,
    RewiringReport,
    UpDownNotFound,
    common_ancestors_of,
    expand_rfc,
    expand_rrn,
    has_updown_routing_of,
    radix_regular_rfc,
    random_folded_clos,
    rfc_max_leaves,
    rfc_max_terminals,
    rfc_with_updown,
    strong_expansion_limit,
    threshold_radix,
    threshold_radix_simplified,
    updown_probability,
    weak_expand_rfc,
    x_for_radix,
)
from .routing import RoutingError, UpDownRouter, k_shortest_paths
from .topologies import (
    DirectNetwork,
    FoldedClos,
    GenerationError,
    Link,
    NetworkError,
    commodity_fat_tree,
    k_ary_l_tree,
    orthogonal_fat_tree,
    random_regular_network,
    xgft,
)

__version__ = "1.12.0"

__all__ = [
    "__version__",
    # Topologies
    "FoldedClos",
    "DirectNetwork",
    "Link",
    "NetworkError",
    "GenerationError",
    "commodity_fat_tree",
    "k_ary_l_tree",
    "xgft",
    "orthogonal_fat_tree",
    "random_regular_network",
    # Core (RFC)
    "radix_regular_rfc",
    "random_folded_clos",
    "rfc_with_updown",
    "UpDownNotFound",
    "has_updown_routing_of",
    "common_ancestors_of",
    "threshold_radix",
    "threshold_radix_simplified",
    "updown_probability",
    "x_for_radix",
    "rfc_max_leaves",
    "rfc_max_terminals",
    "expand_rfc",
    "expand_rrn",
    "weak_expand_rfc",
    "strong_expansion_limit",
    "RewiringReport",
    "ExpansionError",
    # Routing
    "UpDownRouter",
    "RoutingError",
    "k_shortest_paths",
    # Analysis
    "NetworkReport",
    "analyze_network",
]
