"""Flow-level max-min-fair throughput model.

The cycle-accurate engine is exact but pure-Python slow; the paper's
100K/200K-terminal scenarios are far beyond it.  This module provides
the standard flow-level abstraction used for such scales: every
(source, destination) pair is a *flow* on a fixed route, every directed
link has unit capacity (1 phit/cycle), and rates are assigned
**max-min fairly** by progressive filling.  The mean per-terminal rate
is then the normalized accepted load, directly comparable to the
engine's saturation throughput (cross-validated in the tests on small
networks, where both agree on ranking and roughly on magnitude).

Injection and ejection links (capacity 1 per terminal) are part of the
model, so a hot-spot destination saturates its ejection link exactly as
in the paper's fixed-random traffic.
"""

from __future__ import annotations

import itertools
import random
from typing import Hashable, Iterable, Sequence

import numpy as np

from ..routing.updown import UpDownRouter
from ..topologies.base import FoldedClos
from .traffic import TrafficPattern, make_traffic

__all__ = [
    "max_min_rates",
    "flow_routes",
    "flow_level_throughput",
]

LinkKey = Hashable


def _gather(ptr: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Concatenated CSR index ranges ``ptr[i]:ptr[i + 1]`` for ``ids``."""
    starts = ptr[ids]
    counts = ptr[ids + 1] - starts
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(counts.sum())


def _distinct(ids: np.ndarray, mark: np.ndarray) -> np.ndarray:
    """``ids`` without repeats, in no set order; ``mark`` is scratch
    with one slot per possible id."""
    order = np.arange(ids.size)
    mark[ids] = order
    return ids[mark[ids] == order]


def max_min_rates(
    flows: Sequence[Sequence[LinkKey]],
    capacity: float = 1.0,
) -> list[float]:
    """Progressive-filling max-min fair rates on links of ``capacity``.

    ``flows[i]`` is the sequence of link keys flow ``i`` traverses; a
    flow that visits a link k times consumes k units of it per unit of
    rate.  A flow with an empty route gets rate ``capacity``.

    Link keys map to dense ids once; the flow x link incidence is held
    as CSR in both directions.  Each round takes ``increment =
    min(remaining / weight)`` over the links still in use, subtracts
    ``increment * weight`` from them, and freezes every flow on a
    saturated link: one whose residue is within ``1e-12 * capacity``
    of zero or which set the increment, so every round freezes at
    least one flow.  Only the frozen flows' links get their weights
    decremented, and a flow's rate is the running sum of the
    increments up to the round it froze in.
    """
    link_ids: dict[LinkKey, int] = {}
    entry_link = np.array(
        [link_ids.setdefault(link, len(link_ids)) for route in flows for link in route],
        dtype=np.int32,
    )
    lengths = np.array([len(route) for route in flows], dtype=np.intp)
    flow_ptr = np.zeros(len(flows) + 1, dtype=np.intp)
    np.cumsum(lengths, out=flow_ptr[1:])
    users = np.bincount(entry_link, minlength=len(link_ids))
    link_ptr = np.zeros(len(link_ids) + 1, dtype=np.intp)
    np.cumsum(users, out=link_ptr[1:])
    link_flows = np.repeat(np.arange(len(flows), dtype=np.int32), lengths)[
        np.argsort(entry_link, kind="stable")
    ]

    # ``users`` counts each link's live entries by link id.  The
    # per-link float state is held in slots, compacted once half of it
    # is dead: ``live[k]`` is the link id in slot k and ``slot`` the
    # inverse map.  A dead link (no users) gets remaining = inf and
    # weight 1, so its room is inf and it never saturates.
    live = np.arange(len(link_ids))
    slot = live.copy()
    remaining = np.full(len(link_ids), capacity, dtype=np.float64)
    weight = users.astype(np.float64)
    dead = 0
    tolerance = 1e-12 * capacity
    frozen_in = np.full(len(flows), -1, dtype=np.intp)
    flow_mark = np.empty(len(flows), dtype=np.intp)
    link_mark = np.empty(len(link_ids), dtype=np.intp)
    increments: list[float] = []
    active = int(np.count_nonzero(lengths))
    while active:
        room = remaining / weight
        increment = room.min()
        remaining -= increment * weight
        saturated = live[(remaining <= tolerance) | (room == increment)]
        on_saturated = link_flows[_gather(link_ptr, saturated)]
        frozen = _distinct(on_saturated[frozen_in[on_saturated] < 0], flow_mark)
        assert frozen.size, "a round must freeze at least one flow"
        frozen_in[frozen] = len(increments)
        increments.append(float(increment))
        active -= frozen.size

        links = entry_link[_gather(flow_ptr, frozen)]
        np.subtract.at(users, links, 1)
        weight[slot[links]] = users[links]
        gone = _distinct(slot[links[users[links] == 0]], link_mark)
        remaining[gone] = np.inf
        weight[gone] = 1.0
        dead += gone.size
        if 2 * dead > live.size:
            keep = np.flatnonzero(remaining != np.inf)
            live, remaining, weight = live[keep], remaining[keep], weight[keep]
            slot[live] = np.arange(live.size)
            dead = 0
    # Sequential prefix sums add the increments in the same order as
    # accumulating them flow by flow, round by round.
    filled = np.array([0.0, *itertools.accumulate(increments)])
    rates = filled[frozen_in + 1]
    rates[lengths == 0] = capacity
    return rates.tolist()


def flow_routes(
    topo: FoldedClos,
    pairs: Iterable[tuple[int, int]],
    rng: random.Random | int | None = None,
    router: UpDownRouter | None = None,
) -> list[list[LinkKey]]:
    """Routes for terminal pairs over random minimal up/down paths.

    Each route includes the injection link ``("inj", src)``, the
    directed switch links and the ejection link ``("ej", dst)``.
    """
    rand = rng if isinstance(rng, random.Random) else random.Random(rng)
    router = router or UpDownRouter.for_topology(topo)
    routes: list[list[LinkKey]] = []
    for src, dst in pairs:
        src_leaf = src // topo.hosts_per_leaf
        dst_leaf = dst // topo.hosts_per_leaf
        hops = router.path(src_leaf, dst_leaf, rng=rand)
        route: list[LinkKey] = [("inj", src)]
        for (la, ia), (lb, ib) in zip(hops, hops[1:]):
            route.append(
                (topo.switch_id(la, ia), topo.switch_id(lb, ib))
            )
        route.append(("ej", dst))
        routes.append(route)
    return routes


def flow_level_throughput(
    topo: FoldedClos,
    traffic_name: str,
    flows_per_terminal: int = 1,
    paths_per_flow: int = 4,
    rng: random.Random | int | None = None,
) -> float:
    """Mean normalized per-terminal accepted load under max-min fairness.

    For permutation-like traffic (``random-pairing``, ``fixed-random``)
    one pair per terminal is the exact model; for ``uniform`` each
    terminal contributes ``flows_per_terminal`` random pairs.  Every
    pair is split into ``paths_per_flow`` subflows over independently
    sampled minimal up/down routes, which approximates the per-packet
    ECMP spreading of the cycle-level engine (a single static path per
    pair would badly understate CFT/RFC permutation throughput).

    Shared injection/ejection links cap each terminal's aggregate rate
    at 1, so the returned value is directly comparable to the engine's
    ``accepted_load`` at saturation.
    """
    rand = rng if isinstance(rng, random.Random) else random.Random(rng)
    traffic: TrafficPattern = make_traffic(
        traffic_name, topo.num_terminals, rng=rand
    )
    pairs: list[tuple[int, int]] = []
    for terminal in range(topo.num_terminals):
        silent = getattr(traffic, "is_silent", None)
        if silent is not None and silent(terminal):
            continue
        count = flows_per_terminal if traffic_name == "uniform" else 1
        for _ in range(count):
            pairs.append((terminal, traffic.destination(terminal, rand)))
    if not pairs:
        return 0.0
    subpairs = [pair for pair in pairs for _ in range(max(1, paths_per_flow))]
    routes = flow_routes(topo, subpairs, rng=rand)
    rates = max_min_rates(routes)
    per_source: dict[int, float] = {}
    for (src, _), rate in zip(subpairs, rates):
        per_source[src] = per_source.get(src, 0.0) + rate
    return sum(min(1.0, r) for r in per_source.values()) / topo.num_terminals
