"""Dict-based progressive-filling max-min solver: the test oracle.

This is the original pure-Python formulation of
:func:`repro.simulation.flowlevel.max_min_rates`, kept here so that the
array-native solver in ``src/`` can be pinned to it bit for bit.  It
walks every link key with an active user each round, in the same float
operations the array solver applies element-wise:

* ``room = remaining / weight`` per used link, ``increment = min(room)``;
* ``remaining -= increment * weight`` per used link;
* every active flow's rate ``+= increment``;
* flows on a saturated link freeze.

A link saturates when its residue is within ``1e-12 * capacity`` of
zero *or* it set this round's increment (``room == increment``), so
every round freezes at least one flow whatever the capacity scale.
"""

from __future__ import annotations

from typing import Hashable, Sequence


def max_min_rates_oracle(
    flows: Sequence[Sequence[Hashable]],
    capacity: float = 1.0,
) -> list[float]:
    """Max-min fair rates of ``flows`` (link-key routes) on links of
    ``capacity``; a link visited k times costs k units per unit rate."""
    tolerance = 1e-12 * capacity
    remaining: dict[Hashable, float] = {}
    users: dict[Hashable, dict[int, int]] = {}
    for i, route in enumerate(flows):
        for link in route:
            remaining.setdefault(link, capacity)
            counts = users.setdefault(link, {})
            counts[i] = counts.get(i, 0) + 1
    rates = [0.0] * len(flows)
    active: set[int] = {i for i, route in enumerate(flows) if route}
    for i, route in enumerate(flows):
        if not route:
            rates[i] = capacity

    while active:
        rooms: dict[Hashable, float] = {}
        for link, counts in users.items():
            weight = sum(counts.values())
            if weight:
                rooms[link] = remaining[link] / weight
        increment = min(rooms.values())
        saturated: list[Hashable] = []
        for link, room in rooms.items():
            remaining[link] -= increment * sum(users[link].values())
            if remaining[link] <= tolerance or room == increment:
                saturated.append(link)
        for i in active:
            rates[i] += increment
        frozen: set[int] = set()
        for link in saturated:
            frozen |= users[link].keys()
        assert frozen, "a round must freeze at least one flow"
        active -= frozen
        for counts in users.values():
            for i in frozen:
                counts.pop(i, None)
    return rates
