"""Precomputed-route fast path for the cycle-level engine.

:meth:`~repro.simulation.engine.Simulator.run` historically re-derived
every hop decision from router objects (bitmask scans, dict lookups,
per-hop list building) and drove the schedule through a Python
``heapq``.  Profiling shows those two costs dominate a run.  This
module removes both while staying **bit-for-bit identical** to the
reference engine:

* **CSR candidate tables** -- one precomputation pass flattens every
  switch's per-destination output candidates (including the up/down
  direction choice and the Valiant via phase, which shares the same
  table keyed by the intermediate leaf) into
  :class:`~repro.routing.table.CsrTable` ``int32`` offset/value
  arrays.  The hot loop then finds a head packet's candidates with one
  multiply and one list index instead of a router call per hop --
  and, crucially, per *blocked* hop re-evaluation, which the
  arbitration loop performs every cycle a packet waits.
* **Calendar-queue event wheel** -- the fixed-horizon schedule is kept
  in :class:`EventWheel`, one FIFO bucket per cycle.  The reference
  heap orders events by ``(time, seq)`` with ``seq`` increasing on
  every push; because the engine never schedules into the past,
  per-bucket FIFO order *is* ``seq`` order, so the wheel dequeues in
  exactly the heap's order without the log-n tuple churn (proven for
  arbitrary interleavings by ``tests/test_eventwheel_properties.py``).

Equivalence contract (enforced by ``tests/test_fastpath_differential
.py``): same RNG call order and arguments, same
:class:`~repro.simulation.stats.SimResult`, same per-link busy-cycle
counters, same packet traces and the same observer callback stream as
:meth:`Simulator.run_reference`.  Candidate lists are materialized by
calling the *same* router methods the reference engine calls, so the
per-candidate order -- which feeds ``rng.choice`` -- cannot drift.

The run loop itself is one large function with aggressively
locals-bound state and the reference's helper calls inlined; that is
deliberate (CPython attribute lookups and function calls are the
remaining cost once routing and the heap are precomputed).  Any
behavioural change here must be mirrored from/to the reference engine
and will be caught by the differential suite.
"""

from __future__ import annotations

import math

import numpy as np

from ..obs.hooks import event_hooks
from ..routing.table import CsrTable
from .engine import _EJECT, _EV_ARB, _EV_CREDIT, _EV_GEN, _INJECT, _LINK
from .packet import Packet
from .stats import SimResult, SimStats

__all__ = [
    "EventWheel",
    "build_candidate_table",
    "candidate_lists",
    "destination_layout",
    "route_memo",
    "run_fast",
]


class EventWheel:
    """Calendar queue over a fixed horizon: one FIFO bucket per cycle.

    Replaces the reference engine's ``heapq`` for the run schedule.
    The heap's order is ``(time, seq)`` with a globally increasing
    sequence number; since the engine only ever schedules at or after
    the cycle currently being drained, appending to ``buckets[time]``
    preserves sequence order exactly, and events past the horizon --
    which the reference loop would never pop -- are dropped at push
    time (:meth:`push` returns ``False``).

    The engine's run loop drives :attr:`buckets` inline (a method call
    per event is measurable on the hottest path); :meth:`push` /
    :meth:`pop` implement the identical discipline for tests and
    non-critical callers.
    """

    __slots__ = ("horizon", "buckets", "time", "index", "pending")

    def __init__(self, horizon: int) -> None:
        if horizon < 0:
            raise ValueError("horizon cannot be negative")
        self.horizon = horizon
        self.buckets: list[list] = [[] for _ in range(horizon + 1)]
        self.time = 0
        self.index = 0
        self.pending = 0

    def push(self, time: int, item) -> bool:
        """Schedule ``item`` at ``time``; False when past the horizon."""
        if time > self.horizon:
            return False
        if time < self.time:
            raise ValueError(
                f"cannot schedule into the past (t={time} < {self.time})"
            )
        self.buckets[time].append(item)
        self.pending += 1
        return True

    def pop(self):
        """Next ``(time, item)`` in (time, push-order), or ``None``."""
        while self.time <= self.horizon:
            bucket = self.buckets[self.time]
            if self.index < len(bucket):
                item = bucket[self.index]
                self.index += 1
                self.pending -= 1
                return self.time, item
            bucket.clear()  # drained cycles can never be scheduled again
            self.time += 1
            self.index = 0
        return None

    def __len__(self) -> int:
        return self.pending


def route_memo(sim) -> dict:
    """The route-table memo ``sim`` shares with its pruned network.

    Route tables depend only on the topology, the removed links and
    ``minimal_routing``, so they are cached on the topology object (as
    its link enumeration is) under ``(sim.removed_links,
    params.minimal_routing)``: every simulator of the same pruned
    network reuses one table.  A topology keeps one key only; a
    simulator with another key replaces the memo, so a fault sweep
    releases each pruned network's tables when it moves on.  The memo
    maps a table name to the table; the first simulator of a key fills
    it.
    """
    key = (sim.removed_links, sim.params.minimal_routing)
    slot = getattr(sim.topo, "_route_tables", None)
    if slot is None or slot[0] != key:
        slot = sim.topo._route_tables = (key, {})
    return slot[1]


def build_candidate_table(sim) -> CsrTable:
    """Flatten ``sim``'s routing into a channel-id :class:`CsrTable`.

    Keys are ``switch * num_dests + dest`` where ``dest`` is a
    destination *leaf* on folded Clos networks and a destination
    *switch* on direct ones.  Values are viable output channel ids in
    exactly the order :meth:`Simulator._output_candidates` would build
    them (the tables are materialized by calling the same router
    methods), so downstream ``rng.choice`` calls see identical
    sequences.  The table is cached in :func:`route_memo`.
    """
    memo = route_memo(sim)
    table = memo.get("csr")
    if table is not None:
        return table
    if sim._direct:
        router_csr = sim.direct_router.csr_table()
        link_channel = sim.link_channel
        sources = router_csr.source_of_value().tolist()
        hops = router_csr.values.tolist()
        channels = np.fromiter(
            (link_channel[(s, t)] for s, t in zip(sources, hops)),
            dtype=np.int32,
            count=len(hops),
        )
        table = CsrTable(
            router_csr.num_sources,
            router_csr.num_dests,
            router_csr.offsets,
            channels,
            router_csr.flags,
        )
    else:
        from ..routing.updown import RoutingError

        topo = sim.topo
        router = sim.router
        link_channel = sim.link_channel
        level_of = sim.level_of
        index_of = sim.index_of
        level_offsets = sim.level_offsets
        minimal = sim.params.minimal_routing

        def entry(switch: int, leaf: int) -> tuple[int, list[int]]:
            level = level_of[switch]
            index = index_of[switch]
            if level == 0 and index == leaf:
                return CsrTable.DELIVER, []
            try:
                direction, nbrs = router.next_hops(
                    level, index, leaf, minimal=minimal
                )
            except RoutingError:
                return CsrTable.UNROUTABLE, []
            offset = level_offsets[
                level + 1 if direction == "up" else level - 1
            ]
            return CsrTable.ROUTE, [
                link_channel[(switch, offset + t)] for t in nbrs
            ]

        table = CsrTable.build(topo.num_switches, topo.num_leaves, entry)
    memo["csr"] = table
    return table


def candidate_lists(sim) -> tuple[list, list[bool]]:
    """``(cand_lists, routable)`` for the interpreter-bound run loops.

    ``cand_lists`` is :meth:`CsrTable.to_lists` of
    :func:`build_candidate_table` (``None`` for unroutable keys) and
    ``routable[key]`` is False exactly for those keys.  Memoized next
    to the table, so the lists are shared by every run of the pruned
    network and must never be mutated.
    """
    memo = route_memo(sim)
    lists = memo.get("lists")
    if lists is None:
        table = build_candidate_table(sim)
        lists = memo["lists"] = (
            table.to_lists(),
            (table.flags != CsrTable.UNROUTABLE).tolist(),
        )
    return lists


def destination_layout(sim) -> tuple[list[int], list[int], int]:
    """Per-terminal destination encoding, computed once per run.

    Returns ``(dest_key, dest_home, vcs_cap)``, one encoding for both
    topology kinds.  ``dest_key[t]`` is terminal ``t``'s destination
    column in :func:`build_candidate_table` (its leaf on a folded Clos,
    its switch on a direct network) and ``dest_home[t]`` is the switch
    that ejects it.  So a packet for ``t`` at ``switch`` is delivered
    when ``switch == dest_home[t]`` and otherwise takes the candidates
    keyed ``switch * num_dests + dest_key[t]``, and terminal ``s`` can
    reach ``t`` exactly when key ``dest_home[s] * num_dests +
    dest_key[t]`` is routable.  ``vcs_cap`` caps the hop-indexed VC
    class of direct networks (0 on folded Clos).  Shared by the fast
    and relaxed engines.
    """
    topo = sim.topo
    terminals = range(topo.num_terminals)
    dest_home = [topo.terminal_switch(t) for t in terminals]
    if sim._direct:
        return dest_home, dest_home, sim.params.virtual_channels - 1
    hosts = topo.hosts_per_leaf
    return [t // hosts for t in terminals], dest_home, 0


def run_fast(sim) -> SimResult:
    """Execute ``sim`` through the precomputed-route engine.

    Bit-for-bit mirror of :meth:`Simulator.run_reference`; every block
    below is annotated with the reference helper it inlines.  Shares
    the simulator's channel state lists, so post-run inspection
    (``link_utilization`` etc.) works identically.
    """
    params = sim.params
    stats = SimStats(warmup=params.warmup_cycles, horizon=params.horizon)
    sim._stats = stats
    rng = sim.rng
    horizon = params.horizon
    phits = params.packet_phits
    latency = params.link_latency
    warmup = params.warmup_cycles
    vcs = params.virtual_channels
    rate = sim.load / phits  # packets / terminal / cycle
    traffic = sim.traffic
    obs = sim.observer
    # Hooks resolved once: an unresolved hook costs one ``is None`` test.
    on_inject, on_drop, on_arbitrate, on_hop, on_eject = event_hooks(obs)
    direct = sim._direct
    valiant = params.valiant and not direct
    iterations = params.arbitration_iterations
    adaptive = params.up_selection == "adaptive"
    rotating = params.arbiter == "rotating"
    trace_limit = sim.trace_limit
    traces = sim.traces
    num_terminals = sim.topo.num_terminals

    # ---- precomputation pass -------------------------------------------
    n_dests = build_candidate_table(sim).num_dests
    # A (source switch, dest) pair is routable unless flagged; replaces
    # the reference's per-packet min_ascent / reachable() injection
    # checks with one list index (identical truth table by
    # construction of the flags).
    cand_lists, routable = candidate_lists(sim)

    ch_src = sim.ch_src
    ch_dst = sim.ch_dst
    ch_kind = sim.ch_kind
    ch_peer = sim.ch_peer
    ch_busy = sim.ch_busy
    ch_slots = sim.ch_slots
    ch_queues = sim.ch_queues
    ch_blocked = sim.ch_blocked
    ch_busy_cycles = sim.ch_busy_cycles
    eject_channel = sim.eject_channel
    inject_channel = sim.inject_channel

    # Per-switch input units with queue objects and kinds prebound:
    # (cid, vc, queue, is_inject).
    units: list[list[tuple]] = [
        [
            (cid, vc, ch_queues[cid][vc], ch_kind[cid] == _INJECT)
            for cid, vc in row
        ]
        for row in sim.in_units
    ]

    dest_key, dest_home, vcs_cap = destination_layout(sim)
    half = vcs // 2
    # VC-class ranges, built once (the reference builds a range object
    # per candidate per scan): full for plain folded Clos, halves for
    # the two Valiant phases.  Direct networks use a width-1 class
    # checked as a single index instead.
    full_range = range(vcs)
    lo_range = range(0, half)
    hi_range = range(half, vcs)

    wheel = EventWheel(horizon)
    buckets = wheel.buckets
    # Pending-arbitration dedup, keyed ``time * num_switches + switch``
    # (ints hash much faster than the reference's (switch, time)
    # tuples; the encoding is injective so the dedup set is the same).
    n_sw = len(units)
    arb_marks: set[int] = set()
    arb_pointers: dict[int, int] | None = None
    choice = rng.choice
    next_serial = sim._next_serial

    if obs is not None:
        obs.on_run_start(sim)

    # ---- seed generation events (mirrors Simulator.run) ----------------
    # Flow workloads (duck-typed on ``flow_schedule``) seed one GEN
    # chain per terminal at its first release time and consume no RNG
    # for arrivals or destinations -- bit-for-bit with the reference.
    log1m = math.log1p(-rate) if rate < 1.0 else None
    log = math.log
    flow_schedule = getattr(traffic, "flow_schedule", None)
    if flow_schedule is not None:
        flow_rows = flow_schedule.releases
        flow_cursor = [0] * num_terminals
        for terminal, row in enumerate(flow_rows):
            if row and row[0][0] <= horizon:
                buckets[row[0][0]].append((_EV_GEN, terminal, 0))
    else:
        flow_rows = None
        flow_cursor = None
        silent = getattr(traffic, "is_silent", None)
        for terminal in range(num_terminals):
            if silent is not None and silent(terminal):
                continue
            if log1m is None:
                first = 0
            else:
                u = rng.random()
                first = (int(log(u) / log1m) + 1 if u > 0.0 else 1) - 1
            if first <= horizon:
                buckets[first].append((_EV_GEN, terminal, 0))

    destination = traffic.destination

    # ---- event wheel loop ----------------------------------------------
    t = 0
    while t <= horizon:
        bucket = buckets[t]
        i = 0
        while i < len(bucket):
            kind, a, b = bucket[i]
            i += 1

            if kind == _EV_ARB:
                # ==== mirrors Simulator._arbitrate =======================
                switch = a
                arb_marks.discard(t * n_sw + switch)
                total_requests = 0
                granted: set[int] = set()
                any_grant = False
                switch_units = units[switch]
                for _ in range(iterations):
                    requests: dict[int, list] = {}
                    for unit in switch_units:
                        queue = unit[2]
                        if not queue:
                            continue
                        cid = unit[0]
                        if granted and cid in granted:
                            continue
                        if unit[3] and ch_blocked[cid] > t:
                            continue
                        ready, packet = queue[0]
                        if ready > t:
                            continue
                        # ---- mirrors _output_candidates ----
                        deliver = False
                        cands = None
                        via = packet.via
                        if via is not None:
                            if switch == dest_home[via]:
                                packet.via = None
                                via = None
                            else:
                                cands = cand_lists[
                                    switch * n_dests + dest_key[via]
                                ]
                        if via is None:
                            dst = packet.dst
                            if switch == dest_home[dst]:
                                deliver = True
                            else:
                                cands = cand_lists[
                                    switch * n_dests + dest_key[dst]
                                ]
                        if deliver:
                            # Single eject candidate: busy test only
                            # (eject channels have no VC slots), no
                            # RNG draw -- as in the reference.
                            out = eject_channel[packet.dst]
                            if ch_busy[out] > t:
                                continue
                        else:
                            if cands is None:
                                # Unroutable pair: replay the
                                # reference router so folded Clos
                                # raises the identical RoutingError
                                # (direct networks return [] and the
                                # packet simply waits).
                                cands = sim._output_candidates(
                                    switch, packet
                                )
                            # ---- mirrors _vc_class (prebuilt VC
                            # ranges; direct = width-1 class) ----
                            if direct:
                                h = packet.hops
                                w0 = h if h < vcs_cap else vcs_cap
                                viable = [
                                    out
                                    for out in cands
                                    if ch_busy[out] <= t
                                    and ch_slots[out][w0] > 0
                                ]
                                vc_range = None
                            else:
                                if valiant:
                                    vc_range = (
                                        lo_range
                                        if via is not None
                                        else hi_range
                                    )
                                else:
                                    vc_range = full_range
                                viable = []
                                for out in cands:
                                    if ch_busy[out] > t:
                                        continue
                                    slots = ch_slots[out]
                                    for w in vc_range:
                                        if slots[w] > 0:
                                            viable.append(out)
                                            break
                            if not viable:
                                continue
                            if len(viable) == 1:
                                out = viable[0]
                            elif adaptive:
                                if vc_range is None:
                                    out = sim._most_credited(
                                        viable, w0, w0 + 1, rng
                                    )
                                else:
                                    out = sim._most_credited(
                                        viable,
                                        vc_range.start,
                                        vc_range.stop,
                                        rng,
                                    )
                            else:
                                out = choice(viable)
                        lst = requests.get(out)
                        if lst is None:
                            requests[out] = [(cid, unit[1], packet, queue)]
                        else:
                            lst.append((cid, unit[1], packet, queue))

                    if not requests:
                        break
                    if on_arbitrate is not None:
                        for contenders in requests.values():
                            total_requests += len(contenders)
                    for out, contenders in requests.items():
                        if len(contenders) == 1:
                            cid, vc, packet, queue = contenders[0]
                        elif rotating:
                            # ---- mirrors _rotate_pick ----
                            if arb_pointers is None:
                                arb_pointers = getattr(
                                    sim, "_arb_pointers", None
                                )
                                if arb_pointers is None:
                                    arb_pointers = {}
                                    sim._arb_pointers = arb_pointers
                            pointer = arb_pointers.get(out, -1)
                            ordered = sorted(
                                contenders, key=lambda c: (c[0], c[1])
                            )
                            chosen = next(
                                (c for c in ordered if c[0] > pointer),
                                ordered[0],
                            )
                            arb_pointers[out] = chosen[0]
                            cid, vc, packet, queue = chosen
                        else:
                            cid, vc, packet, queue = choice(contenders)

                        # ==== mirrors Simulator._grant ===================
                        queue.popleft()
                        busy_until = t + phits
                        ch_busy[out] = busy_until
                        lo = t if t > warmup else warmup
                        hi = busy_until if busy_until < horizon else horizon
                        if hi > lo:
                            ch_busy_cycles[out] += hi - lo
                        # Wake this switch when the output frees.
                        if busy_until <= horizon:
                            mark = busy_until * n_sw + switch
                            if mark not in arb_marks:
                                arb_marks.add(mark)
                                buckets[busy_until].append(
                                    (_EV_ARB, switch, 0)
                                )
                        if trace_limit and -1 < packet.serial < trace_limit:
                            trace = traces.get(packet.serial)
                            if trace is not None:
                                trace.append(
                                    (
                                        t,
                                        "eject"
                                        if ch_kind[out] == _EJECT
                                        else "forward",
                                        ch_peer[out],
                                    )
                                )
                        if ch_kind[out] == _EJECT:
                            delivered = t + latency + phits - 1
                            stats.on_delivered(packet, delivered, phits)
                            if on_eject is not None:
                                on_eject(
                                    t,
                                    packet,
                                    delivered - packet.created,
                                    phits,
                                )
                        else:
                            slots = ch_slots[out]
                            # ---- mirrors _vc_class (again, as the
                            # reference _grant recomputes it) ----
                            if direct:
                                h = packet.hops
                                w0 = h if h < vcs_cap else vcs_cap
                                free_vcs = (
                                    [w0] if slots[w0] > 0 else []
                                )
                            elif valiant:
                                vcr = (
                                    lo_range
                                    if packet.via is not None
                                    else hi_range
                                )
                                free_vcs = [
                                    wi for wi in vcr if slots[wi] > 0
                                ]
                            else:
                                free_vcs = [
                                    wi
                                    for wi in full_range
                                    if slots[wi] > 0
                                ]
                            w = (
                                free_vcs[0]
                                if len(free_vcs) == 1
                                else choice(free_vcs)
                            )
                            slots[w] -= 1
                            packet.hops += 1
                            down_queue = ch_queues[out][w]
                            down_queue.append((t + latency, packet))
                            if on_hop is not None:
                                on_hop(
                                    t,
                                    packet,
                                    switch,
                                    ch_dst[out],
                                    w,
                                    slots[w],
                                    len(down_queue),
                                )
                            arrive = t + latency
                            if arrive <= horizon:
                                downstream = ch_dst[out]
                                mark = arrive * n_sw + downstream
                                if mark not in arb_marks:
                                    arb_marks.add(mark)
                                    buckets[arrive].append(
                                        (_EV_ARB, downstream, 0)
                                    )
                        if ch_kind[cid] == _LINK:
                            if busy_until <= horizon:
                                buckets[busy_until].append(
                                    (_EV_CREDIT, cid, vc)
                                )
                        else:
                            # Injection link busy until the tail
                            # leaves the host.
                            ch_blocked[cid] = busy_until
                            if packet.injected is None:
                                packet.injected = t
                            stats.injected_packets += 1
                            if queue and busy_until <= horizon:
                                mark = busy_until * n_sw + switch
                                if mark not in arb_marks:
                                    arb_marks.add(mark)
                                    buckets[busy_until].append(
                                        (_EV_ARB, switch, 0)
                                    )
                        granted.add(cid)
                        any_grant = True
                if on_arbitrate is not None and total_requests:
                    on_arbitrate(
                        t, switch, total_requests, len(granted)
                    )
                if any_grant:
                    nxt = t + 1
                    if nxt <= horizon:
                        mark = nxt * n_sw + switch
                        if mark not in arb_marks:
                            arb_marks.add(mark)
                            buckets[nxt].append((_EV_ARB, switch, 0))

            elif kind == _EV_CREDIT:
                slots = ch_slots[a]
                slots[b] += 1
                src = ch_src[a]
                if src >= 0:
                    mark = t * n_sw + src
                    if mark not in arb_marks:
                        arb_marks.add(mark)
                        bucket.append((_EV_ARB, src, 0))

            else:  # _EV_GEN -- mirrors Simulator._generate
                terminal = a
                if flow_rows is not None:
                    # ---- mirrors Simulator._release_flows: every
                    # scheduled packet due now, serials pinned by the
                    # schedule; the next release time needs no RNG ----
                    row = flow_rows[terminal]
                    j = k = flow_cursor[terminal]
                    while k < len(row) and row[k][0] == t:
                        k += 1
                    flow_cursor[terminal] = k
                    due = row[j:k]
                    nxt = row[k][0] if k < len(row) else horizon + 1
                else:
                    try:
                        dst = destination(terminal, rng)
                    except LookupError:
                        continue
                    due = ((t, dst, next_serial),)
                    nxt = -1  # gap drawn after the admission's via draws
                home = dest_home[terminal]
                for _, dst, serial in due:
                    # ==== mirrors Simulator._admit =======================
                    if serial >= next_serial:
                        next_serial = serial + 1
                    packet = Packet(terminal, dst, t, serial=serial)
                    stats.generated_packets += 1
                    if serial < trace_limit:
                        traces[serial] = [(t, "generate", terminal)]
                    if valiant:
                        # ---- mirrors _assign_valiant_via ----
                        for _ in range(8):
                            via = rng.randrange(num_terminals)
                            if (
                                routable[home * n_dests + dest_key[via]]
                                and routable[
                                    dest_home[via] * n_dests + dest_key[dst]
                                ]
                            ):
                                packet.via = via
                                break
                    if not routable[home * n_dests + dest_key[dst]]:
                        sim.unroutable_packets += 1
                        if on_drop is not None:
                            on_drop(t, terminal, packet)
                        continue
                    cid = inject_channel[terminal]
                    queue = ch_queues[cid][0]
                    queue.append((t, packet))
                    qlen = len(queue)
                    if qlen > sim.max_inject_queue:
                        sim.max_inject_queue = qlen
                    if on_inject is not None:
                        on_inject(t, packet, qlen)
                    if qlen == 1:
                        blocked = ch_blocked[cid]
                        when = blocked if blocked > t else t
                        if when <= horizon:
                            leaf = ch_dst[cid]
                            mark = when * n_sw + leaf
                            if mark not in arb_marks:
                                arb_marks.add(mark)
                                buckets[when].append((_EV_ARB, leaf, 0))
                if nxt < 0:
                    if log1m is None:
                        nxt = t + 1
                    else:
                        u = rng.random()
                        nxt = t + (int(log(u) / log1m) + 1 if u > 0.0 else 1)
                if nxt <= horizon:
                    buckets[nxt].append((_EV_GEN, terminal, 0))

        bucket.clear()
        t += 1

    sim._next_serial = next_serial
    return sim._finish_run(stats)
