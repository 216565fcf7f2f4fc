"""Event-hook protocol between the simulator and observers.

:class:`~repro.simulation.engine.Simulator` accepts one observer and
invokes these hooks at the five places where simulated state changes:

==================  ====================================================
``on_inject``       a generated packet entered its source queue
``on_drop``         a generated packet had no route (counted, discarded)
``on_arbitrate``    one switch finished an arbitration pass
``on_hop``          a packet was granted a switch-to-switch link
``on_eject``        a packet was delivered to its destination terminal
==================  ====================================================

plus ``on_run_start`` / ``on_run_end`` bracketing the run.  Hooks are
pure observation: they receive engine state but must not mutate it and
must not consume randomness, which is what keeps an instrumented run
bit-for-bit identical to a bare one (enforced by tests).

The fast and relaxed engines resolve the five event hooks once per run
through :meth:`SimObserver.hook` (see :func:`event_hooks`): a hook the
observer's class leaves as the base no-op resolves to ``None`` and is
never called, and neither is the work that only builds its arguments.
The reference engine, kept as the oracle, calls every hook.

:class:`SimObserver` is the no-op base; :class:`MetricsObserver` fills
a :class:`~repro.obs.metrics.MetricsRegistry`; :class:`TracingObserver`
streams JSONL events through a :class:`~repro.obs.trace.TraceWriter`;
:class:`MultiObserver` fans one engine out to several observers.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable

from .metrics import MetricsRegistry
from .trace import TraceWriter

__all__ = [
    "EVENT_HOOKS",
    "SimObserver",
    "MetricsObserver",
    "TracingObserver",
    "MultiObserver",
    "event_hooks",
]

#: The per-event hooks, in the order :func:`event_hooks` returns them.
EVENT_HOOKS = ("on_inject", "on_drop", "on_arbitrate", "on_hop", "on_eject")


def event_hooks(observer: SimObserver | None) -> tuple:
    """``observer``'s :data:`EVENT_HOOKS`, each resolved through
    :meth:`SimObserver.hook` (all ``None`` without an observer)."""
    if observer is None:
        return (None,) * len(EVENT_HOOKS)
    return tuple(observer.hook(name) for name in EVENT_HOOKS)


class SimObserver:
    """No-op base class; override the hooks you need."""

    def hook(self, name: str) -> Callable[..., None] | None:
        """The bound hook ``name``, or ``None`` when it is the base no-op.

        Engines resolve hooks once per run and skip the unresolved ones,
        so a subclass pays only for the hooks it overrides.
        """
        method = getattr(self, name)
        if getattr(method, "__func__", None) is getattr(SimObserver, name):
            return None
        return method

    def on_run_start(self, sim) -> None:
        """Called once before the event loop; ``sim`` is the engine."""

    def on_inject(self, time: int, packet, queue_len: int) -> None:
        """Packet appended to its source queue (depth ``queue_len``)."""

    def on_drop(self, time: int, terminal: int, packet) -> None:
        """Packet discarded as unroutable at generation time."""

    def on_arbitrate(
        self, time: int, switch: int, requests: int, grants: int
    ) -> None:
        """One arbitration pass at ``switch`` matched
        ``grants`` of ``requests`` requests."""

    def on_hop(
        self,
        time: int,
        packet,
        src: int,
        dst: int,
        vc: int,
        credits_left: int,
        queue_len: int,
    ) -> None:
        """Packet granted the ``src -> dst`` link into VC ``vc``
        (``credits_left`` buffer slots remain; the downstream VC queue
        now holds ``queue_len`` packets)."""

    def on_eject(self, time: int, packet, latency: int, phits: int) -> None:
        """Packet delivered; ``latency`` is generation-to-tail cycles."""

    def on_run_end(self, sim, result) -> None:
        """Called once after the event loop with the final result."""


class MetricsObserver(SimObserver):
    """Populates a metrics registry from the hook stream.

    Captured metrics (names are stable API, see docs/OBSERVABILITY.md):

    * counters: packet/event counts, arbitration totals, and per-link
      delivered phits (``link.<src>-><dst>``, the Jellyfish-style
      link-load distribution);
    * histograms: source-queue and VC-queue occupancy, VC credits at
      grant time, packet latency and hop counts;
    * time series: injected packets, delivered phits, link phits
      per cycle bucket, and per-stage utilization for folded Clos
      (``ts.stage.<lo>-><hi>``).

    During a run each hook only bumps run-local tallies, each no larger
    than the metric it feeds (per link, per queue depth, per time-series
    bucket); :meth:`on_run_end` writes them into the registry, creating
    only metrics some event touched.  Read :meth:`export` after the run:
    a run that raises before its end leaves the registry untouched, so
    a failed run keeps no metrics.
    """

    def __init__(
        self, registry: MetricsRegistry | None = None, ts_buckets: int = 100
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.ts_buckets = ts_buckets
        self._width = 100
        self._phits = 1
        self._level_of: list[int] | None = None
        self._reset()

    def _reset(self) -> None:
        self._inject_depths: defaultdict[int, int] = defaultdict(int)
        self._inject_buckets: defaultdict[int, int] = defaultdict(int)
        self._drops = 0
        self._arb_passes = 0
        self._arb_requests = 0
        self._arb_grants = 0
        #: Per hop: ``(src, dst)``, ``(level[src], level[dst], bucket)``
        #: and ``(credits_left, queue_len)``.
        self._links: defaultdict[tuple, int] = defaultdict(int)
        self._stages: defaultdict[tuple, int] = defaultdict(int)
        self._grants: defaultdict[tuple, int] = defaultdict(int)
        #: Per delivery: ``(latency, hops)`` and ``(bucket, phits)``.
        self._ejects: defaultdict[tuple, int] = defaultdict(int)
        self._delivered: defaultdict[tuple, int] = defaultdict(int)

    def on_run_start(self, sim) -> None:
        params = sim.params
        self._phits = params.packet_phits
        self._width = max(1, params.horizon // self.ts_buckets)
        self._level_of = getattr(sim, "level_of", None)
        self._reset()

    def on_inject(self, time: int, packet, queue_len: int) -> None:
        self._inject_depths[queue_len] += 1
        self._inject_buckets[time // self._width] += 1

    def on_drop(self, time: int, terminal: int, packet) -> None:
        self._drops += 1

    def on_arbitrate(
        self, time: int, switch: int, requests: int, grants: int
    ) -> None:
        self._arb_passes += 1
        self._arb_requests += requests
        self._arb_grants += grants

    def on_hop(
        self,
        time: int,
        packet,
        src: int,
        dst: int,
        vc: int,
        credits_left: int,
        queue_len: int,
    ) -> None:
        levels = self._level_of
        self._links[src, dst] += 1
        # Without stages (direct networks) one level-0 row keys the
        # per-bucket link tally the same way.
        if levels is None:
            self._stages[0, 0, time // self._width] += 1
        else:
            self._stages[levels[src], levels[dst], time // self._width] += 1
        self._grants[credits_left, queue_len] += 1

    def on_eject(self, time: int, packet, latency: int, phits: int) -> None:
        self._ejects[latency, packet.hops] += 1
        self._delivered[time // self._width, phits] += 1

    def on_run_end(self, sim, result) -> None:
        """Write the run's tallies into the registry.

        Time-series sums are integers, so they stay exact as floats and
        the export matches per-event recording byte for byte.
        """
        reg = self.registry
        width = self._width
        phits = self._phits
        if self._inject_depths:
            reg.counter("inject.packets").inc(
                sum(self._inject_depths.values())
            )
            occupancy = reg.histogram("queue.inject_occupancy")
            for queue_len, n in self._inject_depths.items():
                occupancy.observe(queue_len, n)
            series = reg.timeseries("ts.injected_packets", width)
            for bucket, n in self._inject_buckets.items():
                series.add(bucket * width, n)
        if self._drops:
            reg.counter("drop.unroutable").inc(self._drops)
        if self._arb_passes:
            reg.counter("arb.passes").inc(self._arb_passes)
            reg.counter("arb.requests").inc(self._arb_requests)
            reg.counter("arb.grants").inc(self._arb_grants)
        if self._links:
            reg.counter("hop.count").inc(sum(self._links.values()))
            for (src, dst), n in self._links.items():
                reg.counter(f"link.{src}->{dst}").inc(phits * n)
            buckets: defaultdict[int, int] = defaultdict(int)
            for (lo, hi, bucket), n in self._stages.items():
                buckets[bucket] += n
                if self._level_of is not None:
                    reg.timeseries(f"ts.stage.{lo}->{hi}", width).add(
                        bucket * width, phits * n
                    )
            series = reg.timeseries("ts.link_phits", width)
            for bucket, n in buckets.items():
                series.add(bucket * width, phits * n)
            credits = reg.histogram("vc.credits_at_grant")
            occupancy = reg.histogram("queue.vc_occupancy")
            for (credits_left, queue_len), n in self._grants.items():
                credits.observe(credits_left, n)
                occupancy.observe(queue_len, n)
        if self._ejects:
            packets = reg.counter("eject.packets")
            latency_hist = reg.histogram("latency.packet")
            hops_hist = reg.histogram("hops.packet")
            for (latency, hops), n in self._ejects.items():
                packets.inc(n)
                latency_hist.observe(latency, n)
                hops_hist.observe(hops, n)
            series = reg.timeseries("ts.delivered_phits", width)
            for (bucket, eject_phits), n in self._delivered.items():
                series.add(bucket * width, eject_phits * n)
        self._reset()

    def export(self) -> dict:
        """The registry snapshot (sorted, JSON-ready)."""
        return self.registry.export()


class TracingObserver(SimObserver):
    """Streams one JSONL record per event through a trace writer.

    ``include_arb`` adds per-pass arbitration records (high volume; off
    by default).  The writer is owned by the caller, who is responsible
    for closing it -- or use :meth:`close` for convenience.
    """

    def __init__(self, writer: TraceWriter, include_arb: bool = False) -> None:
        self.writer = writer
        self.include_arb = include_arb

    def hook(self, name: str) -> Callable[..., None] | None:
        # Without ``include_arb`` the arbitration hook records nothing,
        # so it must not make the engine account arbitration passes.
        if name == "on_arbitrate" and not self.include_arb:
            return None
        return super().hook(name)

    def on_run_start(self, sim) -> None:
        self.writer.emit(
            {
                "ev": "run_start",
                "t": 0,
                "topology": sim.topo.name,
                "traffic": sim.traffic.name,
                "load": sim.load,
                "seed": sim.params.seed,
                "horizon": sim.params.horizon,
            }
        )

    def on_inject(self, time: int, packet, queue_len: int) -> None:
        self.writer.emit(
            {
                "ev": "inject",
                "t": time,
                "p": packet.serial,
                "src": packet.src,
                "dst": packet.dst,
                "q": queue_len,
            }
        )

    def on_drop(self, time: int, terminal: int, packet) -> None:
        self.writer.emit(
            {
                "ev": "drop",
                "t": time,
                "p": packet.serial,
                "src": packet.src,
                "dst": packet.dst,
            }
        )

    def on_arbitrate(
        self, time: int, switch: int, requests: int, grants: int
    ) -> None:
        if self.include_arb:
            self.writer.emit(
                {
                    "ev": "arb",
                    "t": time,
                    "sw": switch,
                    "req": requests,
                    "grant": grants,
                }
            )

    def on_hop(
        self,
        time: int,
        packet,
        src: int,
        dst: int,
        vc: int,
        credits_left: int,
        queue_len: int,
    ) -> None:
        self.writer.emit(
            {
                "ev": "hop",
                "t": time,
                "p": packet.serial,
                "src": src,
                "dst": dst,
                "vc": vc,
            }
        )

    def on_eject(self, time: int, packet, latency: int, phits: int) -> None:
        self.writer.emit(
            {
                "ev": "eject",
                "t": time,
                "p": packet.serial,
                "dst": packet.dst,
                "lat": latency,
                "hops": packet.hops,
            }
        )

    def on_run_end(self, sim, result) -> None:
        self.writer.emit(
            {
                "ev": "run_end",
                "t": sim.params.horizon,
                "generated": result.generated_packets,
                "delivered": result.delivered_packets,
                "accepted_load": result.accepted_load,
                "unroutable": result.unroutable_packets,
            }
        )

    def close(self) -> None:
        self.writer.close()


class MultiObserver(SimObserver):
    """Fans every hook out to an ordered list of observers."""

    def __init__(self, observers: list[SimObserver]) -> None:
        self.observers = list(observers)

    def hook(self, name: str) -> Callable[..., None] | None:
        """``None`` when no child overrides ``name``, the one child's
        bound hook when exactly one does, else a fan-out over only the
        overriding children, in list order."""
        hooks = [
            h for h in (obs.hook(name) for obs in self.observers) if h is not None
        ]
        if not hooks:
            return None
        if len(hooks) == 1:
            return hooks[0]

        def fan_out(*args) -> None:
            for h in hooks:
                h(*args)

        return fan_out

    def on_run_start(self, sim) -> None:
        for obs in self.observers:
            obs.on_run_start(sim)

    def on_inject(self, time: int, packet, queue_len: int) -> None:
        for obs in self.observers:
            obs.on_inject(time, packet, queue_len)

    def on_drop(self, time: int, terminal: int, packet) -> None:
        for obs in self.observers:
            obs.on_drop(time, terminal, packet)

    def on_arbitrate(
        self, time: int, switch: int, requests: int, grants: int
    ) -> None:
        for obs in self.observers:
            obs.on_arbitrate(time, switch, requests, grants)

    def on_hop(
        self,
        time: int,
        packet,
        src: int,
        dst: int,
        vc: int,
        credits_left: int,
        queue_len: int,
    ) -> None:
        for obs in self.observers:
            obs.on_hop(time, packet, src, dst, vc, credits_left, queue_len)

    def on_eject(self, time: int, packet, latency: int, phits: int) -> None:
        for obs in self.observers:
            obs.on_eject(time, packet, latency, phits)

    def on_run_end(self, sim, result) -> None:
        for obs in self.observers:
            obs.on_run_end(sim, result)
