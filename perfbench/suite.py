"""The benchmark's three workloads, built from ``repro``'s public API.

Each workload does its set-up in ``__init__`` (inputs derived only from
the seed) and returns, per round, an ordered list of :class:`Op`.  An op
returns an :class:`Outcome`: an output *signature* (what the correctness
checks compare) plus work counts for the throughput metrics.  An op
raises when its output breaks an invariant that holds for every seed;
the exact signatures of the pinned seeds live in ``signatures.json``.

The layer functions are imported by name into this module on purpose:
the traced run rebinds them here, in the namespace of their caller.
"""

from __future__ import annotations

import math
import random
import shutil
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from repro.core import expansion_trajectory, rfc_with_updown, sweeper_of
from repro.exec import Executor, ResultCache, SimTask
from repro.faults import order_threshold, shuffled_links
from repro.obs import MetricsObserver, TraceWriter
from repro.simulation import (
    SimulationParams,
    aggregate_replications,
    flow_level_throughput,
    replication_seed,
)
from repro.topologies import commodity_fat_tree, packed_radix_regular_rfc
from repro.workloads import make_workload, run_workload

PAPER_TRAFFICS = ("uniform", "random-pairing", "fixed-random")


@dataclass
class Outcome:
    sig: dict
    counts: dict = field(default_factory=dict)


@dataclass
class Op:
    name: str
    run: Callable[[], Outcome]
    #: "exact" / "relaxed" for ops whose time counts toward a
    #: simulated-throughput metric; None otherwise.
    engine: str | None = None


def _num(x: float) -> float | str:
    """Signature form of a float: 9 significant digits, NaN as text.

    Nine digits absorb a reordered floating-point sum (a vectorized
    solver, say) while any change in what is computed still shows.
    """
    x = float(x)
    return "nan" if math.isnan(x) else float(f"{x:.9g}")


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise AssertionError(message)


class SatSweep:
    """Fig. 8-style CFT-vs-RFC load sweep through the executor and cache."""

    name = "sat_sweep"
    loads = (0.2, 0.6, 1.0)
    replications = 2

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self.nets = [commodity_fat_tree(8, 3), rfc_with_updown(8, 32, 3, rng=seed)[0]]
        self.params = SimulationParams(measure_cycles=300, warmup_cycles=150, seed=seed)
        self.rounds = 0

    def _tasks(self, traffic: str) -> list[SimTask]:
        return [
            SimTask(
                topo=net,
                traffic_name=traffic,
                load=load,
                params=self.params.scaled(seed=replication_seed(self.seed, i)),
                traffic_seed=replication_seed(self.seed, i) + 1,
            )
            for net in self.nets
            for load in self.loads
            for i in range(self.replications)
        ]

    def round(self) -> list[Op]:
        self.rounds += 1
        cache_dir = self.scratch / f"cache-{self.rounds}"
        shutil.rmtree(cache_dir, ignore_errors=True)
        executor = Executor(workers=1, cache=ResultCache(cache_dir))
        cold: dict[str, list] = {}
        ops = []
        for traffic in PAPER_TRAFFICS:
            tasks = self._tasks(traffic)

            def cold_pass(traffic=traffic, tasks=tasks) -> Outcome:
                results, report = executor.run_sim_tasks(tasks)
                _require(report.computed == len(tasks), "cold pass hit the cache")
                cold[traffic] = results
                for task, r in zip(tasks, results):
                    _require(
                        0 < r.accepted_load <= 1.2 * task.load,
                        f"accepted {r.accepted_load} at offered {task.load}",
                    )
                    _require(
                        0 < r.delivered_packets <= r.generated_packets,
                        "delivered packets out of range",
                    )
                return Outcome(
                    {
                        "points": [
                            [_num(r.accepted_load), _num(r.avg_latency), r.delivered_packets]
                            for r in results
                        ]
                    },
                    {"pkts": sum(r.delivered_packets for r in results)},
                )

            def warm_pass(traffic=traffic, tasks=tasks) -> Outcome:
                results, report = executor.run_sim_tasks(tasks)
                _require(results == cold[traffic], "warm pass differs from cold pass")
                return Outcome(
                    {"hits": report.cache_hits},
                    {"hits": report.cache_hits, "lookups": len(tasks)},
                )

            def aggregate(traffic=traffic) -> Outcome:
                results = cold[traffic]
                reps = self.replications
                rows = []
                for k, point in enumerate(range(0, len(results), reps)):
                    net = self.nets[k // len(self.loads)]
                    load = self.loads[k % len(self.loads)]
                    agg = aggregate_replications(
                        results[point : point + reps], load, traffic, net.name
                    )
                    rows.append(
                        [_num(agg.accepted_mean), _num(agg.latency_mean), _num(agg.latency_p99)]
                    )
                return Outcome({"rows": rows})

            def maxmin(traffic=traffic) -> Outcome:
                sat = [
                    flow_level_throughput(net, traffic, flows_per_terminal=4, rng=self.seed)
                    for net in self.nets
                ]
                _require(all(0 < s <= 1 for s in sat), f"saturation {sat} out of (0, 1]")
                return Outcome({"saturation": [_num(s) for s in sat]})

            ops += [
                Op(f"cold:{traffic}", cold_pass, engine="exact"),
                Op(f"warm:{traffic}", warm_pass),
                Op(f"aggregate:{traffic}", aggregate),
                Op(f"maxmin:{traffic}", maxmin),
            ]
        ops.append(Op("cleanup", lambda: self._cleanup(cache_dir)))
        return ops

    @staticmethod
    def _cleanup(cache_dir: Path) -> Outcome:
        entries = len(ResultCache(cache_dir))
        shutil.rmtree(cache_dir)
        return Outcome({"cache_entries": entries})


class FlowsFct:
    """RPC and incast flow schedules on RFC(12, 72, 3), exact and relaxed."""

    name = "flows_fct"
    duration = 1_000

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.topo = rfc_with_updown(12, 72, 3, rng=seed)[0]
        # Every flow must complete inside the horizon: the latest incast
        # completion over seeds 0-39 was at cycle 2,911.
        self.params = SimulationParams(
            measure_cycles=6 * self.duration, warmup_cycles=0, seed=seed
        )

    def schedule(self, kind: str):
        terminals = self.topo.num_terminals
        if kind == "rpc":
            return make_workload(
                "rpc", terminals, seed=self.seed, load=0.3,
                duration=self.duration, rpc_size=4,
            )
        return make_workload(
            "incast", terminals, seed=self.seed, fanin=16, rpc_size=4,
            events=24, duration=self.duration,
        )

    def run_one(self, kind: str, mode: str, observed: bool = True) -> Outcome:
        params = self.params.scaled(rng_mode="relaxed") if mode == "relaxed" else self.params
        workload = self.schedule(kind)
        observer = MetricsObserver() if observed else None
        writer = TraceWriter(None) if observed else None
        result = run_workload(self.topo, workload, params, observer=observer, trace_writer=writer)
        stats = result.flow_stats
        _require(stats["flows_dropped"] == 0, "flows dropped")
        _require(
            stats["flows_completed"] == stats["flows_total"],
            f"{stats['flows_completed']}/{stats['flows_total']} flows completed",
        )
        counts = {"flows": stats["flows_completed"], "pkts": result.delivered_packets}
        if observed:
            export = observer.export()
            _require(
                export["counters"]["eject.packets"] == result.delivered_packets,
                "metrics observer disagrees with delivered packets",
            )
            counts["trace_records"] = len(writer.records())
            _require(
                counts["trace_records"] == stats["flows_completed"],
                "one flow_complete record per completed flow",
            )
        return Outcome(
            {
                "flows_completed": stats["flows_completed"],
                "fct_mean": _num(stats["fct_mean"]),
                "fct_p99": _num(stats["fct_p99"]),
                "delivered": result.delivered_packets,
            },
            counts,
        )

    def round(self) -> list[Op]:
        return [
            Op(f"{kind}:{mode}", lambda kind=kind, mode=mode: self.run_one(kind, mode), engine=mode)
            for kind in ("rpc", "incast")
            for mode in ("exact", "relaxed")
        ]


class AnalysisScale:
    """Structural analysis at 262,144 terminals plus the max-min solver."""

    name = "analysis_scale"

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.topo = None

    def generate(self) -> Outcome:
        self.topo = packed_radix_regular_rfc(64, 8192, 3, rng=self.seed)
        crc = 0  # over the wiring, not over the storage dtype
        for stage in self.topo.up_stage_arrays():
            for array in stage:
                crc = zlib.crc32(np.asarray(array, dtype=np.int64).tobytes(), crc)
        return Outcome(
            {"terminals": self.topo.num_terminals, "links": self.topo.num_links, "crc32": crc}
        )

    def coverage(self) -> Outcome:
        topo, self.topo = self.topo, None
        sweeper = sweeper_of(topo)
        fraction = sweeper.reachable_fraction()
        ok = sweeper.has_updown()
        _require(0 < fraction <= 1, f"coverage fraction {fraction}")
        _require(ok == (fraction == 1.0), "updown_ok disagrees with coverage")
        return Outcome({"fraction": _num(fraction), "updown_ok": ok})

    def threshold(self) -> Outcome:
        topo = packed_radix_regular_rfc(32, 2048, 3, rng=self.seed)
        order = shuffled_links(topo, random.Random(self.seed))
        k = order_threshold(topo, order)
        _require(0 <= k < len(order), f"threshold {k} of {len(order)}")
        return Outcome({"threshold": k})

    def expansion(self) -> Outcome:
        base = rfc_with_updown(24, 576, 3, rng=self.seed)[0]
        _, _, steps = expansion_trajectory(base, steps=16, rng=self.seed)
        _require(all(s.dirty_rows <= s.total_rows for s in steps), "dirty rows > total")
        return Outcome(
            {
                "dirty_rows": [s.dirty_rows for s in steps],
                "updown_ok": [s.updown_ok for s in steps],
                "fraction": _num(steps[-1].reachable_fraction),
            }
        )

    def maxmin(self, traffic: str) -> Outcome:
        topo = rfc_with_updown(12, 72, 3, rng=self.seed)[0]
        sat = flow_level_throughput(topo, traffic, flows_per_terminal=2, rng=self.seed)
        _require(0 < sat <= 1, f"saturation {sat}")
        return Outcome({"saturation": _num(sat)})

    def round(self) -> list[Op]:
        return [
            Op("generate", self.generate),
            Op("coverage", self.coverage),
            Op("threshold", self.threshold),
            Op("expansion", self.expansion),
            Op("maxmin:uniform", lambda: self.maxmin("uniform")),
            Op("maxmin:random-pairing", lambda: self.maxmin("random-pairing")),
        ]


WORKLOADS = {w.name: w for w in (SatSweep, FlowsFct, AnalysisScale)}
