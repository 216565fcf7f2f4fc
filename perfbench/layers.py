"""Which ``repro`` callables the traced run rebinds, and the per-layer
metrics derived from the spans they record.

Targets are named by import path so that a later refactor which moves or
deletes one only zeroes its metric (the tracer lists it as missing).
Engines are never selected here: the exact engine is whatever the
default ``SimulationParams`` runs, the relaxed one is ``rng_mode``.
"""

from __future__ import annotations

import importlib
import math
from collections import defaultdict

from tracer import Span, Tracer


def _attempts(attrs, args, result) -> None:
    topo, attempts = result
    attrs.update(attempts=attempts, links=topo.num_links)


def _links(attrs, args, result) -> None:
    attrs["links"] = result.num_links


def _bitset(attrs, args, result) -> None:
    # Computed, not measured: one uint64 word per 64 leaves for every
    # switch's descendant mask plus the leaves' coverage masks.
    sizes = args[0].level_sizes
    attrs["bitset_bytes"] = (sum(sizes) + sizes[0]) * math.ceil(sizes[0] / 64) * 8


def _steps(attrs, args, result) -> None:
    steps = result[2]
    attrs.update(
        steps=len(steps),
        dirty=sum(s.dirty_rows for s in steps),
        total=sum(s.total_rows for s in steps),
    )


def _flows(attrs, args, result) -> None:
    attrs["flows"] = len(result.flow_schedule)


def _routes(attrs, args, result) -> None:
    attrs.update(subflows=len(result), nnz=sum(len(r) for r in result))


def _sim_call(attrs, args, kwargs) -> None:
    params = args[0].params
    attrs.update(mode=params.rng_mode, cycles=params.horizon)


def _sim_result(attrs, args, result) -> None:
    attrs.update(delivered=result.delivered_packets, unroutable=result.unroutable_packets)


def _batch(attrs, args, kwargs) -> None:
    attrs["tasks"] = len(args[1])


# (module, attribute path, span name, on_call, on_result); "suite" is the
# benchmark's own module, where it calls the layer entry points.
TARGETS = [
    ("suite", "rfc_with_updown", "topologies.build", None, _attempts),
    ("suite", "commodity_fat_tree", "topologies.build", None, _links),
    ("suite", "packed_radix_regular_rfc", "topologies.build", None, _links),
    ("suite", "sweeper_of", "ancestors.sweeper", None, _bitset),
    ("repro.accel.sweeps", "StageSweeper.reachable_fraction", "ancestors.fraction", None, None),
    ("repro.accel.sweeps", "StageSweeper.has_updown", "ancestors.has_updown", None, None),
    ("suite", "order_threshold", "faults.threshold", None, None),
    ("suite", "expansion_trajectory", "expansion.trajectory", None, _steps),
    ("suite", "flow_level_throughput", "flowlevel.throughput", None, None),
    ("repro.simulation.flowlevel", "flow_routes", "flowlevel.routes", None, _routes),
    ("repro.simulation.flowlevel", "max_min_rates", "flowlevel.maxmin", None, None),
    ("repro.simulation.engine", "Simulator.__init__", "simulation.setup", None, None),
    ("repro.simulation.engine", "Simulator.run", "simulation.run", _sim_call, _sim_result),
    ("repro.simulation.fastpath", "build_candidate_table", "simulation.tables", None, None),
    ("repro.accel.relaxed", "build_relaxed_candidates", "simulation.tables", None, None),
    ("suite", "make_workload", "workloads.schedule", None, _flows),
    ("suite", "run_workload", "workloads.run", None, None),
    ("repro.workloads.tracker", "FlowTracker.summary", "workloads.summary", None, None),
    ("repro.obs.hooks", "MetricsObserver.export", "obs.export", None, None),
    ("repro.exec.executor", "Executor.run_sim_tasks", "exec.batch", _batch, None),
    ("repro.exec.executor", "topology_digest", "exec.key", None, None),
    ("repro.exec.executor", "cache_key", "exec.key", None, None),
    ("repro.exec.cache", "ResultCache.get", "exec.get", None, None),
    ("repro.exec.cache", "ResultCache.put", "exec.put", None, None),
    ("suite", "aggregate_replications", "replication.aggregate", None, None),
]


def install(tracer: Tracer) -> None:
    """Rebind every target that exists; the rest land in ``tracer.missing``."""
    for module_name, path, name, on_call, on_result in TARGETS:
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            tracer.missing.append(f"{module_name}.{path}")
            continue
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        if owner is None:
            tracer.missing.append(f"{module_name}.{path}")
            continue
        tracer.bind(owner, attr, name, on_call, on_result)


#: Per-layer metric -> unit, in report order (``BENCHMARK.json`` lists
#: the same names).  The first group is measured on untraced rounds.
UNITS = {
    "sim_pkts_per_s": "1/s",
    "flows_per_s": "1/s",
    "relaxed_flows_per_s": "1/s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "topologies.build_s": "s",
    "topologies.links": "count",
    "topologies.accept_ratio": "ratio",
    "ancestors.sweep_s": "s",
    "ancestors.bitset_mib": "MiB",
    "faults.threshold_s": "s",
    "faults.probes": "count",
    "expansion.step_s": "s",
    "expansion.dirty_ratio": "ratio",
    "flowlevel.routes_s": "s",
    "flowlevel.maxmin_s": "s",
    "flowlevel.subflows": "count",
    "flowlevel.incidence_nnz": "count",
    "simulation.setup_s": "s",
    "simulation.tables_s": "s",
    "simulation.run_s.exact": "s",
    "simulation.run_s.relaxed": "s",
    "simulation.us_per_pkt.exact": "us",
    "simulation.us_per_pkt.relaxed": "us",
    "simulation.cycles": "count",
    "simulation.delivered_pkts": "count",
    "simulation.unroutable_pkts": "count",
    "workloads.schedule_s": "s",
    "workloads.flows": "count",
    "workloads.summary_s": "s",
    "obs.overhead_pct": "%",
    "obs.trace_records": "count",
    "obs.export_s": "s",
    "exec.key_s": "s",
    "exec.put_s": "s",
    "exec.get_s": "s",
    "exec.hit_ratio": "ratio",
    "exec.tasks": "count",
    "replication.aggregate_s": "s",
}

# Span name -> metric that sums the span's full duration.
_DURATION = {
    "faults.threshold": "faults.threshold_s",
    "flowlevel.routes": "flowlevel.routes_s",
    "flowlevel.maxmin": "flowlevel.maxmin_s",
    "simulation.setup": "simulation.setup_s",
    "workloads.schedule": "workloads.schedule_s",
    "workloads.summary": "workloads.summary_s",
    "obs.export": "obs.export_s",
    "exec.key": "exec.key_s",
    "exec.put": "exec.put_s",
    "exec.get": "exec.get_s",
    "replication.aggregate": "replication.aggregate_s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], own: list[float], indices, counts: dict) -> dict:
    """Per-layer metrics over the spans at ``indices`` (one traced round
    plus the set-up) and the ops' own ``counts``."""
    raw: dict[str, float] = defaultdict(float)
    for i in indices:
        span = spans[i]
        name, attrs = span.name, span.attrs
        parent = spans[span.parent].name if span.parent is not None else ""
        direct = parent.startswith("op:")  # called by the benchmark itself
        if name in _DURATION and parent != name:
            raw[_DURATION[name]] += span.duration
        if name == "topologies.build":
            raw["topologies.build_s"] += span.duration
            raw["topologies.links"] += attrs.get("links", 0)
            if "attempts" in attrs:
                raw["attempts"] += attrs["attempts"]
                raw["accepted"] += 1
        elif name.startswith("ancestors.") and direct:
            raw["ancestors.sweep_s"] += span.duration
            raw["ancestors.bitset_mib"] += attrs.get("bitset_bytes", 0) / 2**20
        elif name == "ancestors.has_updown" and parent == "faults.threshold":
            raw["faults.probes"] += 1
        elif name == "expansion.trajectory":
            raw["expansion_s"] += span.duration
            for key in ("steps", "dirty", "total"):
                raw[key] += attrs.get(key, 0)
        elif name == "flowlevel.routes":
            raw["flowlevel.subflows"] += attrs.get("subflows", 0)
            raw["flowlevel.incidence_nnz"] += attrs.get("nnz", 0)
        elif name == "simulation.tables" and parent != name:
            raw["simulation.tables_s"] += span.duration
        elif name == "simulation.run":
            mode = attrs.get("mode", "exact")
            raw[f"simulation.run_s.{mode}"] += own[i]
            raw[f"pkts.{mode}"] += attrs.get("delivered", 0)
            raw["simulation.cycles"] += attrs.get("cycles", 0)
            raw["simulation.delivered_pkts"] += attrs.get("delivered", 0)
            raw["simulation.unroutable_pkts"] += attrs.get("unroutable", 0)
        elif name == "workloads.schedule":
            raw["workloads.flows"] += attrs.get("flows", 0)
        elif name == "exec.batch":
            raw["exec.tasks"] += attrs.get("tasks", 0)
    out = {name: raw.get(name, 0.0) for name in UNITS if name in raw}
    out["topologies.accept_ratio"] = _ratio(raw["accepted"], raw["attempts"])
    out["expansion.step_s"] = _ratio(raw["expansion_s"], raw["steps"])
    out["expansion.dirty_ratio"] = _ratio(raw["dirty"], raw["total"])
    for mode in ("exact", "relaxed"):
        out[f"simulation.us_per_pkt.{mode}"] = 1e6 * _ratio(
            raw[f"simulation.run_s.{mode}"], raw[f"pkts.{mode}"]
        )
    out["obs.trace_records"] = counts.get("trace_records", 0)
    out["exec.hit_ratio"] = _ratio(counts.get("hits", 0), counts.get("lookups", 0))
    return out
