"""Shared harness for the Figure 8/9/10 simulation scenarios.

Each paper figure sweeps offered load for one CFT-vs-RFC scenario
(Section 6) under the three synthetic traffics.  The full-size
networks (11K-210K terminals) are beyond a pure-Python cycle-level
simulator, so the harness builds *structurally faithful* scale-downs
(see ``repro.cost.scenarios``): the same level-count relationships,
the same radix ratios, partial population where the paper uses it.

``quick=True`` shrinks further (radix 8, a few hundred terminals,
shorter runs) for the benchmark suite; ``quick=False`` uses the
radix-12 scaled configurations.  Each table also reports flow-level
max-min saturation for the same networks as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.rfc import rfc_with_updown
from ..cost.scenarios import scenario
from ..simulation.config import SimulationParams
from ..simulation.flowlevel import flow_level_throughput
from ..simulation.traffic import TRAFFIC_NAMES
from ..topologies.base import FoldedClos
from ..topologies.fattree import commodity_fat_tree, partially_populated_cft
from .common import Table

__all__ = ["ScenarioNetworks", "build_networks", "run_scenario"]

# Benchmark-sized structural analogues (radix 8).
_QUICK_CONFIG = {
    "equal-resources-11k": dict(
        radix=8, cft_levels=3, cft_hosts=4, rfc_n1=32, rfc_levels=3,
        alt=None,
    ),
    "intermediate-100k": dict(
        radix=8, cft_levels=4, cft_hosts=1, rfc_n1=32, rfc_levels=3,
        alt=None,
    ),
    "maximum-200k": dict(
        radix=8, cft_levels=4, cft_hosts=2, rfc_n1=50, rfc_levels=3,
        alt=None,
    ),
}


@dataclass
class ScenarioNetworks:
    """The networks one scenario simulates."""

    cft: FoldedClos
    rfc: FoldedClos
    rfc_alt: FoldedClos | None = None

    def all(self) -> list[tuple[str, FoldedClos]]:
        out = [("CFT", self.cft), ("RFC", self.rfc)]
        if self.rfc_alt is not None:
            out.append(("RFC-alt", self.rfc_alt))
        return out


def build_networks(
    scenario_name: str, quick: bool = True, seed: int = 0
) -> ScenarioNetworks:
    """Instantiate the (scaled) CFT and RFC of a named scenario."""
    if quick:
        cfg = _QUICK_CONFIG[scenario(scenario_name).name]
        radix = cfg["radix"]
        if cfg["cft_hosts"] == radix // 2:
            cft = commodity_fat_tree(radix, cfg["cft_levels"])
        else:
            cft = partially_populated_cft(
                radix, cfg["cft_levels"], cfg["cft_hosts"]
            )
        rfc, _ = rfc_with_updown(
            radix, cfg["rfc_n1"], cfg["rfc_levels"], rng=seed
        )
        return ScenarioNetworks(cft=cft, rfc=rfc)

    scaled = scenario(scenario_name).scaled
    if scaled.cft_hosts == scaled.radix // 2:
        cft = commodity_fat_tree(scaled.radix, scaled.cft_levels)
    else:
        cft = partially_populated_cft(
            scaled.radix, scaled.cft_levels, scaled.cft_hosts
        )
    rfc, _ = rfc_with_updown(
        scaled.radix, scaled.rfc_n1, scaled.rfc_levels, rng=seed
    )
    rfc_alt = None
    if scaled.rfc_alt_radix is not None and scaled.rfc_alt_n1 is not None:
        rfc_alt, _ = rfc_with_updown(
            scaled.rfc_alt_radix, scaled.rfc_alt_n1, scaled.rfc_levels,
            rng=seed + 1,
        )
    return ScenarioNetworks(cft=cft, rfc=rfc, rfc_alt=rfc_alt)


def run_scenario(
    scenario_name: str,
    quick: bool = True,
    seed: int = 0,
    loads: list[float] | None = None,
    traffics: tuple[str, ...] = TRAFFIC_NAMES,
    params: SimulationParams | None = None,
    flow_check: bool = True,
    executor=None,
) -> Table:
    """Load sweep for one scenario; returns the figure's data table.

    Every (traffic, load, network) point is an independent simulation,
    so the whole sweep is submitted as one batch to ``executor`` (the
    ambient :mod:`repro.exec` executor when None): ``--workers N``
    fans the points across processes and a configured cache makes warm
    re-runs free.  Each point rebuilds its traffic pattern from
    ``seed + 101`` exactly as the serial loop always has, so the table
    is bit-for-bit independent of worker count and scheduling.
    """
    from .. import obs
    from ..exec import get_executor, merged_metrics
    from ..exec.executor import SimTask

    collect = obs.metrics_enabled()
    networks = build_networks(scenario_name, quick=quick, seed=seed)
    if loads is None:
        loads = [0.3, 0.6, 0.9] if quick else [0.2, 0.5, 0.8, 1.0]
    if params is None:
        params = SimulationParams(
            measure_cycles=1_200 if quick else 3_000,
            warmup_cycles=400 if quick else 800,
            seed=seed,
        )

    sizes = ", ".join(
        f"{label}: T={net.num_terminals} ({net.name})"
        for label, net in networks.all()
    )
    table = Table(
        title=f"Scenario {scenario_name}: latency/throughput vs load",
        headers=["traffic", "load"]
        + [
            f"{label} {metric}"
            for label, _ in networks.all()
            for metric in ("accepted", "latency")
        ],
    )
    table.note(f"networks -- {sizes}")

    runner = executor if executor is not None else get_executor()
    tasks = [
        SimTask(
            topo=net,
            traffic_name=traffic_name,
            load=load,
            params=params,
            traffic_seed=seed + 101,
            collect_metrics=collect,
        )
        for traffic_name in traffics
        for load in loads
        for _, net in networks.all()
    ]
    results, report = runner.run_sim_tasks(tasks)
    if collect:
        obs.record(f"scenario:{scenario_name}", merged_metrics(results))

    point = iter(results)
    for traffic_name in traffics:
        for load in loads:
            row: list = [traffic_name, load]
            for _ in networks.all():
                result = next(point)
                row.extend([result.accepted_load, result.avg_latency])
            table.add(*row)
        # Flow-level saturation cross-check per traffic (optional: the
        # max-min solve is superlinear in the terminal count, so heavy
        # sweeps can skip it).
        if flow_check:
            sat = ", ".join(
                f"{label} {flow_level_throughput(net, traffic_name, flows_per_terminal=4, rng=seed):.3f}"
                for label, net in networks.all()
            )
            table.note(
                f"flow-level max-min saturation ({traffic_name}): {sat}"
            )
    table.note(report.note())
    return table
