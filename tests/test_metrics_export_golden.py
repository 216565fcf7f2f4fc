"""Golden pin of the ``MetricsObserver`` export across the engines.

``tests/data/golden_metrics_export.json`` holds the full sorted-key
metrics export (counters, histograms, time series) of one run per
configuration below: the fast, reference and relaxed engines, Valiant
routing, a faulted network with unroutable drops, a direct network,
multi-iteration arbitration, a metrics + tracing fan-out (the trace
stream pinned by its SHA-256) and ``run_workload`` flow runs with a
``TraceWriter``.  Every number must reproduce bit for bit: an observer
that changes how it records (tallying, flushing, hook resolution)
must still produce the same bytes.

Regenerate only on an intentional change to what the observer
records::

    PYTHONPATH=src:tests python -c "from test_metrics_export_golden \
        import write_golden; write_golden()"
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.rfc import rfc_with_updown
from repro.obs import MetricsObserver, MultiObserver, TraceWriter, TracingObserver
from repro.simulation.config import SimulationParams
from repro.simulation.engine import Simulator
from repro.simulation.traffic import make_traffic

GOLDEN = Path(__file__).parent / "data" / "golden_metrics_export.json"
BASE = SimulationParams(measure_cycles=300, warmup_cycles=100, seed=5)

#: name -> (topology, traffic, load, param overrides, dead
#: ``(level, index)`` switches, removed-link indices, extra).  A
#: ``None`` load marks a ``run_workload`` flow run; ``extra`` is
#: "trace" for a metrics + tracing fan-out.
CASES = {
    "fast-rfc-uniform": ("rfc", "uniform", 0.6, {}, (), (), None),
    "reference-rfc-uniform": (
        "rfc", "uniform", 0.6, {"engine": "reference"}, (), (), None
    ),
    "relaxed-rfc-uniform": (
        "rfc", "uniform", 0.6, {"rng_mode": "relaxed"}, (), (), None
    ),
    "fast-rfc-valiant": ("rfc", "uniform", 0.5, {"valiant": True}, (), (), None),
    "relaxed-rfc-valiant": (
        "rfc", "uniform", 0.5, {"valiant": True, "rng_mode": "relaxed"},
        (), (), None,
    ),
    "fast-rfc-removed-links": (
        "rfc", "uniform", 0.6, {}, (), (3, 17, 40), None
    ),
    "fast-oft-switch-fault": (
        "oft", "uniform", 0.4, {"valiant": True}, ((1, 0),), (), None
    ),
    "relaxed-oft-switch-fault": (
        "oft", "uniform", 0.4, {"valiant": True, "rng_mode": "relaxed"},
        ((1, 0),), (), None,
    ),
    "fast-rrn-uniform": ("rrn", "uniform", 0.5, {}, (), (), None),
    "relaxed-rfc-two-iterations": (
        "rfc", "uniform", 0.8,
        {"rng_mode": "relaxed", "arbitration_iterations": 2}, (), (), None,
    ),
    "fast-rfc-metrics-trace": ("rfc", "uniform", 0.6, {}, (), (), "trace"),
    "workload-fast-incast": ("rfc", "incast", None, {}, (), (), None),
    "workload-reference-incast": (
        "rfc", "incast", None, {"engine": "reference"}, (), (), None
    ),
    "workload-relaxed-incast": (
        "rfc", "incast", None, {"rng_mode": "relaxed"}, (), (), None
    ),
}


def _topology(kind):
    from repro.topologies.oft import orthogonal_fat_tree
    from repro.topologies.rrn import random_regular_network

    if kind == "rrn":
        return random_regular_network(16, 4, 2, rng=3)
    if kind == "oft":
        return orthogonal_fat_tree(2, 2)
    topo, _ = rfc_with_updown(8, 16, 3, rng=7)
    return topo


def _digest(records):
    lines = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    return hashlib.sha256(lines.encode("utf-8")).hexdigest()


def snapshot(name):
    """Metrics export (plus trace digest) of one run of ``CASES[name]``."""
    from repro.faults.switches import links_of_switches
    from repro.workloads import make_workload, run_workload

    kind, traffic_name, load, overrides, dead, removed_idx, extra = CASES[
        name
    ]
    topo = _topology(kind)
    params = BASE.scaled(**overrides)
    metrics = MetricsObserver()
    out = {}
    if load is None:
        workload = make_workload(
            traffic_name, topo.num_terminals, seed=3, fanin=8,
            rpc_size=4, events=3, duration=300,
        )
        writer = TraceWriter(None)
        result = run_workload(
            topo, workload, params, observer=metrics, trace_writer=writer
        )
        out["trace_sha256"] = _digest(writer.records())
        out["flow_stats"] = result.flow_stats
    else:
        links = list(topo.links())
        removed = [links[i] for i in removed_idx]
        removed += links_of_switches(
            topo, {topo.switch_id(level, index) for level, index in dead}
        )
        traffic = make_traffic(
            traffic_name, topo.num_terminals, rng=params.seed + 1
        )
        observer = metrics
        writer = None
        if extra == "trace":
            writer = TraceWriter(None)
            observer = MultiObserver(
                [metrics, TracingObserver(writer, include_arb=True)]
            )
        sim = Simulator(topo, traffic, load, params, removed, observer=observer)
        result = sim.run()
        if writer is not None:
            out["trace_sha256"] = _digest(writer.records())
    out["core"] = result.core_dict()
    out["metrics"] = metrics.export()
    return json.loads(json.dumps(out, sort_keys=True))


def write_golden():
    GOLDEN.write_text(
        json.dumps(
            {name: snapshot(name) for name in CASES},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_metrics_export_matches_golden(golden, name):
    got = snapshot(name)
    expected = golden[name]
    assert json.dumps(got, sort_keys=True) == json.dumps(
        expected, sort_keys=True
    )
    # The pin must cover real traffic, not an idle network.
    assert expected["metrics"]["counters"]["eject.packets"] > 0


def test_pins_cover_every_metric_family(golden):
    """Across the matrix every metric kind the observer records shows
    up: drops, arbitration, per-stage series and the direct network's
    stage-free export."""
    counters = set()
    series = set()
    for entry in golden.values():
        counters |= set(entry["metrics"]["counters"])
        series |= set(entry["metrics"]["timeseries"])
    assert {"drop.unroutable", "arb.passes", "hop.count"} <= counters
    assert any(name.startswith("ts.stage.") for name in series)
    assert not any(
        name.startswith("ts.stage.")
        for name in golden["fast-rrn-uniform"]["metrics"]["timeseries"]
    )
