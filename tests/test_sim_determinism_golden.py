"""Golden-snapshot determinism gate for the cycle-level simulator.

``tests/data/golden_load_sweep.json`` was captured from the engine
*before* the observability layer landed.  Reproducing it bit-for-bit
proves two things at once: the engine is still deterministic across
runs, and threading observer hooks through the hot loops changed no
simulated number.  If an intentional engine change breaks this,
regenerate the snapshot with the recipe below and say so in the
commit message.

Recipe::

    topo, _ = rfc_with_updown(8, 16, 3, rng=7)
    params = SimulationParams(measure_cycles=400, warmup_cycles=100, seed=3)
    results = load_sweep(topo, "uniform", [0.2, 0.5, 0.8], params)
    json.dump([r.core_dict() for r in results], fh, indent=1, sort_keys=True)
"""

import json
from pathlib import Path

import pytest

from repro.core.rfc import rfc_with_updown
from repro.obs import MetricsObserver
from repro.simulation.config import SimulationParams
from repro.simulation.engine import load_sweep, simulate
from repro.simulation.traffic import make_traffic

GOLDEN = Path(__file__).parent / "data" / "golden_load_sweep.json"
GOLDEN_BENCH = Path(__file__).parent / "data" / "golden_vectorized_bench.json"
PARAMS = SimulationParams(measure_cycles=400, warmup_cycles=100, seed=3)
LOADS = [0.2, 0.5, 0.8]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def topo():
    topo, _ = rfc_with_updown(8, 16, 3, rng=7)
    return topo


def test_load_sweep_matches_golden(topo, golden):
    results = load_sweep(topo, "uniform", LOADS, PARAMS)
    assert [r.core_dict() for r in results] == golden


@pytest.mark.parametrize("engine", ["reference", "fast"])
def test_every_engine_matches_golden(topo, golden, engine):
    """Each engine reproduces the pre-fast-path snapshot -- pinning
    *all* engines to the same bit-for-bit history, not just to each
    other."""
    params = PARAMS.scaled(engine=engine)
    results = load_sweep(topo, "uniform", LOADS, params)
    assert [r.core_dict() for r in results] == golden


@pytest.mark.parametrize("engine", ["reference", "fast"])
def test_exact_engines_match_bench_golden(engine):
    """Golden-signature pin on (a scaled-down cut of) the
    ``BENCH_engine.json`` workload for each exact engine.  The snapshot
    was captured from the *reference* engine, so this is also a
    cross-engine pin.

    Recipe::

        topo, _ = rfc_with_updown(8, 32, 3, rng=11)
        params = SimulationParams(measure_cycles=400, warmup_cycles=100,
                                  seed=5)
        traffic = make_traffic("uniform", topo.num_terminals,
                               rng=params.seed + 7_919)
        result = simulate(topo, traffic, 0.7, params)
        json.dump(result.core_dict(), fh, indent=1, sort_keys=True)
    """
    golden_bench = json.loads(GOLDEN_BENCH.read_text())
    topo, _ = rfc_with_updown(8, 32, 3, rng=11)
    params = SimulationParams(
        measure_cycles=400, warmup_cycles=100, seed=5, engine=engine
    )
    traffic = make_traffic(
        "uniform", topo.num_terminals, rng=params.seed + 7_919
    )
    result = simulate(topo, traffic, 0.7, params)
    assert result.core_dict() == golden_bench


def test_instrumented_sweep_matches_golden(topo, golden):
    """The pre-observability snapshot is reproduced even while a
    metrics observer watches every event."""
    for load, expected in zip(LOADS, golden):
        # Same traffic seed derivation load_sweep uses internally.
        traffic = make_traffic(
            "uniform", topo.num_terminals, rng=PARAMS.seed + 7_919
        )
        result = simulate(
            topo, traffic, load, PARAMS, observer=MetricsObserver()
        )
        assert result.core_dict() == expected


def test_golden_bytes_are_canonical(golden):
    """The checked-in file itself is sorted-key JSON (so regenerating
    it with the recipe gives a clean diff)."""
    canonical = json.dumps(golden, indent=1, sort_keys=True) + "\n"
    assert GOLDEN.read_text() == canonical


# ---------------------------------------------------------------------------
# Relaxed-engine golden matrix
# ---------------------------------------------------------------------------
#
# The relaxed engine is only statistically equal to the exact engines,
# so the differential suite cannot pin it.  These snapshots pin it to
# its own history instead: result fields, packet traces and per-channel
# busy cycles, bit for bit, across the branches the engine forks on
# (Valiant classes, non-uniform traffic, pruned tables, the wide-VC
# scan path with ``virtual_channels > 12``, direct networks and flow
# mode).  Regenerate only on an intentional relaxed-engine change::
#
#     PYTHONPATH=src:tests python -c "from test_sim_determinism_golden \
#         import write_relaxed_golden; write_relaxed_golden()"

GOLDEN_RELAXED = Path(__file__).parent / "data" / "golden_relaxed_matrix.json"
RELAXED = SimulationParams(
    measure_cycles=300, warmup_cycles=100, seed=5, rng_mode="relaxed"
)
RELAXED_TRACE_LIMIT = 24

#: name -> (topology, traffic, load, param overrides, removed-link
#: indices into ``topo.links()``, dead ``(level, index)`` switches).
#: A ``None`` load marks a flow workload.
RELAXED_CASES = {
    "rfc-uniform": ("rfc", "uniform", 0.6, {}, (), ()),
    "rfc-valiant": ("rfc", "uniform", 0.5, {"valiant": True}, (), ()),
    "rfc-random-pairing": ("rfc", "random-pairing", 0.6, {}, (), ()),
    "rfc-removed-links": ("rfc", "uniform", 0.6, {}, (3, 17, 40), ()),
    "rfc-13-vcs": ("rfc", "uniform", 0.7, {"virtual_channels": 13}, (), ()),
    "rrn-uniform": ("rrn", "uniform", 0.5, {}, (), ()),
    "rfc-incast-flows": ("rfc", "incast", None, {}, (), ()),
    # Unroutable pairs: Valiant via rejection and injection drops.
    "oft-valiant-switch-fault": (
        "oft", "uniform", 0.4, {"valiant": True}, (), ((1, 0),)
    ),
}


def _relaxed_topology(kind):
    from repro.topologies.oft import orthogonal_fat_tree
    from repro.topologies.rrn import random_regular_network

    if kind == "rrn":
        return random_regular_network(16, 4, 2, rng=3)
    if kind == "oft":
        return orthogonal_fat_tree(2, 2)
    topo, _ = rfc_with_updown(8, 16, 3, rng=7)
    return topo


def relaxed_snapshot(name):
    """JSON-shaped outputs of one relaxed run of ``RELAXED_CASES[name]``."""
    from repro.faults.switches import links_of_switches
    from repro.simulation.engine import Simulator
    from repro.workloads import make_workload, nominal_load

    kind, traffic_name, load, overrides, removed_idx, dead = RELAXED_CASES[
        name
    ]
    topo = _relaxed_topology(kind)
    params = RELAXED.scaled(**overrides)
    if load is None:
        traffic = make_workload(
            traffic_name, topo.num_terminals, seed=3, fanin=8,
            rpc_size=4, events=3, duration=300,
        )
        load = nominal_load(traffic, params)
    else:
        traffic = make_traffic(
            traffic_name, topo.num_terminals, rng=params.seed + 1
        )
    links = list(topo.links())
    removed = [links[i] for i in removed_idx]
    removed += links_of_switches(
        topo, {topo.switch_id(level, index) for level, index in dead}
    )
    sim = Simulator(
        topo,
        traffic,
        load,
        params,
        removed,
        trace_limit=RELAXED_TRACE_LIMIT,
    )
    result = sim.run()
    return {
        "core": result.core_dict(),
        "traces": {
            str(serial): [list(hop) for hop in hops]
            for serial, hops in sorted(sim.traces.items())
        },
        "ch_busy_cycles": list(sim.ch_busy_cycles),
    }


def write_relaxed_golden():
    snapshot = {name: relaxed_snapshot(name) for name in RELAXED_CASES}
    GOLDEN_RELAXED.write_text(
        json.dumps(snapshot, indent=1, sort_keys=True) + "\n"
    )


@pytest.fixture(scope="module")
def relaxed_golden():
    return json.loads(GOLDEN_RELAXED.read_text())


@pytest.mark.parametrize("name", sorted(RELAXED_CASES))
def test_relaxed_engine_matches_golden(relaxed_golden, name):
    snapshot = json.loads(json.dumps(relaxed_snapshot(name)))
    expected = relaxed_golden[name]
    assert snapshot["core"] == expected["core"]
    assert snapshot["traces"] == expected["traces"]
    assert snapshot["ch_busy_cycles"] == expected["ch_busy_cycles"]
    # The pin must cover real traffic, not an idle network.
    assert expected["core"]["delivered_packets"] > 0
    assert expected["traces"]
