"""Differential proof that the fast engine equals the reference engine.

The simulator ships two exact cycle engines -- ``reference`` (the
oracle) and ``fast`` (:func:`repro.simulation.fastpath.run_fast`).
Every test here runs the same (topology, traffic, load, params) point
through both and demands **bit-for-bit** agreement:

* :class:`SimResult` dataclass equality (accepted load, latency
  moments, percentiles, packet counters),
* per-channel busy-cycle arrays (the utilization side channel),
* packet traces, peak injection queue depth, unroutable drop counts,
* and, when instrumented, the full :class:`MetricsObserver` export.

Because both engines share one ``random.Random`` stream, any divergence
in RNG call *order* -- not just in results -- shows up as a mismatch,
which is what makes this a proof of equivalence rather than a
statistical comparison.  The quick matrix runs everywhere; the
exhaustive topology x traffic x load x seed sweep carries the ``slow``
marker and runs in the CI bench job.
"""

import gc
import json
import weakref

import pytest

from repro.accel.relaxed import build_relaxed_candidates
from repro.core.rfc import radix_regular_rfc, rfc_with_updown
from repro.faults.switches import links_of_switches
from repro.obs import MetricsObserver
from repro.routing.table import CsrTable
from repro.simulation.config import SimulationParams
from repro.simulation.engine import Simulator
from repro.simulation.fastpath import (
    build_candidate_table,
    candidate_lists,
    destination_layout,
)
from repro.simulation.traffic import TrafficPattern, make_traffic
from repro.topologies.oft import orthogonal_fat_tree
from repro.topologies.rrn import random_regular_network

BASE = SimulationParams(measure_cycles=300, warmup_cycles=100, seed=5)

#: The exact engines, reference (the oracle) first.
ENGINES = ("reference", "fast")


def run_engines(
    topo,
    traffic_name,
    load,
    params,
    removed_links=None,
    with_observer=False,
    trace_limit=0,
):
    """Run one point on every engine; returns the sims, reference
    first."""
    sims = []
    for engine in ENGINES:
        traffic = make_traffic(
            traffic_name, topo.num_terminals, rng=params.seed + 1
        )
        sim = Simulator(
            topo,
            traffic,
            load,
            params.scaled(engine=engine),
            removed_links,
            trace_limit=trace_limit,
            observer=MetricsObserver() if with_observer else None,
        )
        sim.result = sim.run()
        sims.append(sim)
    return sims


def assert_identical(ref, *others):
    """The full bit-for-bit contract between the engines."""
    ref_export = (
        json.dumps(ref.observer.export(), sort_keys=True)
        if ref.observer is not None
        else None
    )
    for other in others:
        assert ref.result == other.result
        assert ref.ch_busy_cycles == other.ch_busy_cycles
        assert ref.traces == other.traces
        assert ref.max_inject_queue == other.max_inject_queue
        assert ref.unroutable_packets == other.unroutable_packets
        # Shared post-run inspection must agree too (same channel
        # state).
        assert ref.link_utilization() == other.link_utilization()
        assert ref.batch_accepted_loads() == other.batch_accepted_loads()
        if ref_export is not None:
            other_export = json.dumps(
                other.observer.export(), sort_keys=True
            )
            assert ref_export == other_export


@pytest.fixture(scope="module")
def topologies(cft_4_3, oft_q2_l2, rrn_16):
    rfc, _ = rfc_with_updown(8, 16, 3, rng=7)
    return {"rfc": rfc, "cft": cft_4_3, "oft": oft_q2_l2, "rrn": rrn_16}


class TestQuickMatrix:
    """Fast subset of the matrix -- runs in every dev invocation."""

    @pytest.mark.parametrize("name", ["rfc", "cft", "oft", "rrn"])
    def test_uniform_mid_load(self, topologies, name):
        assert_identical(*run_engines(topologies[name], "uniform", 0.5, BASE))

    @pytest.mark.parametrize(
        "traffic", ["random-pairing", "fixed-random", "shuffle"]
    )
    def test_traffic_patterns(self, topologies, traffic):
        assert_identical(*run_engines(topologies["rfc"], traffic, 0.6, BASE))

    @pytest.mark.parametrize("load", [0.1, 0.9])
    def test_load_extremes(self, topologies, load):
        assert_identical(*run_engines(topologies["rfc"], "uniform", load, BASE))


class TestConfigVariants:
    """Engine knobs that exercise distinct non-reference branches."""

    def test_valiant(self, topologies):
        params = BASE.scaled(valiant=True)
        assert_identical(*run_engines(topologies["rfc"], "uniform", 0.5, params))

    def test_valiant_two_vcs(self, topologies):
        params = BASE.scaled(valiant=True, virtual_channels=2)
        assert_identical(*run_engines(topologies["rfc"], "uniform", 0.6, params))

    def test_adaptive_up_selection(self, topologies):
        params = BASE.scaled(up_selection="adaptive")
        assert_identical(*run_engines(topologies["rfc"], "uniform", 0.7, params))

    def test_rotating_arbiter(self, topologies):
        params = BASE.scaled(arbiter="rotating")
        assert_identical(*run_engines(topologies["rfc"], "uniform", 0.7, params))

    def test_multi_iteration_arbitration(self, topologies):
        params = BASE.scaled(arbitration_iterations=3)
        assert_identical(*run_engines(topologies["rfc"], "uniform", 0.8, params))

    def test_nonminimal_routing(self, topologies):
        params = BASE.scaled(minimal_routing=False)
        assert_identical(
            *run_engines(topologies["rfc"], "random-pairing", 0.6, params)
        )

    def test_direct_adaptive_multi_iteration(self, topologies):
        params = BASE.scaled(
            up_selection="adaptive", arbitration_iterations=2
        )
        assert_identical(*run_engines(topologies["rrn"], "uniform", 0.5, params))

    def test_single_phit_saturating(self, topologies):
        params = BASE.scaled(packet_phits=1)
        assert_identical(*run_engines(topologies["rfc"], "uniform", 1.0, params))

    def test_longer_links(self, topologies):
        params = BASE.scaled(link_latency=3)
        assert_identical(*run_engines(topologies["rfc"], "uniform", 0.6, params))

    def test_single_vc(self, topologies):
        params = BASE.scaled(virtual_channels=1)
        assert_identical(*run_engines(topologies["rrn"], "uniform", 0.3, params))


class TestFaults:
    """Pruned networks: CSR tables must mirror the pruned routers."""

    def test_removed_links_rfc(self, topologies):
        links = list(topologies["rfc"].links())
        removed = [links[3], links[17], links[40]]
        assert_identical(
            *run_engines(
                topologies["rfc"], "uniform", 0.6, BASE, removed_links=removed
            )
        )

    def test_removed_links_rrn(self, topologies):
        links = list(topologies["rrn"].links())
        removed = [links[1], links[9]]
        assert_identical(
            *run_engines(
                topologies["rrn"], "uniform", 0.4, BASE, removed_links=removed
            )
        )

    def test_switch_fault_rfc(self, topologies):
        """Whole-switch loss (all incident links removed) -- packets to
        unreachable leaves are dropped identically by every engine."""
        topo = topologies["rfc"]
        dead = {topo.switch_id(1, 0), topo.switch_id(2, 1)}
        removed = links_of_switches(topo, dead)
        assert_identical(
            *run_engines(topo, "uniform", 0.5, BASE, removed_links=removed)
        )

    def test_switch_fault_with_unroutable_pairs(self, topologies):
        """Killing every fabric switch over a leaf forces unroutable
        drops; the drop accounting must match."""
        topo = topologies["oft"]
        dead = {topo.switch_id(1, 0)}
        removed = links_of_switches(topo, dead)
        sims = run_engines(topo, "uniform", 0.4, BASE, removed_links=removed)
        assert_identical(*sims)
        assert sims[0].unroutable_packets == sims[1].unroutable_packets


class TestInstrumented:
    """Observer hooks must fire with identical payloads."""

    def test_metrics_observer_rfc(self, topologies):
        assert_identical(
            *run_engines(
                topologies["rfc"], "uniform", 0.6, BASE, with_observer=True
            )
        )

    def test_metrics_observer_direct(self, topologies):
        assert_identical(
            *run_engines(
                topologies["rrn"], "uniform", 0.5, BASE, with_observer=True
            )
        )

    def test_metrics_observer_valiant_with_traces(self, topologies):
        params = BASE.scaled(valiant=True)
        assert_identical(
            *run_engines(
                topologies["rfc"],
                "locality",
                0.5,
                params,
                with_observer=True,
                trace_limit=40,
            )
        )

    def test_traces_and_faults_together(self, topologies):
        links = list(topologies["rfc"].links())
        assert_identical(
            *run_engines(
                topologies["rfc"],
                "uniform",
                0.6,
                BASE,
                removed_links=[links[5]],
                with_observer=True,
                trace_limit=60,
            )
        )


class TestHorizonSweep:
    """Short horizons hit the warmup/measure boundary cases."""

    @pytest.mark.parametrize("measure,warmup", [(1, 0), (5, 0), (40, 40)])
    def test_short_horizons(self, topologies, measure, warmup):
        params = BASE.scaled(measure_cycles=measure, warmup_cycles=warmup)
        assert_identical(*run_engines(topologies["rfc"], "uniform", 0.7, params))


class TestDestinationEncoding:
    """The one destination encoding both table-driven engines share.

    ``destination_layout`` maps every terminal to a CSR destination
    column (``dest_key``) and its ejecting switch (``dest_home``); the
    engines admit a packet when key ``dest_home[src] * n_dests +
    dest_key[dst]`` is routable.  That single expression must equal the
    reference engine's per-packet admission test for every pair, on
    both topology kinds and on a faulted network.
    """

    @staticmethod
    def _check(topo, removed_links=None):
        sim = Simulator(
            topo,
            make_traffic("uniform", topo.num_terminals, rng=0),
            0.5,
            BASE,
            removed_links,
        )
        table = build_candidate_table(sim)
        n_dests = table.num_dests
        routable = (table.flags != CsrTable.UNROUTABLE).tolist()
        dest_key, dest_home, _ = destination_layout(sim)
        terminals = range(topo.num_terminals)
        assert dest_home == [topo.terminal_switch(t) for t in terminals]
        # A packet at its destination's home switch is delivered there.
        for t in terminals:
            key = dest_home[t] * n_dests + dest_key[t]
            assert table.flags[key] == CsrTable.DELIVER
        blocked = 0
        for src in terminals:
            for dst in terminals:
                encoded = routable[dest_home[src] * n_dests + dest_key[dst]]
                if sim._direct:
                    expected = sim.direct_router.reachable(
                        topo.terminal_switch(src), topo.terminal_switch(dst)
                    )
                else:
                    hosts = topo.hosts_per_leaf
                    expected = (
                        sim.router.min_ascent(0, src // hosts, dst // hosts)
                        >= 0
                    )
                assert encoded == expected, (src, dst)
                blocked += not expected
        return blocked

    @pytest.mark.parametrize("name", ["rfc", "cft", "rrn"])
    def test_admission_identity(self, topologies, name):
        assert self._check(topologies[name]) == 0

    def test_admission_identity_switch_faulted_rfc(self, topologies):
        topo = topologies["rfc"]
        dead = {topo.switch_id(2, i) for i in range(7)}
        blocked = self._check(topo, links_of_switches(topo, dead))
        # The fault must leave both routable and unroutable pairs.
        assert 0 < blocked < topo.num_terminals**2


class TestRouteMemo:
    """Route tables are memoized per topology, keyed by the removed-link
    set and ``minimal_routing``: simulators of one pruned network share
    them, other pruned networks get their own, and a shared table is
    identical to one built from scratch on a fresh topology."""

    @staticmethod
    def _sim(topo, removed=None, **overrides):
        return Simulator(
            topo,
            make_traffic("uniform", topo.num_terminals, rng=0),
            0.5,
            BASE.scaled(**overrides),
            removed,
        )

    @staticmethod
    def _same_table(a, b):
        return (
            a.num_dests == b.num_dests
            and a.offsets.tolist() == b.offsets.tolist()
            and a.values.tolist() == b.values.tolist()
            and a.flags.tolist() == b.flags.tolist()
        )

    @pytest.mark.parametrize("kind", ["rfc", "rrn"])
    def test_shared_per_key_and_equal_to_a_fresh_build(self, kind):
        def fresh():
            if kind == "rrn":
                return random_regular_network(16, 4, 2, rng=3)
            return rfc_with_updown(8, 16, 3, rng=7)[0]

        topo = fresh()
        links = list(topo.links())
        # Same channel count, different cables: the key must tell them
        # apart.
        cut_a = [links[2], links[6]]
        cut_b = [links[7], links[11]]
        first = self._sim(topo, cut_a)
        second = self._sim(topo, list(reversed(cut_a)), seed=9)
        assert build_candidate_table(first) is build_candidate_table(second)
        assert candidate_lists(first) is candidate_lists(second)
        assert build_relaxed_candidates(first) is build_relaxed_candidates(
            second
        )
        other = self._sim(topo, cut_b)
        bare = self._sim(topo)
        assert len(other.ch_kind) == len(first.ch_kind)
        tables = [build_candidate_table(s) for s in (first, other, bare)]
        assert len({id(t) for t in tables}) == 3
        for sim, removed in ((first, cut_a), (other, cut_b), (bare, None)):
            rebuilt = build_candidate_table(self._sim(fresh(), removed))
            assert self._same_table(build_candidate_table(sim), rebuilt)

    def test_a_topology_keeps_one_key(self):
        """A simulator of another pruned network replaces the memo, so
        the previous network's tables are released, and coming back
        rebuilds an equal table."""
        topo = rfc_with_updown(8, 16, 3, rng=7)[0]
        links = list(topo.links())
        first = self._sim(topo, [links[2]])
        table = build_candidate_table(first)
        released = weakref.ref(table)
        rows = table.offsets.tolist(), table.values.tolist()
        del table
        other = self._sim(topo, [links[7]])
        kept = build_candidate_table(other)
        gc.collect()
        assert released() is None
        assert build_candidate_table(other) is kept
        again = build_candidate_table(first)
        assert (again.offsets.tolist(), again.values.tolist()) == rows
        assert build_candidate_table(first) is again

    def test_minimal_routing_is_part_of_the_key(self):
        topo = rfc_with_updown(8, 16, 3, rng=7)[0]
        minimal = build_candidate_table(self._sim(topo))
        free = build_candidate_table(self._sim(topo, minimal_routing=False))
        assert minimal is not free
        assert not self._same_table(minimal, free)

    def test_shared_tables_give_fresh_results(self, topologies):
        topo = topologies["oft"]
        dead = links_of_switches(topo, {topo.switch_id(1, 0)})
        params = BASE.scaled(valiant=True)
        results = []
        for target in (topo, topo, orthogonal_fat_tree(2, 2)):
            for mode in ("exact", "relaxed"):
                sim = Simulator(
                    target,
                    make_traffic("uniform", target.num_terminals, rng=6),
                    0.5,
                    params.scaled(rng_mode=mode),
                    dead,
                )
                results.append(sim.run())
        assert results[:2] == results[2:4] == results[4:]
        assert results[0].unroutable_packets > 0


class _AllSilentTraffic(TrafficPattern):
    """No terminal ever injects -- the zero-load degenerate case."""

    name = "all-silent"

    def destination(self, source, rng):  # pragma: no cover - never called
        raise LookupError("silent")

    def is_silent(self, source):
        return True


class TestEdgeCases:
    """Degenerate configurations every engine must agree on."""

    def test_zero_injections(self, topologies):
        """A run with no traffic at all: zero packets, NaN latency
        moments, and still bit-for-bit agreement (including the NaN
        fields, which compare equal by SimResult's contract)."""
        topo = topologies["rfc"]
        sims = []
        for engine in ENGINES:
            traffic = _AllSilentTraffic(topo.num_terminals)
            sim = Simulator(topo, traffic, 0.5, BASE.scaled(engine=engine))
            sim.result = sim.run()
            sims.append(sim)
        assert_identical(*sims)
        assert sims[0].result.generated_packets == 0
        assert sims[0].result.delivered_packets == 0

    def test_minimal_folded_topology(self):
        """The smallest constructible RFC (8 terminals)."""
        topo = radix_regular_rfc(4, 4, 2, rng=3)
        assert_identical(*run_engines(topo, "uniform", 0.6, BASE))

    def test_two_terminal_direct_network(self):
        """Two switches, one terminal each -- the minimal network that
        can carry traffic at all."""
        topo = random_regular_network(2, 1, 1, rng=3)
        assert_identical(*run_engines(topo, "uniform", 0.8, BASE))

    def test_single_terminal_traffic_rejected(self):
        """One terminal cannot form a traffic pattern; the rejection
        happens before any engine is selected and is identical."""
        with pytest.raises(ValueError) as exc_info:
            make_traffic("uniform", 1, rng=0)
        assert "two terminals" in str(exc_info.value)

    def test_saturated_injection_queues(self, topologies):
        """Hot-spot overload: injection queues back up and the peak
        depth (a pure side-channel) must match across engines."""
        params = BASE.scaled(buffer_packets=1)
        sims = run_engines(topologies["rfc"], "fixed-random", 1.0, params)
        assert_identical(*sims)
        assert sims[0].max_inject_queue >= 3


@pytest.mark.slow
class TestFullMatrix:
    """The exhaustive sweep (CI bench job): topology x traffic x load
    x seed, plus faulted and instrumented axes."""

    @pytest.mark.parametrize("name", ["rfc", "cft", "oft", "rrn"])
    @pytest.mark.parametrize(
        "traffic", ["uniform", "random-pairing", "fixed-random"]
    )
    @pytest.mark.parametrize("load", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("seed", [0, 11])
    def test_matrix_point(self, topologies, name, traffic, load, seed):
        params = BASE.scaled(seed=seed)
        assert_identical(*run_engines(topologies[name], traffic, load, params))

    @pytest.mark.parametrize("name", ["rfc", "rrn"])
    @pytest.mark.parametrize("seed", [2, 7])
    def test_matrix_faulted_instrumented(self, topologies, name, seed):
        topo = topologies[name]
        links = list(topo.links())
        removed = [links[seed], links[seed + 4]]
        params = BASE.scaled(seed=seed)
        assert_identical(
            *run_engines(
                topo,
                "uniform",
                0.6,
                params,
                removed_links=removed,
                with_observer=True,
                trace_limit=30,
            )
        )
