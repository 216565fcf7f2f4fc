"""Observer hook dispatch: hooks resolve once per run, partial
observers see the full event stream, hooks nobody overrides are never
called, and ``MultiObserver`` keeps its children's order on every
hook."""

import pytest

from repro.obs import (
    MetricsObserver,
    MultiObserver,
    SimObserver,
    TraceWriter,
    TracingObserver,
)
from repro.obs.hooks import EVENT_HOOKS, event_hooks
from repro.simulation.config import SimulationParams
from repro.simulation.engine import Simulator
from repro.simulation.traffic import make_traffic
from repro.workloads import make_workload, run_workload

PARAMS = SimulationParams(measure_cycles=300, warmup_cycles=100, seed=5)

#: engine label -> param overrides.
ENGINES = {
    "reference": {"engine": "reference"},
    "fast": {},
    "relaxed": {"rng_mode": "relaxed"},
}


def _event(name, args):
    """A hashable record of one hook call (packets by serial)."""
    return (name,) + tuple(
        a.serial if hasattr(a, "serial") else a for a in args
    )


class Recorder(SimObserver):
    """Overrides every event hook and logs each call to ``log``."""

    def __init__(self, label="all", log=None):
        self.label = label
        self.log = [] if log is None else log

    def on_inject(self, *args):
        self.log.append((self.label, _event("on_inject", args)))

    def on_drop(self, *args):
        self.log.append((self.label, _event("on_drop", args)))

    def on_arbitrate(self, *args):
        self.log.append((self.label, _event("on_arbitrate", args)))

    def on_hop(self, *args):
        self.log.append((self.label, _event("on_hop", args)))

    def on_eject(self, *args):
        self.log.append((self.label, _event("on_eject", args)))


class EjectOnly(SimObserver):
    """Overrides ``on_eject`` alone."""

    def __init__(self, label="eject", log=None):
        self.label = label
        self.log = [] if log is None else log

    def on_eject(self, *args):
        self.log.append((self.label, _event("on_eject", args)))


class HopAndEject(EjectOnly):
    def on_hop(self, *args):
        self.log.append((self.label, _event("on_hop", args)))


def _run(topo, engine, observer, load=0.6, **overrides):
    params = PARAMS.scaled(**ENGINES[engine], **overrides)
    traffic = make_traffic("uniform", topo.num_terminals, rng=params.seed + 1)
    return Simulator(topo, traffic, load, params, observer=observer).run()


def _events(log, hook):
    return [event for _, event in log if event[0] == hook]


@pytest.mark.parametrize("engine", sorted(ENGINES))
class TestPartialObserver:
    def test_eject_only_sees_the_full_eject_stream(self, rfc_small, engine):
        full = Recorder()
        _run(rfc_small, engine, full)
        partial = EjectOnly()
        _run(rfc_small, engine, partial)
        expected = _events(full.log, "on_eject")
        assert expected
        assert partial.log == [("eject", e) for e in expected]

    def test_partial_observer_does_not_perturb(self, rfc_small, engine):
        bare = _run(rfc_small, engine, None, valiant=True)
        partial = _run(rfc_small, engine, EjectOnly(), valiant=True)
        full = _run(rfc_small, engine, Recorder(), valiant=True)
        assert bare == partial == full

    def test_workload_eject_stream(self, rfc_small, engine):
        """``run_workload`` composes the observer with its flow tracker;
        the partial observer still sees every ejection."""
        params = PARAMS.scaled(**ENGINES[engine], warmup_cycles=0)
        workload = make_workload(
            "incast", rfc_small.num_terminals, seed=3, fanin=8,
            rpc_size=4, events=3, duration=300,
        )
        full = Recorder()
        run_workload(rfc_small, workload, params, observer=full)
        partial = EjectOnly()
        result = run_workload(rfc_small, workload, params, observer=partial)
        assert partial.log == [
            ("eject", e) for e in _events(full.log, "on_eject")
        ]
        assert len(partial.log) == result.delivered_packets


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_multi_observer_keeps_child_order(rfc_small, engine):
    """For every hook, each event reaches the children that override it
    in list order, and the event stream equals a lone full recorder's."""
    log = []
    children = [
        Recorder("a", log),
        EjectOnly("b", log),
        HopAndEject("c", log),
        Recorder("d", log),
    ]
    _run(rfc_small, engine, MultiObserver(children))
    alone = Recorder()
    _run(rfc_small, engine, alone)
    listeners = {
        hook: [
            child.label
            for child in children
            if hook in {"on_eject"}
            or isinstance(child, Recorder)
            or (hook == "on_hop" and isinstance(child, HopAndEject))
        ]
        for hook in EVENT_HOOKS
    }
    for hook in EVENT_HOOKS:
        calls = [(label, e) for label, e in log if e[0] == hook]
        expected = [
            (label, event)
            for event in _events(alone.log, hook)
            for label in listeners[hook]
        ]
        assert calls == expected, hook
    assert _events(alone.log, "on_eject")


class TestHookResolution:
    def test_base_observer_resolves_nothing(self):
        assert event_hooks(SimObserver()) == (None,) * len(EVENT_HOOKS)
        assert event_hooks(None) == (None,) * len(EVENT_HOOKS)

    def test_overridden_hooks_resolve_to_bound_methods(self):
        observer = HopAndEject()
        assert observer.hook("on_eject") == observer.on_eject
        assert observer.hook("on_hop") == observer.on_hop
        for name in ("on_inject", "on_drop", "on_arbitrate"):
            assert observer.hook(name) is None

    def test_metrics_observer_listens_to_every_event(self):
        assert None not in event_hooks(MetricsObserver())

    def test_tracing_arbitration_hook_follows_include_arb(self):
        with TraceWriter(None) as writer:
            quiet = TracingObserver(writer)
            chatty = TracingObserver(writer, include_arb=True)
            assert quiet.hook("on_arbitrate") is None
            assert chatty.hook("on_arbitrate") == chatty.on_arbitrate
            assert quiet.hook("on_hop") == quiet.on_hop

    def test_multi_observer_resolution(self):
        log = []
        both = HopAndEject("first", log)
        eject = EjectOnly("second", log)
        multi = MultiObserver([both, SimObserver(), eject])
        assert multi.hook("on_inject") is None
        # Exactly one overriding child: its own bound method.
        assert multi.hook("on_hop") == both.on_hop
        # Several: one fan-out over only those children, in order.
        multi.hook("on_eject")(1, None, 2, 3)
        assert [label for label, _ in log] == ["first", "second"]
        assert MultiObserver([]).hook("on_eject") is None

    def test_nested_multi_observer(self):
        inner = MultiObserver([SimObserver(), EjectOnly()])
        outer = MultiObserver([inner, SimObserver()])
        assert outer.hook("on_eject") == inner.observers[1].on_eject
        assert outer.hook("on_hop") is None


@pytest.mark.parametrize("engine", ["fast", "relaxed"])
def test_unresolved_hooks_are_never_called(rfc_small, engine, monkeypatch):
    """The table-driven engines skip every hook the observer leaves as
    the base no-op (the reference engine, the oracle, calls them all)."""

    def forbidden(self, *args):
        raise AssertionError("un-overridden hook was called")

    for name in ("on_inject", "on_drop", "on_arbitrate", "on_hop"):
        monkeypatch.setattr(SimObserver, name, forbidden)
    observer = EjectOnly()
    with_hooks = _run(rfc_small, engine, observer, valiant=True)
    assert len(observer.log) == with_hooks.delivered_packets > 0
    monkeypatch.undo()
    assert with_hooks == _run(rfc_small, engine, None, valiant=True)


def test_metrics_observer_fills_its_registry_at_run_end():
    """Hooks fed before any ``on_run_start`` tally without stages, and
    nothing reaches the registry until ``on_run_end``: a run that fails
    part way keeps no metrics."""
    observer = MetricsObserver()
    observer.on_hop(5, None, 0, 1, 0, 2, 1)
    assert not any(observer.export().values())
    observer.on_run_end(None, None)
    exported = observer.export()
    assert exported["counters"] == {"hop.count": 1, "link.0->1": 1}
    assert exported["timeseries"] == {
        "ts.link_phits": {"width": 100, "buckets": {"0": 1.0}}
    }
