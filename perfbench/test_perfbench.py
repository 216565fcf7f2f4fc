"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import hashlib
import importlib
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.attach_source()

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def _legacy_digests() -> dict[str, str]:
    files = [ROOT / "scripts" / "bench_regression.py", *sorted(ROOT.glob("BENCH_*.json"))]
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files}


def _bench(capsys, argv: list[str]) -> dict:
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_tracer_restores_every_rebound_attribute():
    targets = [_resolve(module, path) for module, path, *_ in layers.TARGETS]
    before = [(owner, attr, getattr(owner, attr)) for owner, attr in targets]
    own_keys = {id(owner): set(vars(owner)) for owner, _ in targets}
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert tracer.missing == []
        for owner, attr, original in before:
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.restore()
    for owner, attr, original in before:
        assert getattr(owner, attr) is original, attr
    assert {id(owner): set(vars(owner)) for owner, _ in targets} == own_keys


def test_tracer_restores_inherited_method_and_skips_missing_target():
    class Base:
        def work(self):
            return 1

    class Child(Base):
        pass

    with Tracer() as tracer:
        tracer.bind(Child, "work", "child.work")
        tracer.bind(Child, "absent", "child.absent")
        assert Child().work() == 1
    assert "work" not in vars(Child)
    assert tracer.missing == [f"{Child.__name__}.absent"]
    assert [span.name for span in tracer.spans] == ["child.work"]


def test_self_time_subtracts_children():
    tracer = Tracer()
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    tracer.close(inner)
    tracer.close(outer)
    own = tracer.self_times()
    spans = tracer.spans
    assert own[0] == pytest.approx(spans[0].duration - spans[1].duration)
    assert own[1] == spans[1].duration


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.E2E_UNITS
    assert per_layer == layers.UNITS
    for name in [*e2e, *per_layer]:
        assert NAME.match(name), name
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_corrupted_pin_fails_operations_and_legacy_files_stay(tmp_path, capsys, monkeypatch):
    pins = json.loads(run.SIGNATURES.read_text())
    legacy = _legacy_digests()
    good = _bench(capsys, ["--workload", "flows_fct", "--seed", "0", "--seconds", "0"])
    assert good["correct"] and good["failed"] == 0
    assert set(good["metrics"]) == set(run.E2E_UNITS)
    rounds = good["attempted"] // len(pins["flows_fct"]["0"])

    pins["flows_fct"]["0"]["incast:relaxed"]["fct_p99"] += 1
    corrupted = tmp_path / "signatures.json"
    corrupted.write_text(json.dumps(pins))
    monkeypatch.setattr(run, "SIGNATURES", corrupted)
    bad = _bench(capsys, ["--workload", "flows_fct", "--seed", "0", "--seconds", "0"])
    assert not bad["correct"]
    assert bad["failed"] == rounds  # only the corrupted op, once per round
    assert _legacy_digests() == legacy


def test_traced_run_reports_every_layer_metric(capsys):
    out = _bench(capsys, ["--workload", "flows_fct", "--seed", "0", "--seconds", "0", "--trace", "1"])
    assert out["correct"] and out["failed"] == 0  # traced signatures equal untraced ones
    assert set(out["metrics"]) == set(layers.UNITS)
    metrics = {name: m["value"] for name, m in out["metrics"].items()}
    for name in ("simulation.run_s.exact", "simulation.run_s.relaxed", "workloads.flows",
                 "obs.trace_records", "flows_per_s", "relaxed_flows_per_s"):
        assert metrics[name] > 0, name
