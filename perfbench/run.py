"""Benchmark of the paper pipeline: one workload per run, in this process.

    python3 perfbench/run.py --workload sat_sweep --seed 0 --seconds 32 --trace 0

Run from anywhere inside a checkout; ``repro`` is imported from the
checkout's ``src`` directory and nowhere else.  The run sets up the
workload (its inputs depend only on ``--seed``), then repeats rounds of
the workload's operations, one at a time, for about ``--seconds``.
Every operation's output is checked; an exception or a failed check
counts as a failed operation and the run goes on.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics, with the
tracing overhead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--pin`` runs one round and stores its output signatures as the pinned
signatures for the seed in ``signatures.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SIGNATURES = HERE / "signatures.json"
OUT = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("sat_sweep", "flows_fct", "analysis_scale")
SETUP_PROBES = 5
MIN_ROUNDS = 3
OVERHEAD_REPEATS = 3

#: End-to-end metric -> unit, as printed with ``--trace 0``.
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


def attach_source() -> None:
    """Put the checkout's ``src`` first on the path and import ``repro``
    from there; exit with an error when the sources are absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro sources under {src}")
    sys.path.insert(0, str(src))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}, not {src}")


def normalize(value):
    """A signature as JSON would store it (tuples become lists)."""
    return json.loads(json.dumps(value))


@dataclass
class Round:
    op_times: dict[str, float]
    #: The round's spans in the tracer; empty for an untraced round.
    span_range: range
    counts: dict[str, float]


class Runner:
    """Runs rounds of one workload and checks every operation's output."""

    def __init__(self, workload, pins: dict | None) -> None:
        self.workload = workload
        self.pins = pins
        self.first: dict[str, object] = {}
        self.signatures: dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        #: op name -> (engine, delivered packets, completed flows)
        self.engine_work: dict[str, tuple[str, int, int]] = {}

    def check(self, name: str, outcome, error: str | None) -> None:
        self.attempted += 1
        if error is None:
            sig = normalize(outcome.sig)
            self.signatures[name] = sig
            first = self.first.setdefault(name, sig)
            if sig != first:
                error = f"signature changed between rounds: {sig} != {first}"
            elif self.pins is not None and self.pins.get(name) != sig:
                error = f"signature {sig} != pinned {self.pins.get(name)}"
        if error is not None:
            self.failed += 1
            self.errors.append(f"{name}: {error}")

    def round(self, tracer=None) -> Round:
        first_span = len(tracer.spans) if tracer else 0
        counts: dict[str, float] = {}
        op_times: dict[str, float] = {}
        for op in self.workload.round():
            start = time.perf_counter()
            index = tracer.open(f"op:{op.name}") if tracer else None
            outcome = error = None
            try:
                outcome = op.run()
            except Exception as exc:  # a failed operation; the run goes on
                error = f"{type(exc).__name__}: {exc}"
            finally:
                if tracer:
                    tracer.close(index)
            op_times[op.name] = time.perf_counter() - start
            self.check(op.name, outcome, error)
            if outcome is None:
                continue
            for key, value in outcome.counts.items():
                counts[key] = counts.get(key, 0) + value
            if op.engine is not None:
                self.engine_work[op.name] = (
                    op.engine, outcome.counts.get("pkts", 0), outcome.counts.get("flows", 0)
                )
        spans = range(first_span, len(tracer.spans)) if tracer else range(0)
        return Round(op_times, spans, counts)


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def op_medians(rounds: list[Round]) -> dict[str, float]:
    """Each operation's median time over ``rounds``.

    Their sum is the benchmark's round time: a slow spell of the host
    that hits one operation in one round is dropped by that operation's
    median, where a median of whole-round totals keeps part of it.
    """
    return {name: median(r.op_times[name] for r in rounds if name in r.op_times)
            for name in rounds[0].op_times}


def engine_rates(runner: Runner, medians: dict[str, float]) -> dict[str, float]:
    """Delivered packets and completed flows per second of engine ops."""
    seconds = {"exact": 0.0, "relaxed": 0.0}
    pkts = dict.fromkeys(seconds, 0)
    flows = dict.fromkeys(seconds, 0)
    for name, (engine, op_pkts, op_flows) in runner.engine_work.items():
        seconds[engine] += medians[name]
        pkts[engine] += op_pkts
        flows[engine] += op_flows

    def per_s(count: dict, engine: str) -> float:
        return count[engine] / seconds[engine] if seconds[engine] else 0.0

    return {
        "sim_pkts_per_s": per_s(pkts, "exact"),
        "flows_per_s": per_s(flows, "exact"),
        "relaxed_flows_per_s": per_s(flows, "relaxed"),
    }


def probe_setup(args) -> list[float]:
    """Wall time of ``SETUP_PROBES`` fresh processes that start the
    interpreter, import ``repro`` and build the workload's set-up."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(command, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def measure(runner: Runner, seconds: float, tracer=None, install=None) -> list[Round]:
    """Rounds until the next one would end past ``seconds``; with a
    tracer, every second round is traced."""
    rounds: list[Round] = []
    start = time.perf_counter()
    need = MIN_ROUNDS * (2 if tracer else 1)
    while True:
        if tracer is not None and len(rounds) % 2 == 1:
            install(tracer)
            try:
                rounds.append(runner.round(tracer))
            finally:
                tracer.restore()
        else:
            rounds.append(runner.round())
        elapsed = time.perf_counter() - start
        if len(rounds) >= need and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def obs_overhead(workload) -> float:
    """Observer cost in percent on one flow operation, bare vs observed."""
    bare, observed = [], []
    for _ in range(OVERHEAD_REPEATS):
        for observe, sink in ((False, bare), (True, observed)):
            start = time.perf_counter()
            workload.run_one("rpc", "exact", observed=observe)
            sink.append(time.perf_counter() - start)
    return 100.0 * (median(observed) / median(bare) - 1.0)


def report(name: str, value: float, unit: str, note: str) -> None:
    print(f"  {name:<32} {value:>14.6g} {unit:<6} {note}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    attach_source()
    import layers
    import suite
    from tracer import Tracer

    scratch = OUT / f"{args.workload}-{os.getpid()}"
    if args.setup_probe:
        suite.WORKLOADS[args.workload](args.seed, scratch)
        return 0
    pinned = json.loads(SIGNATURES.read_text()) if SIGNATURES.is_file() else {}
    pins = None if args.pin else pinned.get(args.workload, {}).get(str(args.seed))
    try:
        setup_times = [] if args.pin else probe_setup(args)
        tracer = Tracer() if args.trace else None
        if tracer:
            layers.install(tracer)
            index = tracer.open("op:setup")
        try:
            workload = suite.WORKLOADS[args.workload](args.seed, scratch)
        finally:
            if tracer:
                tracer.close(index)
                tracer.restore()
        setup_spans = range(0, len(tracer.spans)) if tracer else range(0)
        runner = Runner(workload, pins)
        if args.pin:
            runner.round()
            if runner.failed:
                print("\n".join(runner.errors), file=sys.stderr)
                return 1
            pinned.setdefault(args.workload, {})[str(args.seed)] = runner.signatures
            SIGNATURES.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
            print(f"pinned {len(runner.signatures)} signatures for {args.workload} seed {args.seed}")
            return 0
        rounds = measure(runner, args.seconds, tracer, layers.install)
        overhead = obs_overhead(workload) if tracer and hasattr(workload, "run_one") else 0.0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    plain = [r for r in rounds if not r.span_range]
    traced = [r for r in rounds if r.span_range]
    medians = op_medians(plain)
    rates = engine_rates(runner, medians)
    wall = sum(medians.values())
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
        f"{len(rounds)} rounds, {runner.attempted} ops, {runner.failed} failed, "
        f"pinned signatures: {'yes' if pins is not None else 'no'}"
    )
    for line in runner.errors[:20]:
        print(f"  FAILED {line}", file=sys.stderr)
    if args.trace:
        own = tracer.self_times()
        per_round = [
            layers.layer_metrics(tracer.spans, own, [*setup_spans, *r.span_range], r.counts)
            for r in traced
        ]
        metrics = {name: median(m.get(name, 0.0) for m in per_round) for name in layers.UNITS}
        metrics.update(rates)
        metrics["trace.wall_s"] = sum(op_medians(traced).values())
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - wall
        metrics["obs.overhead_pct"] = overhead
        units = layers.UNITS
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        if tracer.missing:
            print(f"  untraced (missing) targets: {', '.join(tracer.missing)}")
        print(f"  per-layer: median of {len(traced)} traced rounds; "
              f"tracing overhead {metrics['trace.overhead_s']:.4f} s per round "
              f"({100 * metrics['trace.overhead_s'] / wall:.1f}% of untraced wall_s)")
        for name in units:
            report(name, metrics[name], units[name], "")
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": median(setup_times),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = E2E_UNITS
        report("wall_s", metrics["wall_s"], "s",
               f"sum over {len(medians)} ops of each op's median of {len(plain)} rounds")
        report("setup_s", metrics["setup_s"], "s",
               f"median of {len(setup_times)} fresh processes")
        report("peak_rss_mib", metrics["peak_rss_mib"], "MiB", "1 process")
        for name, value in rates.items():
            if value:
                report(name, value, "1/s", f"over each op's median of {len(plain)} rounds")
        report("error_rate", runner.failed / runner.attempted, "ratio",
               f"{runner.failed} of {runner.attempted} ops")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
