#!/usr/bin/env python3
"""Seeded benchmark of causalflow.

Run one workload in this process::

    python3 bench/run.py --workload flow_search --seed 1 --seconds 10 --trace 0

or every workload, each in a fresh process, with ``--workload all``.

A run builds the workload's corpus from the seed (three times, keeping the
median build time), makes one warm-up pass, then makes whole passes over
the corpus until ``--seconds`` have passed, at least :data:`MIN_PASSES`
passes were made and at least :data:`MIN_SAMPLES` operations were timed.  Only the calls into the
program are timed; every output is checked after its call.  Probes, the
operations that exercise a known fault, run on every pass but are not
timed.  A fixed gauge of the machine's speed runs before and after every
pass and now and then between operations, and each pass's times are
rescaled to the speed at which the gauge takes its reference time
(:data:`GAUGES`), so that the drift of a shared machine does not read as
a change of the program.  Operations run in a seeded shuffled order.  Throughput and
the median latency take each operation's median time across passes, so a
few seconds in which the machine runs faster or slower than usual move
them little.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Reports and spans are also written
to ``bench/out/``.  The program is imported from ``src/`` next to this
directory; without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("sweep5_pipeline", "dense_classify", "flow_search", "cli")
SETUP_REPEATS = 3
MIN_PASSES = 7
MIN_SAMPLES = 60
TAIL_BEYOND = 10
IMPORT_PROBES = 3
GAUGE_LOOPS = 100_000

END_TO_END_UNITS = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "flow_depth_total": "count",
}

BUSY_CALLS = (
    "flow_finder.find_flow",
    "pattern.synthesize",
    "simulator.classify_determinism",
    "simulator.realized_embedding",
    "circuit_extract.extract_circuit",
    "circuit_extract.simulate_circuit",
)
CLASSIFY_KINDS = ("strong", "witness", "proportional")
CLI_SUBCOMMANDS = (
    "flow",
    "flow_bidirectional",
    "synth",
    "verify",
    "extract",
    "adjoint",
    "identities",
)
PER_LAYER_UNITS = {
    "flow_finder.find_flow.busy_s": "s",
    "flow_finder.find_flow.calls": "count",
    "flow_finder.depth_excess": "count",
    "pattern.synthesize.busy_s": "s",
    "pattern.commands_emitted": "count",
    "simulator.classify_determinism.busy_s": "s",
    **{f"simulator.classify_determinism.{k}.busy_s": "s" for k in CLASSIFY_KINDS},
    "simulator.branch_maps": "count",
    "simulator.peak_traced_mb": "MB",
    "simulator.tensor_mb_computed": "MB",
    "simulator.realized_embedding.busy_s": "s",
    "circuit_extract.extract_circuit.busy_s": "s",
    "circuit_extract.simulate_circuit.busy_s": "s",
    "circuit_extract.gates_emitted": "count",
    "cli.import_ms": "ms",
    "cli.interpreter_ms": "ms",
    **{f"cli.{s}.ms": "ms" for s in CLI_SUBCOMMANDS},
    "trace.overhead_pct": "%",
}


def python_loop() -> None:
    """Fixed pure-Python work, integer arithmetic and dict updates."""
    counts: dict[int, int] = {}
    total = 0
    for i in range(GAUGE_LOOPS):
        k = i & 255
        counts[k] = counts.get(k, 0) + i
        total += k * i % 7


def interpreter_start() -> None:
    """A bare interpreter, started and ended."""
    subprocess.run([sys.executable, "-c", "pass"], check=True, capture_output=True)


# The gauge of each workload, the seconds it takes on the reference
# machine (2 vCPU, Python 3.11), at whose speed times are reported, and
# the least seconds between its readings.  The cli workload starts
# processes, whose cost follows interpreter start-up more closely than
# in-process work.
GAUGES = {
    "python_loop": (python_loop, 0.020, 0.25),
    "interpreter_start": (interpreter_start, 0.060, 0.5),
}


class Gauge:
    """Readings of a fixed work's time, taken between operations.

    A reading is due once the gauge's period has passed since the last
    one, so the readings sample the machine's speed all through a pass.
    """

    def __init__(self, workload: str) -> None:
        self.name = "interpreter_start" if workload == "cli" else "python_loop"
        self.work, self.reference_s, self.period_s = GAUGES[self.name]
        self.readings: list[float] = []
        self.last = 0.0

    def read(self) -> None:
        start = time.perf_counter()
        self.work()
        self.last = time.perf_counter()
        self.readings.append(self.last - start)

    def read_if_due(self) -> None:
        if time.perf_counter() - self.last >= self.period_s:
            self.read()

    def scale_since(self, first: int) -> float:
        """Reference time over the mean of the readings from ``first`` on."""
        return self.reference_s / statistics.fmean(self.readings[first:])


class Tally:
    """Attempted, failed and wrong operations, named.

    ``unexpected`` holds the failures of operations that are not probes;
    any of them makes the run incorrect.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: Counter = Counter()
        self.unexpected: Counter = Counter()
        self.wrong: Counter = Counter()

    @property
    def correct(self) -> bool:
        return not self.wrong and not self.unexpected

    def fail(self, op, reason: str) -> None:
        self.failures[f"{op.label}: {reason}"] += 1
        if not op.probe:
            self.unexpected[f"{op.label}: {reason}"] += 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def run_pass(ops, call, tracer, tally: Tally, gauge: Gauge | None = None):
    """One pass over ``ops``.

    Returns the latency of each operation that is not a probe, the summed
    depth of the flows those operations found, their summed excess over the
    minimum depth, and the time spent checking outputs.
    """
    from workloads import Failed, Wrong

    latencies = []
    depth = excess = 0
    check_s = 0.0
    for op in ops:
        tally.attempted += 1
        start = time.perf_counter()
        error = None
        try:
            if tracer is None:
                output = op.body(call)
            else:
                output = tracer.operation(op.label, op.kind, op.body)
        except Exception as exc:  # a failing operation is counted by name
            error = exc
        if not op.probe:
            latencies.append(time.perf_counter() - start)
        if error is not None:
            tally.fail(op, type(error).__name__)
            continue
        checked = time.perf_counter()
        try:
            pairs = op.check(output)
        except Failed as exc:
            tally.fail(op, str(exc))
            continue
        except Wrong as exc:
            tally.wrong[f"{op.label}: {exc}"] += 1
            continue
        except Exception as exc:  # a check that cannot read the output
            tally.wrong[f"{op.label}: unreadable output ({type(exc).__name__})"] += 1
            continue
        finally:
            check_s += time.perf_counter() - checked
            if gauge is not None:
                gauge.read_if_due()
        if op.probe:
            continue
        for d, minimum in pairs:
            depth += d
            excess += d - minimum
    return latencies, depth, excess, check_s


def tail_rank(timed: int) -> int:
    """How many operations of a pass lie above the tail one.

    The tail operation has ``ceil(TAIL_BEYOND / k)`` slower operations
    above it, where ``k = ceil(MIN_SAMPLES / timed)`` is the fewest passes
    that hold MIN_SAMPLES timed operations.  So at least TAIL_BEYOND
    samples lie beyond it in those passes, and the choice does not depend
    on how many passes a run makes.
    """
    return math.ceil(TAIL_BEYOND / math.ceil(MIN_SAMPLES / timed))


def tail_s(medians: list[float]) -> float:
    """Mean of the operation medians in a band of ranks around the tail rank.

    The band reaches half the tail rank to either side, so one operation
    whose median lands high or low in a run moves the tail little.
    """
    rank = tail_rank(len(medians))
    slowest = sorted(medians, reverse=True)
    return statistics.fmean(slowest[rank - rank // 2 : rank + rank // 2 + 1])



def op_medians(by_pass: list[list[float]]) -> list[float]:
    """Each operation's median time across passes."""
    return list(map(statistics.median, zip(*by_pass)))


def median_pass_s(by_pass: list[list[float]]) -> float:
    """Sum over the operations of a pass of each one's median time across passes."""
    return sum(op_medians(by_pass))


def build_ops(name: str, seed: int, workdir: str):
    """The workload's operations, in a seeded shuffled order.

    Shuffled, operations of one kind are spread over the whole pass, so
    their times sample the machine's speed all through it instead of in
    one stretch of a fraction of a second.
    """
    import workloads

    if name == "cli":
        ops = workloads.cli(seed, workdir)
    else:
        ops = getattr(workloads, name)(seed)
    random.Random(seed).shuffle(ops)
    return ops


def time_subprocess(argv: list[str], env: dict) -> float:
    start = time.perf_counter()
    subprocess.run(argv, env=env, check=True, capture_output=True)
    return time.perf_counter() - start


def cli_startup_ms() -> dict:
    """Bare interpreter start and ``import causalflow.cli``, median of a few."""
    from workloads import CLI_ENV

    bare = [time_subprocess([sys.executable, "-c", "pass"], CLI_ENV) for _ in range(IMPORT_PROBES)]
    imported = [
        time_subprocess([sys.executable, "-c", "import causalflow.cli"], CLI_ENV)
        for _ in range(IMPORT_PROBES)
    ]
    return {
        "cli.interpreter_ms": statistics.median(bare) * 1e3,
        "cli.import_ms": statistics.median(imported) * 1e3,
    }


def per_layer_metrics(tracer, probes: set, scale: float, passes: int, peak_mb: float, excess: int) -> dict:
    """Per-layer metrics from the spans of the operations that are not probes.

    Times are multiplied by ``scale``, the run's median gauge rescaling.
    """
    by_id = {s["id"]: s for s in tracer.spans}
    spans = [
        s
        for s in tracer.spans
        if s["name"] not in probes
        and (s["parent"] is None or by_id[s["parent"]]["name"] not in probes)
    ]
    metrics = {}
    for name in BUSY_CALLS:
        metrics[name + ".busy_s"] = (
            sum(s["end"] - s["start"] for s in spans if s["name"] == name) * scale / passes
        )
    classify = [s for s in spans if s["name"] == "simulator.classify_determinism"]
    for kind in CLASSIFY_KINDS:
        metrics[f"simulator.classify_determinism.{kind}.busy_s"] = (
            sum(
                s["end"] - s["start"]
                for s in classify
                if by_id[s["parent"]].get("kind") == kind
            )
            * scale
            / passes
        )
    metrics["flow_finder.find_flow.calls"] = (
        sum(1 for s in spans if s["name"] == "flow_finder.find_flow") / passes
    )
    metrics["flow_finder.depth_excess"] = excess
    metrics["pattern.commands_emitted"] = (
        sum(s.get("commands", 0) for s in spans) / passes
    )
    metrics["simulator.branch_maps"] = sum(s["branch_maps"] for s in classify) / passes
    metrics["simulator.peak_traced_mb"] = peak_mb
    metrics["simulator.tensor_mb_computed"] = max(
        (s["tensor_mb_computed"] for s in classify), default=0.0
    )
    metrics["circuit_extract.gates_emitted"] = (
        sum(s.get("gates", 0) for s in spans) / passes
    )
    for sub in CLI_SUBCOMMANDS:
        times = [
            s["end"] - s["start"] for s in spans if s["name"] == f"op.cli.{sub}"
        ]
        metrics[f"cli.{sub}.ms"] = statistics.median(times) * scale * 1e3 if times else 0.0
    return metrics


def measure(args) -> dict:
    # One thread per workload: numpy's BLAS would otherwise start a worker
    # thread per CPU, whose spinning competes with the gauge.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    gauge = Gauge(args.workload)
    gauge.read()
    start = time.perf_counter()
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    try:
        import workloads  # noqa: F401  (imports the program)
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT}/src: {exc}", file=sys.stderr)
        raise SystemExit(2)
    from tracing import PeakProbe, Tracer, untraced_call

    import_s = time.perf_counter() - start
    workdir = os.path.join(OUT, f"cli-seed{args.seed}-{os.getpid()}")
    try:
        builds = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            ops = build_ops(args.workload, args.seed, workdir)
            builds.append(time.perf_counter() - t0)
        unmeasured = Tally()
        warm, _, _, _ = run_pass(ops, untraced_call, None, unmeasured, gauge)
        gauge.read()
        raw_setup_s = import_s + statistics.median(builds) + sum(warm)
        setup_s = raw_setup_s * gauge.scale_since(0)
        # Full collections in the timed region then scan what the program
        # allocates there, not the corpus and the modules set-up left.
        gc.collect()
        gc.freeze()

        tally = Tally()
        tracer = Tracer() if args.trace else None
        peak_mb = 0.0
        if tracer is not None:
            probe = PeakProbe()
            run_pass(ops, probe.call, None, unmeasured)
            peak_mb = probe.peak_mb
        scales: list[float] = []
        unscaled_pass_s: list[float] = []

        def timed_pass(traced: bool):
            """One pass, its times rescaled by the readings during and around it."""
            gauge.read()
            first = len(gauge.readings) - 1
            lat, depth, excess, check_s = run_pass(
                ops, untraced_call, tracer if traced else None, tally, gauge
            )
            gauge.read()
            scales.append(gauge.scale_since(first))
            unscaled_pass_s.append(sum(lat))
            return [t * scales[-1] for t in lat], depth, excess, check_s

        by_pass: list[list[float]] = []
        untraced_by_pass: list[list[float]] = []
        depths, excesses, checks = [], [], []
        passes = 0
        measure_start = time.perf_counter()
        while (
            time.perf_counter() - measure_start < args.seconds
            or passes < MIN_PASSES
            or sum(map(len, by_pass)) < MIN_SAMPLES
        ):
            # A traced run pairs each traced pass with an untraced one, taking
            # turns at going first, for the tracing overhead.
            untraced_first = tracer is not None and passes % 2 == 0
            if untraced_first:
                untraced_by_pass.append(timed_pass(False)[0])
            lat, depth, excess, check_s = timed_pass(tracer is not None)
            by_pass.append(lat)
            depths.append(depth)
            excesses.append(excess)
            checks.append(check_s)
            if tracer is not None and not untraced_first:
                untraced_by_pass.append(timed_pass(False)[0])
            passes += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    timed_ops = sum(1 for op in ops if not op.probe)
    scale = statistics.median(scales)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": passes,
        "ops_per_pass": len(ops),
        "timed_per_pass": timed_ops,
        "samples": sum(map(len, by_pass)),
        "tail_rank": tail_rank(timed_ops),
        "setup": {"import_s": import_s, "builds_s": builds, "warmup_s": sum(warm)},
        "check_s_per_pass": statistics.median(checks),
        "gauge": {
            "work": gauge.name,
            "reference_s": gauge.reference_s,
            "readings_s": gauge.readings,
            "median_scale": scale,
        },
        "unscaled": {"setup_s": raw_setup_s, "pass_s": unscaled_pass_s},
        "op_median_ms": dict(
            zip(
                (op.label for op in ops if not op.probe),
                (m * 1e3 for m in op_medians(by_pass)),
            )
        ),
        "correct": tally.correct and unmeasured.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": dict(tally.failures),
        "unexpected": dict(tally.unexpected + unmeasured.unexpected),
        "wrong": dict(tally.wrong + unmeasured.wrong),
    }
    if tracer is None:
        metrics = {
            "throughput_ops_s": timed_ops / median_pass_s(by_pass),
            "latency_p50_ms": statistics.median(op_medians(by_pass)) * 1e3,
            "latency_tail_ms": tail_s(op_medians(by_pass)) * 1e3,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
            "setup_s": setup_s,
            "flow_depth_total": statistics.median_low(depths),
        }
        units = END_TO_END_UNITS
    else:
        probes = {"op." + op.label for op in ops if op.probe}
        metrics = per_layer_metrics(
            tracer, probes, scale, passes, peak_mb, statistics.median_low(excesses)
        )
        metrics.update({k: v * scale for k, v in cli_startup_ms().items()})
        metrics["trace.overhead_pct"] = (
            median_pass_s(by_pass) / median_pass_s(untraced_by_pass) - 1.0
        ) * 100.0
        units = PER_LAYER_UNITS
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"{args.workload}-seed{args.seed}.spans.json"))
    report["metrics"] = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    return report


def print_report(report: dict) -> None:
    print(
        f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
        f"passes {report['passes']} x {report['ops_per_pass']} ops  "
        f"tail rank {report['tail_rank']}"
    )
    print(f"  attempted {report['attempted']}  failed {report['failed']}  correct {report['correct']}")
    for name, count in sorted(report["failures"].items()):
        print(f"  failed  {name}  x{count}")
    for name, count in sorted(report["unexpected"].items()):
        print(f"  UNEXPECTED failure  {name}  x{count}")
    for name, count in sorted(report["wrong"].items()):
        print(f"  WRONG   {name}  x{count}")
    for name, m in report["metrics"].items():
        print(f"  {name:45s} {m['value']:14.6f} {m['unit']}")


def result_line(report: dict) -> str:
    return json.dumps(
        {k: report[k] for k in ("correct", "attempted", "failed", "metrics")}
    )


def run_all(args) -> int:
    """Every workload in a fresh process, so each peak RSS is its own."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [
                sys.executable,
                os.path.abspath(__file__),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            capture_output=True,
            text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    report = measure(args)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print_report(report)
    print(result_line(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
