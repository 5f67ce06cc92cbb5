#!/usr/bin/env python3
"""Reference figures kept out of the workloads.

    python3 bench/reference.py

Times, once each and in a fresh process, the cases that are too long for a
benchmark pass: classifying the synthesized 3x5 cluster grid with 20 angle
samples, and ``find_flow`` on 5x8 and 5x10 cluster grids with 4 and 5
random chords and no flow (chords drawn with ``random.Random(3)``).  A case
still running after :data:`TIMEOUT_S` seconds is stopped and reported as such.
Also prints, per workload, the smallest ``flow_depth_total`` any flows
could give: the sum of the minimum depths over the flows a pass finds.
"""

from __future__ import annotations

import argparse
import os
import random
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

CHORDED = {"chorded_5x8_4": (5, 8, 4), "chorded_5x10_5": (5, 10, 5)}
CASES = ("classify_3x5", *CHORDED)
TIMEOUT_S = 900


def run_case(name: str) -> float:
    import corpus
    from causalflow import classify_determinism, find_flow, synthesize

    if name == "classify_3x5":
        g = corpus.cluster_grid(3, 5)
        rng = random.Random(3)
        angles = {q: rng.uniform(0.0, 6.283185307179586) for q in g.measured}
        p = synthesize(g, find_flow(g).flow, angles)
        start = time.perf_counter()
        verdict = classify_determinism(p, angle_samples=20)
        elapsed = time.perf_counter() - start
        assert verdict.is_strong and verdict.uniform
        return elapsed
    rows, cols, chords = CHORDED[name]
    g = corpus.chorded_grid_without_flow(rows, cols, chords, random.Random(3))
    start = time.perf_counter()
    found = find_flow(g).found
    elapsed = time.perf_counter() - start
    assert not found
    return elapsed


def minimum_depth_totals(seed: int) -> dict[str, int]:
    """Sum of minimum flow depths over the flows one pass finds, probes aside."""
    from run import WORKLOAD_NAMES, build_ops
    from tracing import untraced_call

    totals = {}
    workdir = os.path.join(HERE, "out", "reference-cli")
    for name in WORKLOAD_NAMES:
        total = 0
        for op in build_ops(name, seed, workdir):
            if op.probe:
                continue
            pairs = op.check(op.body(untraced_call))
            total += sum(minimum for _, minimum in pairs)
        totals[name] = total
    shutil.rmtree(workdir, ignore_errors=True)
    return totals


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--case", choices=CASES)
    args = parser.parse_args()
    if args.case:
        print(f"{run_case(args.case):.3f}")
        return 0
    for name in CASES:
        try:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--case", name],
                capture_output=True,
                text=True,
                timeout=TIMEOUT_S,
            )
            result = f"{proc.stdout.strip()} s" if proc.returncode == 0 else proc.stderr
        except subprocess.TimeoutExpired:
            result = f"still running after {TIMEOUT_S} s"
        print(f"{name:16s} {result}", flush=True)
    for name, total in minimum_depth_totals(1).items():
        print(f"minimum flow_depth_total  {name:16s} {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
