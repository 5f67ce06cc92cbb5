"""Tests of the benchmark's own checkers; no timing.

Run with ``python3 -m pytest bench/test_checkers.py -q``.  The backward
layer peeling decision and the minimum-depth enumeration must agree with
the program's ``brute_force_flow_oracle`` on every open graph with at most
four vertices and on a seeded random set with at most seven.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from causalflow import (  # noqa: E402
    OpenGraphState,
    brute_force_flow_oracle,
    find_flow,
    validate_flow,
)

import corpus  # noqa: E402
from checkers import (  # noqa: E402
    adjacency,
    chain_depth,
    flow_conditions_hold,
    isometry_defect,
    min_flow_depth,
    mp_depth,
    mp_flow,
    phase_defect,
    proportionality_defect,
)


def all_open_graphs(max_vertices: int):
    """Every labelled open graph on 1..n, n <= max_vertices, every I/O choice."""
    for n in range(1, max_vertices + 1):
        vs = list(range(1, n + 1))
        pairs = list(itertools.combinations(vs, 2))
        subsets = [s for k in range(n + 1) for s in itertools.combinations(vs, k)]
        for bits in range(1 << len(pairs)):
            edges = [e for k, e in enumerate(pairs) if bits >> k & 1]
            for inputs in subsets:
                for outputs in subsets:
                    yield OpenGraphState(vs, edges, inputs, outputs)


def random_open_graphs(count: int, max_vertices: int, seed: int):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_vertices)
        vs = list(range(1, n + 1))
        edges = [e for e in itertools.combinations(vs, 2) if rng.random() < 0.45]
        inputs = [v for v in vs if rng.random() < 0.35]
        outputs = [v for v in vs if rng.random() < 0.5]
        yield OpenGraphState(vs, edges, inputs, outputs)


def mp_levels(g) -> dict[int, int]:
    """Backward layers of :func:`mp_flow` turned into forward levels."""
    f, layer = mp_flow(g)
    top = max(layer.values())
    return {v: top - k for v, k in layer.items()}


def assert_agrees_with_oracle(g) -> None:
    oracle = brute_force_flow_oracle(g)
    found = mp_flow(g)
    minimum = min_flow_depth(g)
    assert (found is not None) == oracle.found, g
    assert (minimum is not None) == oracle.found, g
    if found is None:
        return
    f, _ = found
    assert flow_conditions_hold(g, f, mp_levels(g)), g
    assert mp_depth(g) == minimum, g
    assert oracle.depth >= minimum, g


def test_every_open_graph_up_to_four_vertices():
    count = 0
    for g in all_open_graphs(4):
        assert_agrees_with_oracle(g)
        count += 1
    assert count == 4 + 2 * 16 + 8 * 64 + 64 * 256


def test_seeded_random_open_graphs_up_to_seven_vertices():
    with_flow = 0
    for g in random_open_graphs(400, 7, seed=709):
        assert_agrees_with_oracle(g)
        with_flow += mp_flow(g) is not None
    assert 0 < with_flow < 400


def test_chain_depth_matches_the_programs_depth():
    for g in random_open_graphs(300, 7, seed=2670):
        result = find_flow(g)
        if result.found:
            assert chain_depth(g, result.flow.f, adjacency(g)) == result.depth


def test_flow_conditions_agree_with_validate_flow():
    rng = random.Random(5)
    checked = 0
    for g in random_open_graphs(300, 6, seed=11):
        result = find_flow(g)
        if not result.found or not result.flow.f:
            continue
        fl = result.flow
        assert flow_conditions_hold(g, fl.f, fl.levels)
        # moving one measured vertex to the top level breaks F1
        i = rng.choice(sorted(fl.f))
        levels = dict(fl.levels)
        levels[i] = max(levels.values()) + 1
        assert not flow_conditions_hold(g, fl.f, levels)
        assert not validate_flow(g, type(fl)(fl.f, levels)).ok
        checked += 1
    assert checked > 50


def test_sweep_corpus_is_the_6556_flow_geometries():
    geometries = corpus.sweep_geometries(5)
    assert len(geometries) == 6556
    assert all(find_flow(g).found for g, _ in geometries[::97])


def test_stratified_draw_size_does_not_depend_on_the_seed():
    items = list(range(100))
    sizes = {
        len(corpus.stratified_draw(items, lambda x: x % 7, 0.1, random.Random(s)))
        for s in range(5)
    }
    assert len(sizes) == 1


def test_chorded_grids_have_no_flow_and_paths_have_full_depth():
    rng = random.Random(3)
    for _ in range(5):
        g = corpus.chorded_grid_without_flow(3, 6, 2, rng)
        assert not find_flow(g).found
    assert mp_depth(corpus.path(30)) == 30
    assert mp_depth(corpus.cluster_grid(3, 5)) == min_flow_depth(corpus.cluster_grid(3, 5))


def test_matrix_checks():
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    assert isometry_defect(h) < 1e-12
    assert isometry_defect(2 * h) > 1
    assert phase_defect(h, 1j * h) < 1e-12
    assert phase_defect(h, np.eye(2)) > 0.1
    assert proportionality_defect(np.array([1, 1j]), np.array([2j, -2])) < 1e-12
    assert proportionality_defect(np.array([1, 0]), np.array([0, 1])) == 1.0
    assert proportionality_defect(np.zeros(2), np.array([0, 1])) == 1.0
    assert proportionality_defect(np.zeros(2), np.zeros(2)) == 1.0


def test_metric_names_match_benchmark_json():
    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOAD_NAMES
