"""Seeded inputs for the benchmark workloads.

Every generator takes a ``random.Random`` (or a seed) and returns plain
values or ``OpenGraphState`` objects; the same seed gives the same inputs.
Flow existence, where a corpus needs it, is decided by the benchmark's own
:func:`checkers.mp_flow`, never by the program under test.
"""

from __future__ import annotations

import itertools
import random

from causalflow import OpenGraphState

from checkers import min_flow_depth, mp_flow


def connected_graph_classes(n: int) -> list[tuple[tuple[int, int], ...]]:
    """Edge sets of the connected graphs on ``1..n``, one per isomorphism class."""
    vs = range(1, n + 1)
    pairs = list(itertools.combinations(vs, 2))
    perms = list(itertools.permutations(vs))
    seen: set[tuple[tuple[int, int], ...]] = set()
    classes = []
    for bits in range(1 << len(pairs)):
        edges = tuple(e for k, e in enumerate(pairs) if bits >> k & 1)
        reached = {1}
        frontier = [1]
        while frontier:
            v = frontier.pop()
            for a, b in edges:
                for x, y in ((a, b), (b, a)):
                    if x == v and y not in reached:
                        reached.add(y)
                        frontier.append(y)
        if len(reached) != n:
            continue
        canon = min(
            tuple(sorted(tuple(sorted((p[a - 1], p[b - 1]))) for a, b in edges))
            for p in perms
        )
        if canon not in seen:
            seen.add(canon)
            classes.append(edges)
    return classes


def sweep_geometries(max_vertices: int = 5) -> list[tuple[OpenGraphState, int]]:
    """Every connected open graph state with flow, with its minimum depth.

    Graphs are taken up to isomorphism and paired with every choice of
    input and output sets; for at most five vertices there are 6556.
    """
    found = []
    for n in range(1, max_vertices + 1):
        vs = list(range(1, n + 1))
        subsets = [
            s for k in range(n + 1) for s in itertools.combinations(vs, k)
        ]
        for edges in connected_graph_classes(n):
            for inputs in subsets:
                for outputs in subsets:
                    g = OpenGraphState(vs, edges, inputs, outputs)
                    if mp_flow(g) is not None:
                        found.append((g, min_flow_depth(g)))
    return found


def stratified_draw(items: list, key, share: float, rng: random.Random) -> list:
    """A seeded draw of ``share`` of ``items`` from every stratum of ``key``.

    Each stratum gives the same number of items whatever the seed, so the
    draw's cost and size do not depend on the seed.
    """
    strata: dict = {}
    for item in items:
        strata.setdefault(key(item), []).append(item)
    drawn = []
    for k in sorted(strata):
        members = strata[k]
        count = max(1, round(share * len(members)))
        drawn.extend(rng.sample(members, count))
    return drawn


def grid_id(cols: int, r: int, c: int) -> int:
    return r * cols + c + 1


def cluster_grid(rows: int, cols: int) -> OpenGraphState:
    """``rows x cols`` cluster grid: inputs in the first column, outputs in the last."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((grid_id(cols, r, c), grid_id(cols, r, c + 1)))
            if r + 1 < rows:
                edges.append((grid_id(cols, r, c), grid_id(cols, r + 1, c)))
    return OpenGraphState(
        range(1, rows * cols + 1),
        edges,
        [grid_id(cols, r, 0) for r in range(rows)],
        [grid_id(cols, r, cols - 1) for r in range(rows)],
    )


def path(n: int) -> OpenGraphState:
    """Path ``1 - 2 - ... - n`` with input 1 and output n."""
    return OpenGraphState(range(1, n + 1), [(k, k + 1) for k in range(1, n)], [1], [n])


def chorded_grid_without_flow(
    rows: int, cols: int, chords: int, rng: random.Random
) -> OpenGraphState:
    """A cluster grid plus ``chords`` random extra edges, drawn until it has no flow."""
    base = cluster_grid(rows, cols)
    existing = set(base.edges)
    n = rows * cols
    while True:
        extra: set[tuple[int, int]] = set()
        while len(extra) < chords:
            u, v = sorted(rng.sample(range(1, n + 1), 2))
            if (u, v) not in existing:
                extra.add((u, v))
        g = OpenGraphState(
            base.vertices, base.edges + tuple(sorted(extra)), base.inputs, base.outputs
        )
        if mp_flow(g) is None:
            return g
