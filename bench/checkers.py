"""Checks the benchmark makes apart from the program.

Everything here reads only the public data fields of an open graph state
(``vertices``, ``edges``, ``inputs``, ``outputs``) and plain numpy arrays,
and never calls into ``causalflow``, so a fault in the program cannot hide
behind the same fault in its check.

* :func:`mp_flow` decides flow existence in polynomial time by backward
  layer peeling (Mhalla & Perdrix, *Finding optimal flows efficiently*,
  arXiv:0709.2670) and returns a flow of minimum depth.
* :func:`min_flow_depth` finds the minimum depth over all flows by
  enumerating every corrector map; it is exponential and meant for small
  graphs.
* :func:`flow_conditions_hold` checks a corrector map and levels against
  the flow conditions.
"""

from __future__ import annotations

import numpy as np


def adjacency(g) -> dict[int, set[int]]:
    """Neighbour sets of an open graph state, built from its edge list."""
    adj: dict[int, set[int]] = {v: set() for v in g.vertices}
    for u, v in g.edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def mp_flow(g) -> tuple[dict[int, int], dict[int, int]] | None:
    """Flow of minimum depth by backward layer peeling, or None.

    Outputs sit in layer 0.  In each round, every corrector candidate
    (a processed vertex that is not an input) with exactly one unprocessed
    neighbour ``u`` becomes ``f(u)``, and ``u`` joins the current layer.
    A flow exists exactly when every vertex ends up processed.  Returns
    ``(f, layer)`` where layer counts backwards from the outputs; the
    depth of the flow is ``1 + max(layer.values())``.
    """
    adj = adjacency(g)
    inputs = set(g.inputs)
    processed = set(g.outputs)
    layer = {v: 0 for v in g.outputs}
    correctors = processed - inputs
    f: dict[int, int] = {}
    k = 1
    while True:
        newly: set[int] = set()
        spent: set[int] = set()
        for v in sorted(correctors):
            open_nbrs = adj[v] - processed
            if len(open_nbrs) == 1:
                (u,) = open_nbrs
                if u not in newly:
                    f[u] = v
                    layer[u] = k
                    newly.add(u)
                # a corrector whose last open neighbour is now processed
                # can never be used again
                spent.add(v)
        if not newly:
            break
        processed |= newly
        correctors = (correctors - spent) | (newly - inputs)
        k += 1
    if len(processed) != len(g.vertices):
        return None
    return f, layer


def mp_depth(g) -> int | None:
    """Minimum flow depth from :func:`mp_flow`, or None without flow."""
    found = mp_flow(g)
    if found is None:
        return None
    return 1 + max(found[1].values(), default=0)


def chain_depth(g, f: dict[int, int], adj: dict[int, set[int]]) -> int | None:
    """Vertices on the longest chain of the order a corrector map forces.

    ``f`` forces ``i`` before ``f(i)`` and before every other neighbour of
    ``f(i)``.  Returns None when those constraints form a cycle.
    """
    succ: dict[int, set[int]] = {v: set() for v in g.vertices}
    for i, j in f.items():
        succ[i].add(j)
        succ[i] |= adj[j] - {i}
    indegree = {v: 0 for v in g.vertices}
    for ws in succ.values():
        for w in ws:
            indegree[w] += 1
    longest = {v: 1 for v in g.vertices}
    ready = [v for v, d in indegree.items() if d == 0]
    seen = 0
    while ready:
        v = ready.pop()
        seen += 1
        for w in succ[v]:
            longest[w] = max(longest[w], longest[v] + 1)
            indegree[w] -= 1
            if indegree[w] == 0:
                ready.append(w)
    if seen != len(g.vertices):
        return None
    return max(longest.values(), default=1)


def min_flow_depth(g) -> int | None:
    """Minimum depth over all loop-free flows, by exhaustive enumeration.

    Tries every injective map from measured to prepared vertices along
    edges; each acyclic one is a flow whose depth is its longest forced
    chain.  Returns None when no map is acyclic.
    """
    adj = adjacency(g)
    outputs = set(g.outputs)
    inputs = set(g.inputs)
    measured = [v for v in g.vertices if v not in outputs]
    prepared = {v for v in g.vertices if v not in inputs}
    options = [sorted(adj[i] & prepared) for i in measured]
    best: int | None = None
    f: dict[int, int] = {}
    used: set[int] = set()

    def extend(pos: int) -> None:
        nonlocal best
        if pos == len(measured):
            depth = chain_depth(g, f, adj)
            if depth is not None and (best is None or depth < best):
                best = depth
            return
        for j in options[pos]:
            if j not in used:
                f[measured[pos]] = j
                used.add(j)
                extend(pos + 1)
                used.remove(j)
                del f[measured[pos]]

    extend(0)
    return best


def flow_conditions_hold(g, f: dict[int, int], levels: dict[int, int]) -> bool:
    """True when ``(f, levels)`` is a loop-free flow of ``g``.

    ``f`` is defined exactly on the measured vertices, maps injectively into
    the prepared vertices along edges, and every ``i`` lies strictly below
    ``f(i)`` and below every other neighbour of ``f(i)``.
    """
    adj = adjacency(g)
    outputs = set(g.outputs)
    inputs = set(g.inputs)
    measured = {v for v in g.vertices if v not in outputs}
    if set(f) != measured or len(set(f.values())) != len(f):
        return False
    if any(v not in levels for v in g.vertices):
        return False
    for i, j in f.items():
        if j in inputs or j not in adj[i] or levels[j] <= levels[i]:
            return False
        if any(levels[k] <= levels[i] for k in adj[j] - {i}):
            return False
    return True


def isometry_defect(m: np.ndarray) -> float:
    """Largest entry of ``m^dag m - 1``."""
    gram = m.conj().T @ m
    return float(np.max(np.abs(gram - np.eye(gram.shape[0]))))


def phase_defect(a: np.ndarray, b: np.ndarray) -> float:
    """Distance between ``a`` and ``b`` after the best global phase."""
    overlap = np.vdot(a, b)
    phase = overlap / abs(overlap) if abs(overlap) > 1e-30 else 1.0
    return float(np.max(np.abs(a * phase - b)))


def proportionality_defect(a: np.ndarray, b: np.ndarray) -> float:
    """0 when the vectors are parallel, up to 1 when orthogonal.

    A zero vector is parallel to nothing here, so its defect is 1: a check
    for proportional maps then fails on a vanishing map instead of passing
    without testing anything.
    """
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 1.0
    return 1.0 - abs(np.vdot(a, b)) / (na * nb)
