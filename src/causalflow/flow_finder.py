"""Flow search on open graph states.

Decides whether a geometry admits a flow and constructs a corrector map of
minimum depth together with its coarsest dependency order.  The search
peels layers backwards from the outputs (Mhalla & Perdrix, *Finding
optimal flows efficiently*, arXiv:0709.2670; de Beaudrap gives the same
existence criterion, arXiv:quant-ph/0611284):

* the outputs are processed first;
* in each round, every processed non-input vertex with exactly one
  unprocessed neighbour ``u`` is a corrector candidate, and the first such
  candidate in ascending id order becomes ``f(u)``; ``u`` joins the
  round's layer;
* a flow exists exactly when every vertex ends up processed.

A per-vertex count of unprocessed neighbours makes the search
near-linear.  The levels of the found ``f`` are recomputed by
:func:`dependency_order`, the coarsest layering; its depth is the minimum
over all flows.  Under the Pauli-Y relaxation a loop candidate joins a
round's layer, after the round's ordinary correctors and as its own
corrector, once all its neighbours were processed in earlier rounds;
loop-free flows are tried first.

:func:`brute_force_flow_oracle` re-derives existence exhaustively, and
every returned flow passes :func:`causalflow.graph_model.validate_flow`.
No function here recurses.

All functions are pure; independent searches may run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import AbstractSet, Mapping

from .graph_model import Flow, OpenGraphState, validate_flow
from .pattern import PatternError

DEFAULT_ORACLE_BOUND = 7


@dataclass(frozen=True)
class FlowSearchResult:
    """Result of a flow search: the validated flow, or ``None`` if none exists."""

    flow: Flow | None = None

    @property
    def found(self) -> bool:
        return self.flow is not None

    @property
    def depth(self) -> int | None:
        return None if self.flow is None else self.flow.depth

    def to_json_dict(self) -> dict:
        if self.flow is None:
            return {"found": False}
        return {"found": True, "flow": self.flow.to_json_dict(), "depth": self.depth}


def _constraint_successors(
    g: OpenGraphState, f: Mapping[int, int]
) -> dict[int, set[int]]:
    """Strict 'later than' constraints induced by a corrector map.

    Every measured ``i`` forces ``f(i)`` and all other neighbors of
    ``f(i)`` later than ``i``; a loop vertex forces all its own neighbors
    later.
    """
    succ: dict[int, set[int]] = {v: set() for v in g.vertices}
    adjacency = g._adjacency
    for i, j in f.items():
        if i == j:
            succ[i].update(adjacency[i])
        else:
            succ[i].add(j)
            succ[i].update(adjacency[j] - {i})
    return succ


def dependency_order(
    g: OpenGraphState, f: Mapping[int, int]
) -> dict[int, int] | None:
    """Coarsest layering satisfying the flow conditions for a given ``f``.

    Builds the constraint relation induced by ``f`` and assigns each vertex
    the length of the longest constraint chain ending at it.

    Parameters
    ----------
    g : OpenGraphState
        The geometry; ``f`` must map measured vertices to prepared
        neighbors (loops allowed here, legality is checked elsewhere).
    f : mapping int -> int
        Candidate corrector map; a vertex outside ``g`` raises PatternError.

    Returns
    -------
    dict int -> int or None
        The level of every vertex of ``g``, or ``None`` when the relation
        has a cycle, so that no valid order exists for this ``f``.
    """
    if stray := sorted({*f, *f.values()} - g._adjacency.keys()):
        raise PatternError(f"corrector map names vertices {stray} not in the graph")
    succ = _constraint_successors(g, f)
    indegree = {v: 0 for v in g.vertices}
    for v, ws in succ.items():
        for w in ws:
            indegree[w] += 1
    levels = {v: 0 for v in g.vertices}
    queue = sorted(v for v, d in indegree.items() if d == 0)
    done = 0
    while queue:
        v = queue.pop()
        done += 1
        for w in succ[v]:
            if levels[v] + 1 > levels[w]:
                levels[w] = levels[v] + 1
            indegree[w] -= 1
            if indegree[w] == 0:
                queue.append(w)
    return levels if done == len(g.vertices) else None


def _search(
    g: OpenGraphState, loop_candidates: AbstractSet[int]
) -> FlowSearchResult:
    """Backward layer peeling, as described in the module docstring.

    ``loop_candidates`` must be measured non-input vertices.  Only the
    neighbours of a round's layer change their count of unprocessed
    neighbours, so the next round's correctors and loop vertices are
    sought among those alone.
    """
    adjacency = g._adjacency
    inputs = frozenset(g.inputs)
    processed = set(g.outputs)
    unprocessed = {v: len(adjacency[v] - processed) for v in g.vertices}
    ready = {v for v in processed - inputs if unprocessed[v] == 1}
    loops_ready = {v for v in loop_candidates if unprocessed[v] == 0}
    f: dict[int, int] = {}
    while ready or loops_ready:
        layer: dict[int, int] = {}
        for v in sorted(ready):
            (u,) = adjacency[v] - processed
            layer.setdefault(u, v)
        for u in sorted(loops_ready):
            layer.setdefault(u, u)
        f.update(layer)
        processed.update(layer)
        touched = set(layer)
        for u in layer:
            for w in adjacency[u]:
                unprocessed[w] -= 1
                touched.add(w)
        ready = {
            w
            for w in touched
            if w in processed and w not in inputs and unprocessed[w] == 1
        }
        loops_ready = {
            w
            for w in touched
            if w in loop_candidates and w not in processed and unprocessed[w] == 0
        }
    if len(processed) != len(g.vertices):
        return FlowSearchResult()
    levels = dependency_order(g, f)
    assert levels is not None
    flow = Flow(f, levels)
    check = validate_flow(g, flow, allow_loops=bool(flow.loops))
    if not check.ok:
        raise AssertionError(f"search produced an invalid flow: {check.violations}")
    return FlowSearchResult(flow)


def find_flow(
    g: OpenGraphState, loop_candidates: AbstractSet[int] = frozenset()
) -> FlowSearchResult:
    """Find a flow of minimum depth on ``(G, I, O)``, with its coarsest
    dependency order.

    Each vertex in ``loop_candidates`` may be its own corrector (the
    Pauli-Y relaxation for qubits measured at a right angle); pass
    ``g.measured`` to allow every measured vertex.  A loop waives the edge
    and strictly-later conditions on the vertex itself but still requires
    every neighbour strictly later.  Loop-free flows are preferred when
    both exist, and an input is never offered a loop.

    Returns
    -------
    FlowSearchResult
        A flow that passes :func:`causalflow.graph_model.validate_flow`, or
        none.

    Raises
    ------
    PatternError
        If ``loop_candidates`` contains a vertex that is not measured.
    """
    stray = sorted(set(loop_candidates) - set(g.measured))
    if stray:
        raise PatternError(f"y-measured qubits {stray} are not measured vertices")
    result = _search(g, frozenset())
    loop_candidates = frozenset(loop_candidates).difference(g.inputs)
    if result.found or not loop_candidates:
        return result
    return _search(g, loop_candidates)


def find_biflow(g: OpenGraphState) -> tuple[FlowSearchResult, FlowSearchResult]:
    """Search both ``(G, I, O)`` and the role-swapped ``(G, O, I)``.

    A bi-flow exists when both directions are found; the two results are
    independently valid, and a bi-flow forces ``|I| == |O|``.
    """
    return find_flow(g), find_flow(g.reversed())


class OracleSizeError(ValueError):
    """Raised when a graph exceeds the brute-force oracle bound."""


def brute_force_flow_oracle(
    g: OpenGraphState,
    allow_loops: bool = False,
    max_vertices: int = DEFAULT_ORACLE_BOUND,
) -> FlowSearchResult:
    """Exhaustive flow-existence oracle for small graphs.

    Enumerates every injective map from the measured set into the prepared
    set (plus loop choices when allowed), keeping those that satisfy the
    edge condition, and runs :func:`dependency_order` on each; a flow
    exists exactly when some candidate yields an acyclic constraint
    relation.  Deliberately independent of the layer-peeling search.
    """
    if len(g.vertices) > max_vertices:
        raise OracleSizeError(
            f"{len(g.vertices)} vertices exceeds oracle bound {max_vertices}"
        )
    measured = list(g.measured)
    prepared = sorted(g.prepared)
    adjacency = g._adjacency
    for targets in permutations(prepared, len(measured)):
        if all(
            j in adjacency[i] or (allow_loops and j == i)
            for i, j in zip(measured, targets)
        ):
            f = dict(zip(measured, targets))
            levels = dependency_order(g, f)
            if levels is not None:
                return FlowSearchResult(Flow(f, levels))
    return FlowSearchResult()
