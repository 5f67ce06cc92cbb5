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

Each vertex keeps a count and an XOR of the ids of its unprocessed
neighbours (vertex ids are ints), so a ready corrector reads its one
unprocessed neighbour in constant time.  A round costs the degrees of its
layer plus a sort of its candidates, so a search takes
O(|E| + |V| log |V|).  Under the Pauli-Y relaxation a loop candidate joins a
round's layer, after the round's ordinary correctors and as its own
corrector, once all its neighbours were processed in earlier rounds;
loop-free flows are tried first.

The peel processes every constraint successor of a vertex (``f(i)``, the
other neighbours of ``f(i)``, or a loop vertex's neighbours) before the
vertex itself.  So one sweep over the peel order, reversed, assigns each
vertex the length of its longest constraint chain: the levels of
:func:`dependency_order`, the coarsest layering, whose depth is the minimum
over all flows.  :func:`dependency_order` derives them apart, from the
constraint relation, for the oracle and for any given ``f``.

:func:`brute_force_flow_oracle` re-derives existence exhaustively, and
every returned flow passes :func:`causalflow.graph_model.validate_flow`.
No function here recurses.  :class:`causalflow.pattern.PatternError` is
imported where it is raised, so that a flow search loads no pattern module.

All functions are pure; independent searches may run concurrently.
"""

from __future__ import annotations

from itertools import permutations
from typing import AbstractSet, Mapping

from .graph_model import Flow, OpenGraphState, _Frozen, validate_flow

DEFAULT_ORACLE_BOUND = 7


class FlowSearchResult(_Frozen):
    """Result of a flow search: the validated flow, or ``None`` if none exists."""

    flow: Flow | None

    def __init__(self, flow: Flow | None = None) -> None:
        self.__dict__["flow"] = flow

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
        from .pattern import PatternError

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
    sought among those alone.  An entry of ``ready`` may repeat, or may
    lose its last unprocessed neighbour to a later update of the same
    round: the next round takes only the entries whose count is still 1,
    and a repeat sets nothing new.  ``f``'s insertion order is the peel
    order, which the level sweep reverses.
    """
    adjacency = g._adjacency
    inputs = frozenset(g.inputs)
    count = {v: len(n) for v, n in adjacency.items()}
    xor = dict.fromkeys(adjacency, 0)
    for u, v in g.edges:
        xor[u] ^= v
        xor[v] ^= u
    for u in g.outputs:
        for w in adjacency[u]:
            count[w] -= 1
            xor[w] ^= u
    processed = set(g.outputs)
    ready = [v for v in g.outputs if count[v] == 1 and v not in inputs]
    loops_ready = [v for v in loop_candidates if count[v] == 0]
    f: dict[int, int] = {}
    while ready or loops_ready:
        layer: dict[int, int] = {}
        for v in sorted(ready):
            if count[v] == 1:
                layer.setdefault(xor[v], v)
        for u in sorted(loops_ready):
            layer.setdefault(u, u)
        f.update(layer)
        processed.update(layer)
        ready = []
        loops_ready = []
        for u in layer:
            if count[u] == 1 and u not in inputs:
                ready.append(u)
            for w in adjacency[u]:
                c = count[w] = count[w] - 1
                xor[w] ^= u
                if c == 1:
                    if w in processed and w not in inputs:
                        ready.append(w)
                elif c == 0 and w in loop_candidates and w not in processed:
                    loops_ready.append(w)
    if len(processed) != len(g.vertices):
        return FlowSearchResult()
    levels = dict.fromkeys(g.vertices, 0)
    for i in reversed(f):
        j = f[i]
        later = levels[i] + 1
        if i != j and levels[j] < later:
            levels[j] = later
        for k in adjacency[j]:
            if k != i and levels[k] < later:
                levels[k] = later
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
        from .pattern import PatternError

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
