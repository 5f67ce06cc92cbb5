"""Open graph states and flows.

An open graph state is an undirected graph together with two (possibly
overlapping) vertex subsets marking the inputs and outputs of a one-way
computation.  A flow equips such a state with a corrector map ``f`` from
measured to prepared vertices and a layered partial order; together they
certify that a deterministic measurement pattern exists for the geometry.

All types in this module are immutable after construction and safe to share
across concurrent tasks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of a structural check: ``ok`` or a list of named violations."""

    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


class GraphFormatError(ValueError):
    """Raised for a malformed graph document or an invalid open graph."""


@dataclass(frozen=True)
class OpenGraphState:
    """Undirected graph with designated input and output vertex sets.

    An open graph state is valid once it exists: the constructor raises
    :class:`GraphFormatError`, listing every violation that
    :func:`validate_graph` finds, so every consumer may assume the rule.

    Parameters
    ----------
    vertices : iterable of int
        Vertex ids.  Stored sorted and deduplicated.
    edges : iterable of (int, int)
        Unordered pairs of distinct vertices, each pair at most once in
        either orientation.  Stored with the smaller id first.
    inputs, outputs : iterable of int
        The input set I and output set O, both subsets of the vertices.
        They may overlap; a vertex in both is neither prepared nor
        measured.  Stored sorted, which fixes the tensor-index convention
        used by the simulator.
    """

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]

    def __init__(
        self,
        vertices: Iterable[int],
        edges: Iterable[tuple[int, int]],
        inputs: Iterable[int] = (),
        outputs: Iterable[int] = (),
    ) -> None:
        object.__setattr__(self, "vertices", tuple(sorted(set(vertices))))
        object.__setattr__(
            self, "edges", tuple((u, v) if u <= v else (v, u) for u, v in edges)
        )
        object.__setattr__(self, "inputs", tuple(sorted(set(inputs))))
        object.__setattr__(self, "outputs", tuple(sorted(set(outputs))))
        check = validate_graph(self)
        if not check.ok:
            raise GraphFormatError("invalid open graph: " + "; ".join(check.violations))

    @cached_property
    def _adjacency(self) -> dict[int, frozenset[int]]:
        adj: dict[int, set[int]] = {v: set() for v in self.vertices}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return {v: frozenset(n) for v, n in adj.items()}

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    @property
    def measured(self) -> tuple[int, ...]:
        """Vertices outside O, i.e. the qubits that get measured."""
        oset = set(self.outputs)
        return tuple(v for v in self.vertices if v not in oset)

    @property
    def prepared(self) -> tuple[int, ...]:
        """Vertices outside I, i.e. the qubits that get prepared."""
        iset = set(self.inputs)
        return tuple(v for v in self.vertices if v not in iset)

    def reversed(self) -> OpenGraphState:
        """The dual state: same graph with inputs and outputs swapped."""
        return OpenGraphState(self.vertices, self.edges, self.outputs, self.inputs)

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [list(e) for e in self.edges],
            "inputs": list(self.inputs),
            "outputs": list(self.outputs),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def graph_from_json_dict(data: Mapping) -> OpenGraphState:
    """Build an :class:`OpenGraphState` from its JSON dictionary form.

    The expected shape is ``{"vertices": [...], "edges": [[u, v], ...],
    "inputs": [...], "outputs": [...]}``.  Raises GraphFormatError on a
    document of another shape and, from the constructor, on an invalid
    open graph.
    """
    try:
        if not isinstance(data, Mapping):
            raise TypeError(f"expected a JSON object, got {type(data).__name__}")
        vertices = [int(v) for v in data["vertices"]]
        raw_edges = [(int(u), int(v)) for u, v in data["edges"]]
        inputs = [int(v) for v in data.get("inputs", [])]
        outputs = [int(v) for v in data.get("outputs", [])]
    except KeyError as exc:
        raise GraphFormatError(f"malformed graph document: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise GraphFormatError(f"malformed graph document: {exc}") from exc
    return OpenGraphState(vertices, raw_edges, inputs, outputs)


def validate_graph(g: OpenGraphState) -> ValidationResult:
    """Check the open-graph-state invariants: the one statement of the rule
    that :class:`OpenGraphState` enforces on construction.

    Violations are returned as data, naming the offending vertex or edge,
    edge by edge in the stored order and then inputs and outputs: a
    self-edge, an edge endpoint outside the vertex set, an edge given twice
    (in either orientation), and an input or output that is not a vertex.
    A constructed graph always passes.
    """
    violations: list[str] = []
    vset = g.vertex_set
    seen: set[tuple[int, int]] = set()
    for e in g.edges:
        u, v = e
        if u == v:
            violations.append(f"self-edge at vertex {u}")
        if u not in vset:
            violations.append(f"edge endpoint {u} not a vertex")
        if v not in vset and v != u:
            violations.append(f"edge endpoint {v} not a vertex")
        if e in seen:
            violations.append(f"duplicate edge {list(e)}")
        seen.add(e)
    for i in g.inputs:
        if i not in vset:
            violations.append(f"input {i} not a vertex")
    for o in g.outputs:
        if o not in vset:
            violations.append(f"output {o} not a vertex")
    return ValidationResult(tuple(violations))


@dataclass(frozen=True)
class Flow:
    """Corrector map plus a layered order witnessing the flow conditions.

    Parameters
    ----------
    f : mapping int -> int
        Corrector assignment from measured vertices to prepared vertices.
        Stored as a read-only copy.
    levels : mapping int -> int
        Layer index of every vertex; ``u`` is strictly later than ``v``
        exactly when ``levels[u] > levels[v]``.  Stored as a read-only copy.

    The loops (:attr:`loops`) are derived: they are the fixed points of ``f``.
    """

    f: Mapping[int, int]
    levels: Mapping[int, int]

    def __init__(self, f: Mapping[int, int], levels: Mapping[int, int]) -> None:
        object.__setattr__(self, "f", MappingProxyType(dict(f)))
        object.__setattr__(self, "levels", MappingProxyType(dict(levels)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Flow):
            return NotImplemented
        return self.f == other.f and self.levels == other.levels

    def __hash__(self) -> int:
        return hash((frozenset(self.f.items()), frozenset(self.levels.items())))

    @cached_property
    def loops(self) -> frozenset[int]:
        """Vertices with ``f(i) == i``.  Only legal for the Pauli-Y
        relaxation (see :func:`causalflow.pattern.synthesize`); an ordinary
        flow has none."""
        return frozenset(i for i, j in self.f.items() if i == j)

    @property
    def depth(self) -> int:
        """Number of layers in the order (1 + the maximum level)."""
        if not self.levels:
            return 1
        return 1 + max(self.levels.values())

    def to_json_dict(self) -> dict:
        return {
            "f": {str(i): j for i, j in sorted(self.f.items())},
            "levels": {str(v): l for v, l in sorted(self.levels.items())},
            "loops": sorted(self.loops),
        }


def validate_flow(
    g: OpenGraphState, fl: Flow, allow_loops: bool = False
) -> ValidationResult:
    """Check a candidate flow against the flow conditions.

    The checks, against ``fl.levels`` as the witnessing order:

    * the domain of ``f`` is exactly the measured set and its range lies in
      the prepared set;
    * F0: ``{i, f(i)}`` is a graph edge (waived for loop vertices);
    * F1: ``f(i)`` is strictly later than ``i`` (waived for loop vertices);
    * F2: every neighbor of ``f(i)`` other than ``i`` is strictly later
      than ``i``; for a loop vertex this means every neighbor of ``i``;
    * ``f`` is injective (a consequence of F2, checked directly).

    Loop vertices, the fixed points of ``f`` (:attr:`Flow.loops`), are
    rejected outright unless ``allow_loops`` is set.
    """
    violations: list[str] = []
    measured = set(g.measured)
    prepared = set(g.prepared)
    fmap = fl.f
    levels = fl.levels

    for v in g.vertices:
        if v not in levels:
            violations.append(f"vertex {v} has no level")
    if violations:
        return ValidationResult(tuple(violations))

    dom = set(fmap)
    if dom != measured:
        missing = sorted(measured - dom)
        extra = sorted(dom - measured)
        if missing:
            violations.append(f"f undefined on measured vertices {missing}")
        if extra:
            violations.append(f"f defined outside measured set: {extra}")
    for i, j in sorted(fmap.items()):
        if j not in prepared:
            violations.append(f"f({i})={j} is not a prepared vertex")

    if fl.loops and not allow_loops:
        violations.append(f"loops not allowed: {sorted(fl.loops)}")

    seen_targets: dict[int, int] = {}
    for i, j in sorted(fmap.items()):
        if j in seen_targets:
            violations.append(f"f not injective: f({seen_targets[j]})=f({i})={j}")
        else:
            seen_targets[j] = i

    adjacency = g._adjacency
    for i, j in sorted(fmap.items()):
        if i not in adjacency:
            violations.append(f"f defined on unknown vertex {i}")
            continue
        if i in fl.loops:
            for k in sorted(adjacency[i]):
                if levels[k] <= levels[i]:
                    violations.append(
                        f"F2 (loop): neighbor {k} of loop vertex {i} is not later"
                    )
            continue
        if j not in adjacency.get(i, frozenset()):
            violations.append(f"F0: ({i},{j}) is not an edge")
            continue
        if levels[j] <= levels[i]:
            violations.append(f"F1: f({i})={j} is not later than {i}")
        for k in sorted(adjacency[j] - {i}):
            if levels[k] <= levels[i]:
                violations.append(
                    f"F2: neighbor {k} of f({i})={j} is not later than {i}"
                )
    return ValidationResult(tuple(violations))
