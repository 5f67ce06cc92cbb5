"""Open graph states and flows.

An open graph state is an undirected graph together with two (possibly
overlapping) vertex subsets marking the inputs and outputs of a one-way
computation.  A flow equips such a state with a corrector map ``f`` from
measured to prepared vertices and a layered partial order; together they
certify that a deterministic measurement pattern exists for the geometry.

All types in this module are immutable after construction and safe to share
across concurrent tasks.  :class:`_Frozen`, the base of every record type
in the library, makes them so: each class sets its fields once in its own
``__init__``, and setting or deleting an attribute afterwards raises
AttributeError.
"""

from __future__ import annotations

import json
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping


class _Frozen:
    """An immutable value with named fields.

    A subclass annotates its fields in order and writes them once, in its
    own ``__init__``, into ``self.__dict__`` (with ``object.__setattr__``
    under ``__slots__``).  Values of one class with equal fields are equal
    and hash alike; ``repr`` reads ``Prepare(qubit=1, angle=0.5)``.
    """

    __slots__ = ()
    # the field names, in annotation order, set on each subclass
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class ValidationResult(_Frozen):
    """Outcome of a structural check: ``ok`` or a list of named violations."""

    violations: tuple[str, ...]

    def __init__(self, violations: tuple[str, ...] = ()) -> None:
        self.__dict__["violations"] = violations

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


class GraphFormatError(ValueError):
    """Raised for a malformed graph document or an invalid open graph."""


class OpenGraphState(_Frozen):
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
        d = self.__dict__
        d["vertices"] = tuple(sorted(set(vertices)))
        d["edges"] = tuple((u, v) if u <= v else (v, u) for u, v in edges)
        d["inputs"] = tuple(sorted(set(inputs)))
        d["outputs"] = tuple(sorted(set(outputs)))
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

    @cached_property
    def measured(self) -> tuple[int, ...]:
        """Vertices outside O, i.e. the qubits that get measured."""
        oset = set(self.outputs)
        return tuple(v for v in self.vertices if v not in oset)

    @cached_property
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


def _json_id(value: object) -> int:
    """A vertex id read from a JSON document: a JSON integer.  What ``int``
    cannot read raises ``int``'s own error; a bool, a float or a numeric
    string, which ``int`` would coerce, raises TypeError."""
    q = int(value)
    if type(value) is not int:
        raise TypeError(f"id {json.dumps(value)} is not an integer")
    return q


def _json_array(value: object, field: str) -> list | tuple:
    """A JSON document's array field (a tuple passes too, as ``json`` would
    write it as an array).  Any other value raises TypeError naming the
    field, before its items are read."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"{field} must be a JSON array, got {type(value).__name__}")
    return value


def _text_id(token: str) -> int:
    """An integer read from text, in the one spelling ``str`` gives it.
    What ``int`` cannot read raises ``int``'s own error; a spelling that
    ``int`` would coerce (a sign, a space, a leading zero, an underscore, a
    non-ASCII digit) raises ValueError."""
    q = int(token)
    if str(q) != token:
        raise ValueError(f"{token!r} is not written as a plain integer")
    return q


def graph_from_json_dict(data: Mapping) -> OpenGraphState:
    """Build an :class:`OpenGraphState` from its JSON dictionary form.

    The expected shape is ``{"vertices": [...], "edges": [[u, v], ...],
    "inputs": [...], "outputs": [...]}``: each field and each edge a JSON
    array (:func:`_json_array`), and every id a JSON integer
    (:func:`_json_id`).  Raises GraphFormatError on a document of another
    shape and, from the constructor, on an invalid open graph.
    """
    try:
        if not isinstance(data, Mapping):
            raise TypeError(f"expected a JSON object, got {type(data).__name__}")
        vertices = [_json_id(v) for v in _json_array(data["vertices"], "vertices")]
        edges = [_json_array(e, "each edge") for e in _json_array(data["edges"], "edges")]
        raw_edges = [(_json_id(u), _json_id(v)) for u, v in edges]
        inputs = [_json_id(v) for v in _json_array(data.get("inputs", []), "inputs")]
        outputs = [_json_id(v) for v in _json_array(data.get("outputs", []), "outputs")]
    except KeyError as exc:
        raise GraphFormatError(f"malformed graph document: missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
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


class Flow(_Frozen):
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
        d = self.__dict__
        d["f"] = MappingProxyType(dict(f))
        d["levels"] = MappingProxyType(dict(levels))

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

    One pass over ``f`` in ascending order checks every condition.  The
    messages name the domain, the range, the loops and the repeated
    targets, then each vertex's F0, F1 and F2 in ascending order; a
    vertex's neighbours are sorted only to name its violations.
    """
    fmap = fl.f
    levels = fl.levels
    adjacency = g._adjacency
    if not levels.keys() >= adjacency.keys():
        return ValidationResult(
            tuple(f"vertex {v} has no level" for v in g.vertices if v not in levels)
        )
    inputs = frozenset(g.inputs)
    outputs = frozenset(g.outputs)
    extra: list[int] = []
    unprepared: list[str] = []
    repeats: list[str] = []
    conditions: list[str] = []
    first_source: dict[int, int] = {}
    for i, j in sorted(fmap.items()):
        if i in outputs or i not in adjacency:
            extra.append(i)
        if j in inputs or j not in adjacency:
            unprepared.append(f"f({i})={j} is not a prepared vertex")
        source = first_source.setdefault(j, i)
        if source != i:
            repeats.append(f"f not injective: f({source})=f({i})={j}")
        if i not in adjacency:
            conditions.append(f"f defined on unknown vertex {i}")
            continue
        li = levels[i]
        if i == j:
            for w in adjacency[i]:
                if levels[w] <= li:
                    conditions += (
                        f"F2 (loop): neighbor {k} of loop vertex {i} is not later"
                        for k in sorted(adjacency[i])
                        if levels[k] <= li
                    )
                    break
            continue
        if j not in adjacency[i]:
            conditions.append(f"F0: ({i},{j}) is not an edge")
            continue
        if levels[j] <= li:
            conditions.append(f"F1: f({i})={j} is not later than {i}")
        for w in adjacency[j]:
            if w != i and levels[w] <= li:
                conditions += (
                    f"F2: neighbor {k} of f({i})={j} is not later than {i}"
                    for k in sorted(adjacency[j] - {i})
                    if levels[k] <= li
                )
                break
    violations: list[str] = []
    if len(fmap) - len(extra) != len(g.measured):
        violations.append(
            f"f undefined on measured vertices {[v for v in g.measured if v not in fmap]}"
        )
    if extra:
        violations.append(f"f defined outside measured set: {extra}")
    violations += unprepared
    if fl.loops and not allow_loops:
        violations.append(f"loops not allowed: {sorted(fl.loops)}")
    return ValidationResult(tuple(violations + repeats + conditions))
