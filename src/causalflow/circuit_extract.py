"""Gate-circuit extraction from flow geometries.

A flow geometry decomposes into star patterns, one per measured qubit:
the qubit is the star's input, its remaining neighbors are the outputs,
and the corrected neighbor inherits the input's circuit wire.  Each star
compiles to controlled-Z gates onto the non-corrected outputs followed by
a phase and a Hadamard on the continuing wire; edges between output
qubits survive as bare controlled-Z gates.  The resulting circuit acts on
one wire per output qubit (inputs keep their wires, everything else
enters as an ancilla prepared in the plus state) and agrees with the
geometry's realized embedding up to global phase.

Extraction is combinatorial and imports no numpy; the circuit's matrix
comes from :func:`causalflow.simulator.simulate_circuit`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

from .graph_model import Flow, OpenGraphState, validate_flow
from .pattern import PatternError, _check_angles, _measured_in_flow_order


@dataclass(frozen=True)
class StarPattern:
    """One measured qubit with its remaining neighbors at pick time.

    ``corrected`` is the neighbor designated by the flow; it continues on
    the input's wire in the extracted circuit.
    """

    input: int
    outputs: tuple[int, ...]
    angle: float
    corrected: int

    def __post_init__(self) -> None:
        if self.corrected not in self.outputs:
            raise ValueError(
                f"corrected output {self.corrected} not among outputs"
            )


@dataclass(frozen=True)
class Wire:
    """A circuit wire: born as an input or as a plus-state ancilla."""

    id: int
    source: str  # "input" | "plus"


@dataclass(frozen=True)
class CZGate:
    a: int
    b: int


@dataclass(frozen=True)
class PhaseGate:
    wire: int
    theta: float


@dataclass(frozen=True)
class HadamardGate:
    wire: int


Gate = Union[CZGate, PhaseGate, HadamardGate]

# The one per-kind table: each gate class with its JSON kind and, in
# document order, the (JSON key, field name) of each of its fields.
_GATES: dict[type, tuple[str, tuple[tuple[str, str], ...]]] = {
    CZGate: ("CZ", (("a", "a"), ("b", "b"))),
    PhaseGate: ("P", (("w", "wire"), ("theta", "theta"))),
    HadamardGate: ("H", (("w", "wire"),)),
}


@dataclass(frozen=True)
class Circuit:
    """Gate list over declared wires.

    ``outputs`` lists, for each output qubit in ascending id order, the
    wire that carries it at the end.  Input wires appear first in ``wires``
    in ascending input-qubit order; the map simulated by
    :func:`causalflow.simulator.simulate_circuit` uses that order for its
    input basis.
    """

    wires: tuple[Wire, ...]
    gates: tuple[Gate, ...]
    outputs: tuple[int, ...]

    def to_json_dict(self) -> dict:
        gates = []
        for gate in self.gates:
            kind, keys = _GATES[type(gate)]
            entry = {"g": kind}
            for key, name in keys:
                entry[key] = getattr(gate, name)
            gates.append(entry)
        return {
            "wires": [{"id": w.id, "source": w.source} for w in self.wires],
            "gates": gates,
            "outputs": list(self.outputs),
        }


def decompose_stars(
    g: OpenGraphState, fl: Flow, meas_angles: Mapping[int, float]
) -> tuple[list[StarPattern], list[tuple[int, int]]]:
    """Split a flow geometry into star patterns plus residual output edges.

    Measured qubits are picked level by level (ascending id within a
    level), each contributing a star over its neighbors that remain in the
    shrinking graph, and are then removed.  Edges whose endpoints are both
    outputs are never consumed by a star and come back as the residual.
    """
    if fl.loops:
        raise PatternError("circuit extraction requires a loop-free flow")
    check = validate_flow(g, fl, allow_loops=False)
    if not check.ok:
        raise PatternError(f"invalid flow: {'; '.join(check.violations)}")
    _check_angles("measurement", g.measured, meas_angles)
    removed: set[int] = set()
    stars: list[StarPattern] = []
    adjacency = g._adjacency
    for i in _measured_in_flow_order(g, fl):
        remaining = tuple(sorted(adjacency[i] - removed))
        stars.append(StarPattern(i, remaining, meas_angles[i], fl.f[i]))
        removed.add(i)
    oset = set(g.outputs)
    residual = [(u, v) for u, v in sorted(g.edges) if u in oset and v in oset]
    return stars, residual


def extract_circuit(
    g: OpenGraphState, fl: Flow, meas_angles: Mapping[int, float]
) -> Circuit:
    """Compile a flow geometry into a controlled-Z / phase / Hadamard circuit.

    Star blocks are emitted in decomposition order: controlled-Z from the
    star's input onto every non-corrected output, then the phase of minus
    the measurement angle and a Hadamard on the input's wire, which
    continues as the corrected output's wire.  A wire is an input
    wire exactly when its earliest segment is an input qubit; every other
    wire begins as a plus-state ancilla.  Residual output-output
    controlled-Z gates are placed as soon as both endpoint wires are final
    (after the first star listing the output, or at once if it is an input
    or in no star), which commutes with emitting them all at the end.
    """
    stars, residual = decompose_stars(g, fl, meas_angles)
    wires: list[Wire] = []
    wire_of: dict[int, int] = {}

    def wire(q: int, source: str = "plus") -> int:
        if q not in wire_of:
            wire_of[q] = len(wires)
            wires.append(Wire(len(wires), source))
        return wire_of[q]

    # first_star[q]: 1-based index of the first star whose outputs list q.
    first_star: dict[int, int] = {}
    for k, star in enumerate(stars, 1):
        for q in star.outputs:
            first_star.setdefault(q, k)
    for q in g.inputs:
        wire(q, "input")
    for q in g.outputs:
        if q not in first_star:
            wire(q)
    # after_stars[k]: residual edges placed right after the first k stars.
    after_stars: list[list[tuple[int, int]]] = [[] for _ in range(len(stars) + 1)]
    for u, v in residual:
        k = max(0 if q in wire_of else first_star[q] for q in (u, v))
        after_stars[k].append((u, v))

    gates: list[Gate] = [CZGate(wire_of[u], wire_of[v]) for u, v in after_stars[0]]
    for k, star in enumerate(stars, 1):
        w = wire(star.input)
        gates.extend(CZGate(w, wire(q)) for q in star.outputs if q != star.corrected)
        gates += [PhaseGate(w, -star.angle), HadamardGate(w)]
        wire_of[star.corrected] = wire_of.pop(star.input)
        gates.extend(CZGate(wire_of[u], wire_of[v]) for u, v in after_stars[k])

    return Circuit(tuple(wires), tuple(gates), tuple(wire_of[q] for q in g.outputs))
